"""The simulated S-1 CPU and runtime system.

Executes :class:`~repro.machine.isa.CodeObject` programs.  The machine is
*strict about representations*: a raw-arithmetic instruction traps on a
pointer operand and vice versa, so bugs in the compiler's representation
analysis surface as traps here rather than wrong answers.

Statistics kept (these are the measured quantities of every performance
experiment): instructions executed, abstract cycles, per-opcode counts,
heap allocations by class (via :class:`~repro.machine.heap.Heap`), pdl
certifications, special-variable search work, calls, and the stack
high-water mark (the tail-call experiments watch this one).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..datum import NIL, T
from ..datum.numbers import lisp_eql
from ..datum.symbols import Symbol, sym
from ..errors import (
    LispError,
    MachineError,
    UnboundVariableError,
    UncaughtThrowError,
    UndefinedFunctionError,
    WrongNumberOfArgumentsError,
    WrongTypeError,
    lisp_fault,
)
from ..interp.environment import DeepBindingStack
from ..options import TIERS
from ..primitives import PRIMITIVES, Primitive, _need_list, lookup_primitive
from ..telemetry import MachineTelemetry
from .heap import Heap
from .isa import CYCLES, CodeObject, Instruction, Program, RAW_BINARY_OPS, RAW_UNARY_OPS
from .timing import (
    DEFAULT_PIPELINE,
    PipelineDescription,
    TIMINGS,
    TimingProfile,
    analyze as analyze_timing,
)
from .values import (
    Cell,
    Closure,
    HeapNumber,
    PdlNumber,
    PrimitiveFn,
    is_raw_number,
    lisp_is_true,
    pointer_to_lisp,
)

import math


class _Unbound:
    def __repr__(self) -> str:  # pragma: no cover
        return "#<unbound>"


UNBOUND = _Unbound()

#: GENERIC throw is no primitive: the machine unwinds to its catch.
_THROW = sym("throw")


@dataclass
class FrameRecord:
    ret_code: Optional[CodeObject]
    ret_pc: int
    old_fp: int
    old_tp: int
    old_cp: Optional[List[Any]]
    nargs: int
    serial: int
    #: Native tier only: the caller's continuation NativeBlock at
    #: (ret_code, ret_pc), stamped by generated CALL code so RET can
    #: bypass the dispatch loop's block lookup.  Always None for frames
    #: pushed by the simulator; ignored outside the native tier.
    ret_block: Any = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"#<frame nargs={self.nargs} serial={self.serial}>"


@dataclass
class CatchRecord:
    tag: Any
    stack_height: int
    fp: int
    tp: int
    cp: Optional[List[Any]]
    code: CodeObject
    target_pc: int
    specials_depth: int
    frame_serials: frozenset


class Machine:
    """One simulated processor plus its runtime state."""

    def __init__(self, program: Program, fuel: int = 50_000_000,
                 gc_threshold: Optional[int] = None,
                 cycle_costs: Optional[Dict[str, int]] = None,
                 tier: str = "simulate",
                 timing: str = "single",
                 pipeline: Optional[PipelineDescription] = None):
        if tier not in TIERS:
            raise MachineError(
                f"unknown execution tier {tier!r} "
                f"(choose one of {', '.join(TIERS)})")
        self.program = program
        #: Instruction budget of one run()/start(); a run() may pass its own.
        self.fuel = fuel
        #: The instruction count at which the current run traps: the count
        #: at its entry plus its budget (the one bound every tier checks).
        self.instruction_limit = fuel
        #: Execution engine: "simulate" is the cycle-honest reference
        #: interpreter; "native" runs blocks translated to Python by
        #: repro.machine.native (same results and counts, traps included).
        self.tier = tier
        # The pipeline tables travel with the machine even under
        # timing="single" so set_timing() can switch models later
        # (the REPL's :timing does).
        self._pipeline_spec = pipeline
        # id(CodeObject) -> (code, TimingProfile) under the current
        # pipeline, object pinned (same discipline as _native_cache).
        self._timing_cache: Dict[int, Tuple[CodeObject, TimingProfile]] = {}
        #: Per-category hazard stall cycles (already included in
        #: ``cycles``); all zero under timing="single".
        self.stall_data = 0
        self.stall_control = 0
        self.stall_structural = 0
        # Opcode -> cycle cost; a retargeted compiler passes its
        # MachineDescription's table so the cycle counter models that
        # machine (default: the S-1 model).
        self.cycle_costs = CYCLES if cycle_costs is None else cycle_costs
        # Automatic collection: when the live heap exceeds this many
        # objects, a GC runs at the next safe point (None = only explicit
        # GC instructions collect).
        self.gc_threshold = gc_threshold
        self.heap = Heap()
        self.specials = DeepBindingStack()
        self.regs: List[Any] = [NIL] * 32
        self.stack: List[Any] = []
        self.catch_stack: List[CatchRecord] = []
        self.code: Optional[CodeObject] = None
        self.pc = 0
        self.fp = -1
        self.tp = -1
        self.cp: Optional[List[Any]] = None
        self._serial = 0
        self._live_serials: set = set()
        self.result: Any = NIL
        self._halted = False
        # Run-entry snapshot (stack height, fp/tp/cp, catch depth,
        # specials depth, frame serial) so a fatal trap can restore a
        # usable machine; None outside a run.  _poisoned marks "this run
        # died mid-flight".
        self._entry_state: Optional[Tuple] = None
        self._poisoned = False
        # Allocation watermark for the automatic-GC trigger: the check
        # runs only on instructions that actually allocated.
        self._gc_alloc_mark = 0
        # Native tier state: this machine's index of the translations it
        # runs, id(CodeObject) -> (code, NativeCode) to pin identity (the
        # translations live on the CodeObjects, shared by every machine
        # with the same translation key); that key, derived on first use
        # after each configuration change; and a per-run block-execution
        # counter that stats() lazily folds into opcode_counts.
        self._native_cache: Dict[int, Tuple[CodeObject, Any]] = {}
        self._native_key: Optional[Tuple] = None
        self._native_counts: Counter = Counter()
        # statistics
        self.instructions = 0
        self.cycles = 0
        self.opcode_counts: Counter = Counter()
        self.call_count = 0
        self.max_stack = 0
        #: The machine's one observer: the exact per-instruction cycle
        #: ledger plus IC/GC/heap events.  None (the default) keeps each
        #: hot loop to one load and one test.  See enable_telemetry().
        self.telemetry: Optional[MachineTelemetry] = None
        #: Timing model (``self.timing``): "single" charges the cycle
        #: table alone (the paper's model); "pipelined" additionally
        #: charges hazard stalls from the target's PipelineDescription.
        #: Strictly non-semantic: only cycles and the stall counters differ.
        self.set_timing(timing)

    # -- public API -----------------------------------------------------------

    def define_global(self, name: Symbol, value: Any) -> None:
        self.specials.set_global(name, self.lisp_to_pointer(value))

    def run(self, function: Symbol, args: Sequence[Any],
            fuel: Optional[int] = None) -> Any:
        """Call a compiled function with Lisp-datum arguments; returns a
        Lisp datum.  Each call may execute ``fuel`` instructions (the
        machine's budget unless a *fuel* argument bounds this call), however
        many earlier calls this machine ran."""
        self._enter(function, args, self.fuel if fuel is None else fuel)
        try:
            self._execute()
        finally:
            self._leave()
        return self.machine_to_lisp(self.result)

    def _enter(self, function: Symbol, args: Sequence[Any],
               fuel: int) -> None:
        """The one way into a run (run() and start()): snapshot the entry
        state, push the arguments and the outermost frame, and open the
        observer's run span."""
        code = self.program.get(function)
        self.instruction_limit = self.instructions + fuel
        self._entry_state = (len(self.stack), self.fp, self.tp, self.cp,
                             len(self.catch_stack), self.specials.depth(),
                             self._serial)
        self._poisoned = False
        for arg in args:
            self.stack.append(self.lisp_to_pointer(arg))
        self._push_frame(None, 0, len(args))
        self.code = code
        self.pc = 0
        self._halted = False
        if self.telemetry is not None:
            self.telemetry.begin_run(str(function), self)

    def _leave(self) -> None:
        """The one way out of a run; a second call is a no-op.  A run
        that did not halt died mid-flight (trap, fuel, uncaught throw):
        restore the entry snapshot, frame serials included, so the
        machine stays usable (the REPL reuses one machine across errors),
        and mark it halted + poisoned so no scheduler resumes it.  Either
        way, a register's pdl number whose frame is gone is dropped: it
        died with its frame (Section 6.3), and it would keep a finished
        machine alive by pointing back at it."""
        entry, self._entry_state = self._entry_state, None
        if entry is None:
            return
        if not self._halted:
            height, fp, tp, cp, catches, spec_depth, serial = entry
            del self.stack[height:]
            self.fp, self.tp, self.cp = fp, tp, cp
            del self.catch_stack[catches:]
            self.specials.pop_to(spec_depth)
            self._live_serials = {live for live in self._live_serials
                                  if live <= serial}
            self._halted = True
            self._poisoned = True
        regs = self.regs
        for index, word in enumerate(regs):
            if type(word) is PdlNumber \
                    and not word.machine.frame_alive(word.frame_serial):
                regs[index] = NIL
        self._flush_native_counts()
        if self.telemetry is not None:
            self.telemetry.end_run(self)

    @property
    def poisoned(self) -> bool:
        """True when the last start()/run() died on a fatal error (the
        entry state was restored; the result is not meaningful)."""
        return self._poisoned

    def frame_alive(self, serial: int) -> bool:
        return serial in self._live_serials

    # -- telemetry -----------------------------------------------------------

    def enable_telemetry(self) -> MachineTelemetry:
        """Switch on the machine's observer (a fresh ledger).  The native
        index is dropped: translations made with telemetry on carry
        per-instruction records and instrumented inline-cache and
        fallback sites, so the two modes never share generated code (each
        mode's translations stay stored on the CodeObjects)."""
        self._flush_native_counts()
        self.telemetry = MachineTelemetry(processor_id=self.processor_id)
        self._drop_native_index()
        return self.telemetry

    def disable_telemetry(self) -> Optional[MachineTelemetry]:
        """Stop telemetry; returns what was collected (if anything)."""
        telemetry, self.telemetry = self.telemetry, None
        if telemetry is not None:
            self._drop_native_index()
        return telemetry

    def telemetry_report(self, top: int = 20) -> str:
        if self.telemetry is None:
            return "(telemetry is not enabled)"
        return self.telemetry.report(top)

    def telemetry_data(self) -> Optional[Dict[str, Any]]:
        return None if self.telemetry is None else self.telemetry.to_json()

    # -- timing models -------------------------------------------------------

    def set_timing(self, timing: str,
                   pipeline: Optional[PipelineDescription] = None) -> None:
        """Switch the timing model (the REPL's ``:timing``).  Drops the
        native index and the timing profiles: native translations bake
        the pipeline's stall charges into the generated blocks, so the
        two models never share generated code (switching back finds the
        first model's translations still stored on the CodeObjects)."""
        if timing not in TIMINGS:
            raise MachineError(
                f"unknown timing model {timing!r} "
                f"(choose one of {', '.join(TIMINGS)})")
        self._flush_native_counts()
        if pipeline is not None:
            self._pipeline_spec = pipeline
        self.timing = timing
        if timing == "pipelined":
            self._pipeline = self._pipeline_spec \
                if self._pipeline_spec is not None else DEFAULT_PIPELINE
        else:
            self._pipeline = None
        self._timing_cache.clear()
        self._drop_native_index()

    def stall_cycles(self) -> Dict[str, int]:
        """Hazard stall cycles by category (subset of ``cycles``)."""
        return {
            "data": self.stall_data,
            "control": self.stall_control,
            "structural": self.stall_structural,
        }

    def _timing_profile(self, code: CodeObject) -> TimingProfile:
        cached = self._timing_cache.get(id(code))
        if cached is None or cached[0] is not code:
            cached = (code, analyze_timing(code, self._pipeline))
            self._timing_cache[id(code)] = cached
        return cached[1]

    def stats(self) -> Dict[str, Any]:
        self._flush_native_counts()
        stalls = self.stall_data + self.stall_control + self.stall_structural
        return {
            "instructions": self.instructions,
            "cycles": self.cycles,
            "timing": self.timing,
            #: cycles the single-cycle table model would have charged:
            #: base_cycles + sum(stall_cycles) == cycles always holds.
            "base_cycles": self.cycles - stalls,
            "stall_cycles": self.stall_cycles(),
            "calls": self.call_count,
            "max_stack": self.max_stack,
            "heap_allocations": dict(self.heap.allocations),
            "total_heap_allocations": self.heap.total_allocations(),
            "certifications": self.heap.certifications,
            "special_lookups": self.specials.lookups,
            "special_search_steps": self.specials.search_steps,
            "opcodes": dict(self.opcode_counts),
        }

    # -- value conversion --------------------------------------------------------

    def lisp_to_pointer(self, value: Any) -> Any:
        """Lisp datum -> pointer-world machine word (boxes floats)."""
        if isinstance(value, (float, complex)):
            return self.heap.allocate_number(value)
        return value

    def machine_to_lisp(self, word: Any) -> Any:
        return pointer_to_lisp(word)

    # -- frame helpers -------------------------------------------------------------

    def _push_frame(self, ret_code: Optional[CodeObject], ret_pc: int,
                    nargs: int) -> FrameRecord:
        self._serial += 1
        record = FrameRecord(ret_code, ret_pc, self.fp, self.tp, self.cp,
                             nargs, self._serial)
        self._live_serials.add(self._serial)
        self.stack.append(record)
        self.fp = len(self.stack) - 1
        self.tp = self.fp + 1
        self.regs[5] = nargs  # NARGS register
        self.call_count += 1
        return record

    def _current_record(self) -> FrameRecord:
        record = self.stack[self.fp]
        if not isinstance(record, FrameRecord):  # pragma: no cover
            raise MachineError("corrupt frame")
        return record

    # -- operand access ---------------------------------------------------------------

    def read(self, operand: Tuple[str, Any]) -> Any:
        kind, value = operand
        if kind == "reg":
            return self.regs[value]
        if kind == "temp":
            return self.stack[self.tp + value]
        if kind == "frame":
            stack = self.stack
            record = stack[self.fp]
            if type(record) is not FrameRecord:  # pragma: no cover
                raise MachineError("corrupt frame")
            return stack[self.fp - record.nargs + value]
        if kind == "imm":
            return value
        if kind == "env":
            if self.cp is None:
                raise MachineError("ENVREF outside a closure")
            return self.cp[value]
        raise MachineError(f"cannot read operand {operand!r}")

    def write(self, operand: Tuple[str, Any], word: Any) -> None:
        kind, value = operand
        if kind == "reg":
            self.regs[value] = word
        elif kind == "temp":
            self.stack[self.tp + value] = word
        elif kind == "frame":
            stack = self.stack
            record = stack[self.fp]
            if type(record) is not FrameRecord:  # pragma: no cover
                raise MachineError("corrupt frame")
            stack[self.fp - record.nargs + value] = word
        else:
            raise MachineError(f"cannot write operand {operand!r}")

    # -- the execution loop -------------------------------------------------------------

    def _execute(self) -> None:
        if self.tier == "native":
            self._execute_native()
        else:
            self._simulate()

    def _simulate(self, quantum: Optional[int] = None) -> None:
        """The simulate tier's one stepping loop: execute instructions
        until the machine halts or, given a *quantum*, until that many
        have run (the multiprocessor scheduler interleaves processors at
        this granularity).  run(), step() and the native tier's
        out-of-fuel stepping (_native_trap) all come here.

        What no handler rebinds is read into locals once per call.  Per
        instruction the loop fetches, checks fuel exactly, counts the
        opcode, charges and dispatches (the observer's
        observe_instruction, or _issue under the pipelined model, does
        those two), samples the stack high-water mark and runs the
        allocation-watermark GC check.  The instruction count, the
        unobserved single-cycle model's table charges and the high-water
        mark live in locals and reach the machine when the loop ends,
        also when a handler raises: no handler reads them."""
        telemetry = self.telemetry
        pipeline = self._pipeline
        plain = telemetry is None and pipeline is None
        costs = self.cycle_costs
        counts = self.opcode_counts
        stack = self.stack
        heap = self.heap
        limit = self.instruction_limit
        threshold = self.gc_threshold
        dispatch = _DISPATCH
        executed = self.instructions
        stop = -1 if quantum is None else executed + max(quantum, 0)
        max_stack = self.max_stack
        charged = 0
        try:
            while executed != stop and not self._halted:
                code = self.code
                index = self.pc
                try:
                    instruction = code.instructions[index]
                except IndexError:
                    raise MachineError(f"fell off the end of {code.name}"
                                       f" at pc={index}") from None
                self.pc = index + 1
                executed += 1
                if executed > limit:
                    raise MachineError("instruction budget exhausted")
                opcode = instruction.opcode
                counts[opcode] += 1
                if plain:
                    charged += costs.get(opcode, 1)
                    handler = dispatch.get(opcode)
                    if handler is None:
                        raise MachineError(f"bad opcode {opcode}")
                    handler(self, instruction)
                elif telemetry is not None:
                    telemetry.observe_instruction(self, index, instruction)
                else:
                    self._issue(instruction)
                size = len(stack)
                if size > max_stack:
                    max_stack = size
                if threshold is not None \
                        and heap.alloc_counter != self._gc_alloc_mark:
                    self._maybe_auto_collect()
        finally:
            self.instructions = executed
            self.cycles += charged
            if max_stack > self.max_stack:
                self.max_stack = max_stack

    def _issue(self, instruction: Instruction) -> None:
        """Charge and execute the fetched *instruction* (pc is already
        past it), hazard stalls included."""
        self.cycles += self.cycle_costs.get(instruction.opcode, 1)
        handler = _DISPATCH.get(instruction.opcode)
        if handler is None:
            raise MachineError(f"bad opcode {instruction.opcode}")
        pipeline = self._pipeline
        if pipeline is None:
            handler(self, instruction)
            return
        # Pipelined model, charged where the native tier charges it, so
        # the two tiers agree on every count also when a handler raises:
        # the structural stall before the handler runs; after it, a
        # front-end flush if the handler transferred control (code
        # changed or pc != index + 1), else the data-hazard stall of the
        # back-to-back pair it falls into (unless it halted).
        code_before = self.code
        index = self.pc - 1
        timing_profile = self._timing_profile(code_before)
        structural = timing_profile.structural[index]
        if structural:
            self.cycles += structural
            self.stall_structural += structural
        handler(self, instruction)
        if self.code is code_before and self.pc == index + 1:
            pair = timing_profile.pair
            data = pair[index + 1] \
                if index + 1 < len(pair) and not self._halted else 0
            if data:
                self.cycles += data
                self.stall_data += data
        elif pipeline.flush_cycles:
            self.cycles += pipeline.flush_cycles
            self.stall_control += pipeline.flush_cycles

    def _maybe_auto_collect(self) -> None:
        """Automatic collection, allocation-watermark keyed: the live-set
        check runs whenever the heap has allocated since the last check,
        so a single handler that allocates heavily (RESTCOLLECT, a
        list-building GENERIC) cannot overshoot gc_threshold between the
        old every-64-instructions boundaries."""
        heap = self.heap
        if heap.alloc_counter != self._gc_alloc_mark:
            self._gc_alloc_mark = heap.alloc_counter
            if heap.live_count() > self.gc_threshold:
                self.collect_garbage(reason="watermark")

    # -- the native tier (repro.machine.native) -----------------------------

    def _native_code_for(self, code: CodeObject):
        """The NativeCode for *code* under this machine's cost table,
        observer and timing model: the translation shared through the
        CodeObject (repro.machine.native.translate), made on the first
        use by any machine.  Indexed here by id() (CodeObjects are
        unhashable) with the object pinned in the value so a recycled id
        cannot alias a dead CodeObject."""
        cached = self._native_cache.get(id(code))
        if cached is None or cached[0] is not code:
            from .native import translate, translation_key

            telemetry = self.telemetry is not None
            if self._native_key is None:
                self._native_key = translation_key(
                    self.cycle_costs, telemetry, self._pipeline)
            cached = (code, translate(code, self.cycle_costs, telemetry,
                                      self._pipeline, key=self._native_key))
            self._native_cache[id(code)] = cached
        return cached[1]

    def _drop_native_index(self) -> None:
        """Forget the translations this machine indexed and its key, after
        a change of observer or timing model selects other ones."""
        self._native_cache.clear()
        self._native_key = None

    def _native_block(self):
        """The translated block at (code, pc), translating on first use."""
        code, pc = self.code, self.pc
        block = self._native_code_for(code).blocks.get(pc)
        if block is None:
            if pc >= len(code.instructions):
                raise MachineError(
                    f"fell off the end of {code.name} at pc={pc}")
            raise MachineError(  # pragma: no cover - translator invariant
                f"native tier: pc={pc} is not a block leader in {code.name}")
        return block

    def step_block(self) -> None:
        """Execute one translated basic block (native tier's unit of
        progress: GC and the stack high-water mark are checked at block
        granularity; fuel and traps are exact, see _native_trap)."""
        block = self._native_block()
        telemetry = self.telemetry
        try:
            if telemetry is None:
                block.run(self)
            else:
                telemetry.observe_block(self, block)
        except BaseException as error:
            self._native_trap(block, error)
            raise
        self._native_counts[block] += 1
        if len(self.stack) > self.max_stack:
            self.max_stack = len(self.stack)
        if self.gc_threshold is not None:
            self._maybe_auto_collect()

    def _execute_native(self) -> None:
        if self.telemetry is not None:
            # The observer books every block: take the per-block path.
            # The chained hot loop below stays instrumentation-free.
            step_block = self.step_block
            while not self._halted:
                step_block()
            return
        # Hot loop: follow statically chained blocks (run() returns the
        # successor NativeBlock for intra-code edges) and fall back to a
        # pc-keyed lookup only at calls/returns/fallbacks.
        counts = self._native_counts
        stack = self.stack
        cache = self._native_cache
        gc_on = self.gc_threshold is not None
        max_stack = self.max_stack
        block = None
        try:
            while True:
                if block is None:
                    # Dynamic transfer (call/return miss, fallback, or
                    # halt).  Halting always surfaces here -- HALT and
                    # the outermost RET both hand back None -- so the
                    # statically/cache-linked fast path never needs to
                    # test _halted.
                    if self._halted:
                        break
                    code = self.code
                    # _native_block()'s hit path, inlined: a cached
                    # CodeObject costs the hot loop no call.
                    entry = cache.get(id(code))
                    if entry is not None and entry[0] is code:
                        block = entry[1].blocks.get(self.pc)
                    if block is None:
                        block = self._native_block()
                nxt = block.run(self)
                counts[block] += 1
                size = len(stack)
                if size > max_stack:
                    max_stack = size
                if gc_on:
                    self._maybe_auto_collect()
                block = nxt
        except BaseException as error:
            self._native_trap(block, error)
            raise
        finally:
            if max_stack > self.max_stack:
                self.max_stack = max_stack

    def _native_trap(self, block, error: BaseException) -> None:
        """Leave every count as the simulator leaves it when translated
        *block* raised *error* (the caller re-raises it).  Out of fuel,
        nothing in the block ran: step it from its leader on the
        simulate tier's stepping loop (_simulate) until that loop's fuel
        check raises.
        Otherwise the block takes back what its prologue charged for the
        instructions after the one that raised (NativeBlock.take_back);
        an error raised outside the block (*block* None, or a collection
        after it ran) leaves nothing to take back.  Called after the
        block's frame has unwound, outside the observer's observe_block,
        which would otherwise book the stepped stalls twice."""
        if block is None:
            return
        from .native import OutOfFuel

        if type(error) is OutOfFuel:
            try:
                self._simulate()
            except BaseException as fault:
                raise fault from None
        block.take_back(self, error.__traceback__)

    def _flush_native_counts(self) -> None:
        """Fold per-block execution counters into opcode_counts (the
        native tier bumps one counter per block, not one per opcode)."""
        if not self._native_counts:
            return
        opcode_counts = self.opcode_counts
        for block, runs in self._native_counts.items():
            for opcode, count in block.opcodes.items():
                opcode_counts[opcode] += count * runs
        self._native_counts.clear()

    # -- asynchronous driving (multiprocessor support) ----------------------

    def start(self, function: Symbol, args: Sequence[Any]) -> None:
        """Set up a call without running it; drive with step()/halted.

        Statistics are per start(): instructions, cycles, opcode counts,
        calls, and the stack high-water mark are reset here so two
        sequential start()/step() runs report independent counts (the
        same per-call-leak family multi.py's fuel budgeting works
        around).  The observer's counters restart with them (its event
        lists stay), and its run span opens here and closes when step()
        halts or aborts.  run() keeps cumulating across calls -- the
        REPL's :stats is documented as session-cumulative."""
        self.instructions = 0
        self.cycles = 0
        self.opcode_counts = Counter()
        self.call_count = 0
        self.max_stack = 0
        self.stall_data = 0
        self.stall_control = 0
        self.stall_structural = 0
        self._native_counts.clear()
        if self.telemetry is not None:
            self.telemetry.restart()
        self._enter(function, args, self.fuel)

    @property
    def halted(self) -> bool:
        return self._halted

    def step(self, quantum: int = 1) -> bool:
        """Run up to *quantum* instructions (native tier: whole blocks,
        until at least *quantum* instructions have run); returns True when
        halted.  A fatal error poisons the machine -- halted, entry state
        restored -- so a scheduler that catches the error cannot
        re-schedule a half-stepped run."""
        try:
            if self.tier == "native":
                target = self.instructions + quantum
                while not self._halted and self.instructions < target:
                    self.step_block()
            else:
                self._simulate(quantum)
        except BaseException:
            self._leave()
            raise
        if self._halted:
            self._leave()
        return self._halted

    # -- instruction implementations -----------------------------------------------------

    def _op_mov(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        self.write(dst, self.read(src))

    def _op_unbox(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        self.write(dst, _unbox(self.read(src)))

    def _op_boxf(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        self.write(dst, _boxf(self.heap, self.read(src)))

    def _op_pdlbox(self, instruction: Instruction) -> None:
        dst, slot, src = instruction.operands
        word = _need_raw(self.read(src), "PDLBOX")
        if isinstance(word, int):
            self.write(dst, word)
            return
        assert slot[0] == "temp"
        address = self.tp + slot[1]
        self.stack[address] = word
        record = self._current_record()
        self.write(dst, PdlNumber(self, record.serial, address))

    def _op_certify(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        self.write(dst, self._certify(self.read(src)))

    def _certify(self, word: Any) -> Any:
        if isinstance(word, PdlNumber):
            self.heap.certifications += 1
            return self.heap.allocate_number(word.deref())
        return word

    def _op_raw_binary(self, instruction: Instruction) -> None:
        dst, a_src, b_src = instruction.operands
        self.write(dst, _raw_binary_checked(
            instruction.opcode, self.read(a_src), self.read(b_src)))

    def _op_raw_unary(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        self.write(dst, _raw_unary_checked(instruction.opcode,
                                           self.read(src)))

    def _op_jmp(self, instruction: Instruction) -> None:
        (label,) = instruction.operands
        self.pc = self.code.resolve_label(label[1])

    def _op_jumpnil(self, instruction: Instruction) -> None:
        src, label = instruction.operands
        if not lisp_is_true(self.read(src)):
            self.pc = self.code.resolve_label(label[1])

    def _op_jumpnnil(self, instruction: Instruction) -> None:
        src, label = instruction.operands
        if lisp_is_true(self.read(src)):
            self.pc = self.code.resolve_label(label[1])

    _RELATIONS = {
        "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
        "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b,
        "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    }

    def _op_cmpbr(self, instruction: Instruction) -> None:
        rel, a_src, b_src, label = instruction.operands
        a = _need_raw(self.read(a_src), "CMPBR")
        b = _need_raw(self.read(b_src), "CMPBR")
        relation = rel[1] if isinstance(rel[1], str) else rel[1].name
        if self._RELATIONS[relation](a, b):
            self.pc = self.code.resolve_label(label[1])

    def _op_eqlbr(self, instruction: Instruction) -> None:
        a_src, b_src, label = instruction.operands
        a = pointer_to_lisp(self.read(a_src))
        b = pointer_to_lisp(self.read(b_src))
        if lisp_eql(a, b):
            self.pc = self.code.resolve_label(label[1])

    def _op_push(self, instruction: Instruction) -> None:
        (src,) = instruction.operands
        self.stack.append(self.read(src))

    def _op_pop(self, instruction: Instruction) -> None:
        (dst,) = instruction.operands
        self.write(dst, self.stack.pop())

    def _op_alloctemps(self, instruction: Instruction) -> None:
        (count,) = instruction.operands
        self.tp = len(self.stack)
        self.stack.extend([NIL] * count[1])

    def _op_argcheck(self, instruction: Instruction) -> None:
        low, high = instruction.operands
        nargs = self.regs[5]
        if nargs < low[1] or (high[1] is not None and nargs > high[1]):
            raise WrongNumberOfArgumentsError(
                f"{self.code.name}: called with {nargs} argument(s)")

    def _op_argdispatch(self, instruction: Instruction) -> None:
        (table,) = instruction.operands
        nargs = self.regs[5]
        for count, label in table[1]:
            if count == nargs or count is None:
                self.pc = self.code.resolve_label(label)
                return
        raise WrongNumberOfArgumentsError(
            f"{self.code.name}: called with {nargs} argument(s)")

    def _op_argexpand(self, instruction: Instruction) -> None:
        (total,) = instruction.operands
        record = self._current_record()
        missing = total[1] - record.nargs
        if missing <= 0:
            return
        # Insert empty slots between the existing args and the record.
        base = self.fp - record.nargs
        args = self.stack[base:self.fp]
        del self.stack[base:self.fp + 1]
        self.stack.extend(args)
        self.stack.extend([NIL] * missing)
        record.nargs = total[1]
        self.stack.append(record)
        self.fp = len(self.stack) - 1
        self.tp = self.fp + 1

    def _op_restcollect(self, instruction: Instruction) -> None:
        (fixed,) = instruction.operands
        record = self._current_record()
        base = self.fp - record.nargs
        args = self.stack[base:self.fp]
        rest_items = [self.machine_to_lisp(w) for w in args[fixed[1]:]]
        rest = NIL
        for item in reversed(rest_items):
            rest = self.heap.allocate_cons(item, rest)
        new_args = args[:fixed[1]] + [rest]
        del self.stack[base:self.fp + 1]
        self.stack.extend(new_args)
        record.nargs = fixed[1] + 1
        self.stack.append(record)
        self.fp = len(self.stack) - 1
        self.tp = self.fp + 1

    # -- calls --------------------------------------------------------------------

    def _target_code(self, operand: Tuple[str, Any]) -> Tuple[CodeObject, int]:
        kind, value = operand
        if kind == "global":
            code = self.program.get(value)
            return code, 0
        if kind == "label":
            return self.code, self.code.resolve_label(value)
        raise MachineError(f"bad call target {operand!r}")

    def _op_call(self, instruction: Instruction) -> None:
        target, nargs = instruction.operands[0], instruction.operands[1][1]
        kind = instruction.operands[0][0]
        if kind == "global" and instruction.operands[0][1] not in \
                self.program.functions:
            name = instruction.operands[0][1]
            if name is _THROW and nargs == 2:
                value = self.machine_to_lisp(self.stack.pop())
                tag = self.machine_to_lisp(self.stack.pop())
                self._do_throw(tag, value)
                return
            # Calling an undefined global that is a primitive: generic apply.
            primitive = lookup_primitive(name)
            if primitive is not None:
                self._apply_primitive_from_stack(primitive, nargs)
                return
            raise UndefinedFunctionError(name)
        code, entry = self._target_code(target)
        self._push_frame(self.code, self.pc, nargs)
        self.code = code
        self.pc = entry

    def _op_kcall(self, instruction: Instruction) -> None:
        # Fast linkage: identical mechanics, cheaper cycle cost, and the
        # callee entry skips ARGCHECK/ARGDISPATCH.
        self._op_call(instruction)

    def _op_callf(self, instruction: Instruction) -> None:
        fn_src, nargs_op = instruction.operands
        nargs = nargs_op[1]
        fn = self.read(fn_src)
        self._invoke_value(fn, nargs, tail=False)

    def _invoke_value(self, fn: Any, nargs: int, tail: bool) -> None:
        if isinstance(fn, PrimitiveFn):
            self._apply_primitive_from_stack(fn.primitive, nargs)
            if tail:
                self._op_ret_value(self.stack.pop())
            return
        if isinstance(fn, Closure):
            if tail:
                self._replace_frame(nargs)
            else:
                self._push_frame(self.code, self.pc, nargs)
            self.cp = fn.env
            self.code = fn.code
            self.pc = fn.entry
            return
        raise WrongTypeError(f"not a function: {fn!r}")

    def _apply_primitive_from_stack(self, primitive: Primitive,
                                    nargs: int) -> None:
        args = [self.machine_to_lisp(w) for w in self.stack[-nargs:]] \
            if nargs else []
        del self.stack[len(self.stack) - nargs:]
        self.cycles += primitive.cycles
        result = primitive.apply(args)
        if primitive.allocates:
            self.heap.adopt(result)
        self.stack.append(self.lisp_to_pointer(result))

    def _replace_frame(self, nargs: int) -> None:
        """Tail call: replace the current frame's arguments with the *nargs*
        values on top of the stack, keeping the return linkage."""
        new_args = self.stack[len(self.stack) - nargs:] if nargs else []
        record = self._current_record()
        # Pdl pointers into the dying frame's scratch area must be certified
        # before the area is reused (run-time backstop for the static rule).
        new_args = [self._certify(word)
                    if isinstance(word, PdlNumber)
                    and word.frame_serial == record.serial else word
                    for word in new_args]
        self._live_serials.discard(record.serial)
        base = self.fp - record.nargs
        del self.stack[base:]
        self.stack.extend(new_args)
        self._serial += 1
        record.serial = self._serial
        self._live_serials.add(self._serial)
        record.nargs = nargs
        self.stack.append(record)
        self.fp = len(self.stack) - 1
        self.tp = self.fp + 1
        self.regs[5] = nargs
        self.call_count += 1

    def _op_tailcall(self, instruction: Instruction) -> None:
        target, nargs_op = instruction.operands
        nargs = nargs_op[1]
        if target[0] == "global" and target[1] not in self.program.functions:
            primitive = lookup_primitive(target[1])
            if primitive is not None:
                self._apply_primitive_from_stack(primitive, nargs)
                self._op_ret_value(self.stack.pop())
                return
            raise UndefinedFunctionError(target[1])
        code, entry = self._target_code(target)
        self._replace_frame(nargs)
        self.cp = None
        self.code = code
        self.pc = entry

    def _op_applyf(self, instruction: Instruction) -> None:
        """apply: the last pushed argument is a list to spread."""
        fn_src, nargs_op = instruction.operands
        fn = self.read(fn_src)
        spread_list = self.machine_to_lisp(self.stack.pop())
        items = [self.lisp_to_pointer(v)
                 for v in _need_list("apply", spread_list)]
        self.stack.extend(items)
        nargs = nargs_op[1] - 1 + len(items)
        self._invoke_value(fn, nargs, tail=False)

    def _op_tailcallf(self, instruction: Instruction) -> None:
        fn_src, nargs_op = instruction.operands
        fn = self.read(fn_src)
        self._invoke_value(fn, nargs_op[1], tail=True)

    def _op_ret(self, instruction: Instruction) -> None:
        (src,) = instruction.operands
        self._op_ret_value(self.read(src))

    def _op_ret_value(self, value: Any) -> None:
        record = self._current_record()
        # A pdl pointer must never survive its frame: certify on return,
        # while the frame is still alive.
        value = self._certify(value)
        self._live_serials.discard(record.serial)
        base = self.fp - record.nargs
        del self.stack[base:]
        self.fp = record.old_fp
        self.tp = record.old_tp
        self.cp = record.old_cp
        if record.ret_code is None:
            self.result = value
            self._halted = True
            return
        self.code = record.ret_code
        self.pc = record.ret_pc
        self.stack.append(value)

    # -- generic (pointer-world) operations -------------------------------------------

    def _op_generic(self, instruction: Instruction) -> None:
        operands = instruction.operands
        name = operands[0][1]
        if name is _THROW:
            primitive = None
        else:
            primitive = PRIMITIVES.get(name)
            if primitive is None:
                raise MachineError(f"GENERIC: unknown primitive {name}")
            self.cycles += primitive.cycles
        # Each argument in one pass: read it, certify it if the operation
        # is unsafe (throw's value escapes, so throw certifies too), and
        # unwrap the Lisp datum (pointer_to_lisp, inlined).
        certify = primitive is None or not primitive.safe
        read = self.read
        args = []
        for src in operands[2:]:
            word = read(src)
            if certify:
                word = self._certify(word)
            kind = type(word)
            if kind is HeapNumber:
                word = word.value
            elif kind is PdlNumber:
                word = word.deref()
            args.append(word)
        if primitive is None:
            self._do_throw(args[0], args[1])
            return
        result = primitive.apply(args)
        if primitive.allocates:
            self.heap.adopt(result)
        self.write(operands[1], self.lisp_to_pointer(result))

    def _op_gfunc(self, instruction: Instruction) -> None:
        dst, name_op = instruction.operands
        name = name_op[1]
        if name in self.program.functions:
            code = self.program.get(name)
            closure = Closure(code, 0, [], name=str(name))
            self.heap.allocate_closure(closure)
            self.write(dst, closure)
            return
        primitive = lookup_primitive(name)
        if primitive is not None:
            self.write(dst, PrimitiveFn(primitive))
            return
        raise UndefinedFunctionError(name)

    # -- closures ----------------------------------------------------------------------

    def _op_closure(self, instruction: Instruction) -> None:
        dst, target = instruction.operands[0], instruction.operands[1]
        srcs = instruction.operands[2:]
        code, entry = self._target_code(target)
        env = [self.read(src) for src in srcs]
        # Captured pdl pointers would dangle; certify them into the heap.
        env = [self._certify(w) for w in env]
        closure = Closure(code, entry, env)
        self.heap.allocate_closure(closure)
        self.write(dst, closure)

    def _op_envref(self, instruction: Instruction) -> None:
        dst, slot = instruction.operands
        if self.cp is None:
            raise MachineError("ENVREF with no environment")
        self.write(dst, self.cp[slot[1]])

    def _op_mkcell(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        cell = self.heap.allocate_cell(self._certify(self.read(src)))
        self.write(dst, cell)

    def _op_cellref(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        cell = self.read(src)
        if not isinstance(cell, Cell):
            raise MachineError(f"CELLREF: not a cell: {cell!r}")
        self.write(dst, cell.value)

    def _op_cellset(self, instruction: Instruction) -> None:
        cell_src, src = instruction.operands
        cell = self.read(cell_src)
        if not isinstance(cell, Cell):
            raise MachineError(f"CELLSET: not a cell: {cell!r}")
        cell.value = self._certify(self.read(src))

    # -- special variables ----------------------------------------------------------------

    def _op_specbind(self, instruction: Instruction) -> None:
        name_op, src = instruction.operands
        self.specials.push(name_op[1], self._certify(self.read(src)))

    def _op_specunbind(self, instruction: Instruction) -> None:
        (count,) = instruction.operands
        self.specials.pop_to(self.specials.depth() - count[1])

    def _op_speclookup(self, instruction: Instruction) -> None:
        dst, name_op = instruction.operands
        cell = self.specials.find_cell(name_op[1])
        if cell is None:
            from ..interp.environment import Cell as SpecialCell

            cell = SpecialCell(UNBOUND)
            self.specials.globals[name_op[1]] = cell
        self.write(dst, cell)

    def _op_specref(self, instruction: Instruction) -> None:
        dst, src = instruction.operands[0], instruction.operands[1]
        cell = self.read(src)
        if cell.value is UNBOUND:
            name = (instruction.operands[2][1]
                    if len(instruction.operands) > 2 else "?")
            raise UnboundVariableError(name)
        self.write(dst, cell.value)

    def _op_specset(self, instruction: Instruction) -> None:
        cell_src, src = instruction.operands
        cell = self.read(cell_src)
        cell.value = self._certify(self.read(src))

    def _op_specgref(self, instruction: Instruction) -> None:
        dst, name_op = instruction.operands
        value = self.specials.lookup(name_op[1])
        if value is UNBOUND:
            raise UnboundVariableError(name_op[1])
        self.write(dst, value)

    # -- catch / throw ---------------------------------------------------------------------

    def _op_catchpush(self, instruction: Instruction) -> None:
        label, tag_src = instruction.operands
        self.catch_stack.append(CatchRecord(
            tag=self.machine_to_lisp(self.read(tag_src)),
            stack_height=len(self.stack),
            fp=self.fp, tp=self.tp, cp=self.cp,
            code=self.code, target_pc=self.code.resolve_label(label[1]),
            specials_depth=self.specials.depth(),
            frame_serials=frozenset(self._live_serials),
        ))

    def _op_catchpop(self, instruction: Instruction) -> None:
        if not self.catch_stack:
            raise MachineError("CATCHPOP with empty catch stack")
        self.catch_stack.pop()

    def _do_throw(self, tag: Any, value: Any) -> None:
        while self.catch_stack:
            record = self.catch_stack.pop()
            if lisp_eql(record.tag, tag):
                del self.stack[record.stack_height:]
                self.fp = record.fp
                self.tp = record.tp
                self.cp = record.cp
                self.code = record.code
                self.pc = record.target_pc
                self.specials.pop_to(record.specials_depth)
                self._live_serials = set(record.frame_serials)
                self.stack.append(self.lisp_to_pointer(value))
                return
        raise UncaughtThrowError(tag)

    # -- vector hardware (Section 3) -------------------------------------------

    def _vector_operand(self, operand, opcode):
        from ..primitives import LispVector

        word = self.read(operand)
        if not isinstance(word, LispVector):
            raise WrongTypeError(f"{opcode}: not a vector: {word!r}")
        return word

    def _vector_cycles(self, length: int) -> None:
        # The hardware processes four elements per cycle (abstract model).
        self.cycles += max(1, length // 4)

    def _op_vdot(self, instruction: Instruction) -> None:
        dst, a_src, b_src = instruction.operands
        a = self._vector_operand(a_src, "VDOT")
        b = self._vector_operand(b_src, "VDOT")
        if len(a.data) != len(b.data):
            raise LispError("VDOT: length mismatch")
        self._vector_cycles(len(a.data))
        self.write(dst, float(sum(x * y for x, y in zip(a.data, b.data))))

    def _op_vsum(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        vector = self._vector_operand(src, "VSUM")
        self._vector_cycles(len(vector.data))
        self.write(dst, float(sum(vector.data)))

    def _op_vadd(self, instruction: Instruction) -> None:
        from ..primitives import LispVector

        dst, a_src, b_src = instruction.operands
        a = self._vector_operand(a_src, "VADD")
        b = self._vector_operand(b_src, "VADD")
        if len(a.data) != len(b.data):
            raise LispError("VADD: length mismatch")
        self._vector_cycles(len(a.data))
        result = LispVector([x + y for x, y in zip(a.data, b.data)])
        self.heap.adopt(result)
        self.write(dst, result)

    def _op_vscale(self, instruction: Instruction) -> None:
        from ..primitives import LispVector

        dst, k_src, v_src = instruction.operands
        factor = _need_raw(self.read(k_src), "VSCALE")
        vector = self._vector_operand(v_src, "VSCALE")
        self._vector_cycles(len(vector.data))
        result = LispVector([factor * x for x in vector.data])
        self.heap.adopt(result)
        self.write(dst, result)

    def _op_nop(self, instruction: Instruction) -> None:
        pass

    def _op_halt(self, instruction: Instruction) -> None:
        self._halted = True

    def gc_roots(self) -> List[Any]:
        """Everything the collector must treat as live: registers, the
        whole stack, the saved closure environments inside frame and
        catch records (a suspended caller's ``old_cp`` -- or a catch
        record's ``cp``, which a tail call may hold the *only* reference
        to -- must keep its cells alive), the current closure
        environment, special-binding cells, and catch tags.  The records
        themselves are opaque to the heap's mark loop, so their
        environment lists are expanded into roots here."""
        roots: List[Any] = list(self.regs) + list(self.stack)
        for entry in self.stack:
            if isinstance(entry, FrameRecord) and entry.old_cp is not None:
                roots.extend(entry.old_cp)
        if self.cp is not None:
            roots.extend(self.cp)
        roots.extend(cell.value for cell in self.specials.all_cells())
        for record in self.catch_stack:
            roots.append(record.tag)
            if record.cp is not None:
                roots.extend(record.cp)
        roots.append(self.result)
        return roots

    def collect_garbage(self, reason: str = "explicit") -> int:
        collected = self.heap.collect(self.gc_roots(), reason)
        if self.telemetry is not None:
            self.telemetry.note_gc(self.heap)
        return collected

    def _op_gc(self, instruction: Instruction) -> None:
        self.collect_garbage()

    # -- synchronization (Section 3: "synchronization instructions are
    # available to the user") ------------------------------------------------

    # processor_id and locks are plain attributes so a single machine works
    # standalone; MultiMachine shares one lock table among processors.
    processor_id: int = 0
    locks: Optional[Dict[Any, int]] = None

    def _lock_table(self) -> Dict[Any, int]:
        if self.locks is None:
            self.locks = {}
        return self.locks

    def _op_lock(self, instruction: Instruction) -> None:
        (src,) = instruction.operands
        key = self.machine_to_lisp(self.read(src))
        table = self._lock_table()
        owner = table.get(key)
        if owner is not None and owner != self.processor_id:
            # Held elsewhere: spin (retry this instruction next quantum).
            self.pc -= 1
            return
        table[key] = self.processor_id

    def _op_unlock(self, instruction: Instruction) -> None:
        (src,) = instruction.operands
        key = self.machine_to_lisp(self.read(src))
        table = self._lock_table()
        if table.get(key) != self.processor_id:
            raise MachineError(f"UNLOCK of lock not held: {key!r}")
        del table[key]


# -- slow paths: the _op_* handlers call these, and so does the native
# tier's generated code (through its namespace) wherever its inline type
# test fails, so the two tiers share one semantics.


def _need_raw(word: Any, opcode: str) -> Any:
    if is_raw_number(word):
        return word
    raise MachineError(
        f"{opcode}: operand is not a raw machine number: {word!r} "
        "(representation analysis bug?)")


def _raw_binary_checked(opcode: str, a: Any, b: Any) -> Any:
    return _raw_binary(opcode, _need_raw(a, opcode), _need_raw(b, opcode))


def _raw_unary_checked(opcode: str, value: Any) -> Any:
    return _raw_unary(opcode, _need_raw(value, opcode))


def _unbox(word: Any) -> Any:
    if isinstance(word, HeapNumber):
        return word.value
    if isinstance(word, PdlNumber):
        return word.deref()
    if is_raw_number(word) and isinstance(word, int):
        return word  # fixnums are immediate
    if isinstance(word, Fraction):
        return float(word)
    # The paper: dereferencing is "often preceded by a run-time data-type
    # check" -- a non-number here is the *user's* type error, not a
    # compiler bug.
    raise WrongTypeError(f"not a number: {pointer_to_lisp(word)!r}")


def _boxf(heap: Heap, word: Any) -> Any:
    word = _need_raw(word, "BOXF")
    if isinstance(word, int):
        return word  # immediates need no box
    return heap.allocate_number(word)


def _raw_binary(opcode: str, a: Any, b: Any) -> Any:
    try:
        if opcode in ("ADD", "FADD"):
            return a + b
        if opcode in ("SUB", "FSUB"):
            return a - b
        if opcode in ("MULT", "FMULT"):
            return a * b
        if opcode == "DIV":
            quotient = abs(a) // abs(b)
            return quotient if (a >= 0) == (b >= 0) else -quotient
        if opcode == "FDIV":
            return a / b
        if opcode == "MOD":
            return a - b * math.floor(a / b)
        if opcode == "REM":
            return a - b * math.trunc(a / b)
        if opcode == "FMAX":
            return max(a, b)
        if opcode == "FMIN":
            return min(a, b)
        if opcode == "FATAN":
            return math.atan2(a, b)
    except (ArithmeticError, TypeError, ValueError) as error:
        raise lisp_fault(opcode, error) from None
    raise MachineError(f"bad raw binary op {opcode}")  # pragma: no cover


def _raw_unary(opcode: str, value: Any) -> Any:
    try:
        if opcode in ("NEG", "FNEG"):
            return -value
        if opcode == "FSIN":  # argument in cycles, like the S-1 instruction
            return math.sin(value * 2.0 * math.pi)
        if opcode == "FCOS":
            return math.cos(value * 2.0 * math.pi)
        if opcode == "FSINR":
            return math.sin(value)
        if opcode == "FCOSR":
            return math.cos(value)
        if opcode == "FSQRT":
            if isinstance(value, complex) or value < 0:
                import cmath

                return cmath.sqrt(value)
            return math.sqrt(value)
        if opcode == "FABS":
            return abs(value)
        if opcode == "FEXP":
            return math.exp(value)
        if opcode == "FLOG":
            return math.log(value)
        if opcode == "FLT":
            return float(value)
        if opcode == "FIX":
            return math.trunc(value)
    except (ArithmeticError, TypeError, ValueError) as error:
        raise lisp_fault(opcode, error) from None
    raise MachineError(f"bad raw unary op {opcode}")  # pragma: no cover


_DISPATCH = {
    "MOV": Machine._op_mov,
    "UNBOX": Machine._op_unbox,
    "BOXF": Machine._op_boxf,
    "PDLBOX": Machine._op_pdlbox,
    "CERTIFY": Machine._op_certify,
    "JMP": Machine._op_jmp,
    "JUMPNIL": Machine._op_jumpnil,
    "JUMPNNIL": Machine._op_jumpnnil,
    "CMPBR": Machine._op_cmpbr,
    "EQLBR": Machine._op_eqlbr,
    "PUSH": Machine._op_push,
    "POP": Machine._op_pop,
    "ALLOCTEMPS": Machine._op_alloctemps,
    "ARGCHECK": Machine._op_argcheck,
    "ARGDISPATCH": Machine._op_argdispatch,
    "ARGEXPAND": Machine._op_argexpand,
    "RESTCOLLECT": Machine._op_restcollect,
    "CALL": Machine._op_call,
    "KCALL": Machine._op_kcall,
    "CALLF": Machine._op_callf,
    "TAILCALL": Machine._op_tailcall,
    "TAILCALLF": Machine._op_tailcallf,
    "APPLYF": Machine._op_applyf,
    "RET": Machine._op_ret,
    "GENERIC": Machine._op_generic,
    "GFUNC": Machine._op_gfunc,
    "CLOSURE": Machine._op_closure,
    "ENVREF": Machine._op_envref,
    "MKCELL": Machine._op_mkcell,
    "CELLREF": Machine._op_cellref,
    "CELLSET": Machine._op_cellset,
    "SPECBIND": Machine._op_specbind,
    "SPECUNBIND": Machine._op_specunbind,
    "SPECLOOKUP": Machine._op_speclookup,
    "SPECREF": Machine._op_specref,
    "SPECSET": Machine._op_specset,
    "SPECGREF": Machine._op_specgref,
    "CATCHPUSH": Machine._op_catchpush,
    "CATCHPOP": Machine._op_catchpop,
    "VDOT": Machine._op_vdot,
    "VSUM": Machine._op_vsum,
    "VADD": Machine._op_vadd,
    "VSCALE": Machine._op_vscale,
    "NOP": Machine._op_nop,
    "HALT": Machine._op_halt,
    "GC": Machine._op_gc,
    "LOCK": Machine._op_lock,
    "UNLOCK": Machine._op_unlock,
}

for _opcode in RAW_BINARY_OPS:
    _DISPATCH[_opcode] = Machine._op_raw_binary
for _opcode in RAW_UNARY_OPS:
    _DISPATCH[_opcode] = Machine._op_raw_unary

# CPython 3.11 specializes a function's bytecode only from its eighth call
# on, and a run spends its whole loop inside one _simulate call, so a
# process's first seven runs would step unspecialized (about 20% slower a
# run).  Eight calls on a halted machine run no instruction and leave the
# loop specialized for the first real run.
_idle = Machine(Program())
_idle._halted = True
for _ in range(8):
    _idle._simulate()
del _idle
