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
from ..datum.symbols import Symbol, sym
from ..errors import LispError, MachineError, WrongNumberOfArgumentsError
from ..interp.environment import DeepBindingStack
from ..primitives import Primitive, lookup_primitive
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


class MachineProfile:
    """Sampling-free exact execution profile.

    Attribution happens at instruction granularity in
    :meth:`Machine.step_instruction`: every executed instruction's full
    cycle cost -- the static table cost *plus* whatever the handler added
    dynamically (GENERIC primitive costs, vector length/4 costs) -- is
    charged to its opcode, its containing function, and (via the
    ``CodeObject.line_map`` the code generator emits) its source line.
    The paper's cycle model (Table 4 discussion) is thus measurable
    per-line, not just in aggregate.
    """

    def __init__(self) -> None:
        self.opcode_cycles: Counter = Counter()
        self.opcode_counts: Counter = Counter()
        self.function_cycles: Counter = Counter()
        self.function_instructions: Counter = Counter()
        #: (file, line) -> cycles / instruction counts.
        self.line_cycles: Counter = Counter()
        self.line_instructions: Counter = Counter()
        self.total_instructions = 0
        self.total_cycles = 0

    def attribute(self, code: CodeObject, index: int, opcode: str,
                  cycles: int) -> None:
        self.total_instructions += 1
        self.total_cycles += cycles
        self.opcode_counts[opcode] += 1
        self.opcode_cycles[opcode] += cycles
        self.function_instructions[code.name] += 1
        self.function_cycles[code.name] += cycles
        line = code.line_map.get(index)
        if line is not None:
            key = (code.source_file or "<input>", line)
            self.line_instructions[key] += 1
            self.line_cycles[key] += cycles

    def report(self, top: int = 20) -> str:
        """Human-readable tables: opcodes, functions, source lines."""
        if not self.total_instructions:
            return "(no instructions profiled)"
        lines = [f"Profile: {self.total_instructions} instructions, "
                 f"{self.total_cycles} cycles"]
        lines.append("Per-opcode cycles:")
        lines.append("   cycles    count  opcode")
        for opcode, cycles in self.opcode_cycles.most_common(top):
            lines.append(f"  {cycles:7d}  {self.opcode_counts[opcode]:7d}"
                         f"  {opcode}")
        lines.append("Per-function cycles:")
        lines.append("   cycles   instrs  function")
        for name, cycles in self.function_cycles.most_common(top):
            lines.append(f"  {cycles:7d}  {self.function_instructions[name]:7d}"
                         f"  {name}")
        if self.line_cycles:
            lines.append("Per-source-line cycles:")
            lines.append("   cycles   instrs  location")
            for key, cycles in self.line_cycles.most_common(top):
                file, line = key
                lines.append(f"  {cycles:7d}  {self.line_instructions[key]:7d}"
                             f"  {file}:{line}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "total_instructions": self.total_instructions,
            "total_cycles": self.total_cycles,
            "opcodes": {opcode: {"cycles": cycles,
                                 "count": self.opcode_counts[opcode]}
                        for opcode, cycles in self.opcode_cycles.items()},
            "functions": {name: {"cycles": cycles,
                                 "instructions":
                                     self.function_instructions[name]}
                          for name, cycles in self.function_cycles.items()},
            "lines": [{"file": file, "line": line, "cycles": cycles,
                       "instructions": self.line_instructions[(file, line)]}
                      for (file, line), cycles in sorted(
                          self.line_cycles.items())],
        }


class Machine:
    """One simulated processor plus its runtime state."""

    def __init__(self, program: Program, fuel: int = 50_000_000,
                 gc_threshold: Optional[int] = None,
                 cycle_costs: Optional[Dict[str, int]] = None,
                 tier: str = "simulate",
                 timing: str = "single",
                 pipeline: Optional[PipelineDescription] = None):
        if tier not in ("simulate", "native"):
            raise MachineError(
                f"unknown execution tier {tier!r} "
                "(choose 'simulate' or 'native')")
        if timing not in TIMINGS:
            raise MachineError(
                f"unknown timing model {timing!r} "
                f"(choose one of {', '.join(TIMINGS)})")
        self.program = program
        self.fuel = fuel
        #: Execution engine: "simulate" is the cycle-honest reference
        #: interpreter; "native" runs blocks translated to Python by
        #: repro.machine.native (same results, block-granular accounting).
        self.tier = tier
        #: Timing model: "single" charges the cycle table alone (the
        #: paper's model); "pipelined" additionally charges hazard stalls
        #: from the target's PipelineDescription.  Strictly non-semantic:
        #: only cycles and the stall counters differ.
        self.timing = timing
        # The pipeline tables travel with the machine even under
        # timing="single" so set_timing() can switch models later
        # (the REPL's :timing does).
        self._pipeline_spec = pipeline
        self._pipeline: Optional[PipelineDescription] = None
        if timing == "pipelined":
            self._pipeline = pipeline if pipeline is not None \
                else DEFAULT_PIPELINE
        # id(CodeObject) -> (code, TimingProfile) under the current
        # pipeline, object pinned (same discipline as _native_cache).
        self._timing_cache: Dict[int, Tuple[CodeObject, TimingProfile]] = {}
        # Pipelined-model bookkeeping: the (code, pc) the front end
        # expects next if the last instruction fell through sequentially;
        # anything else means the pipeline was flushed.
        self._pipe_code: Optional[CodeObject] = None
        self._pipe_pc = -1
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
        # specials depth) so a fatal trap can restore a usable machine;
        # _poisoned marks "this run died mid-flight".
        self._entry_state: Optional[Tuple] = None
        self._poisoned = False
        # Allocation watermark for the automatic-GC trigger: the check
        # runs only on instructions that actually allocated.
        self._gc_alloc_mark = 0
        # Native tier state: id(CodeObject) -> (code, NativeCode) to pin
        # identity, plus a per-run block-execution counter that stats()
        # lazily folds into opcode_counts.
        self._native_cache: Dict[int, Tuple[CodeObject, Any]] = {}
        self._native_last: Optional[Tuple[CodeObject, Any]] = None
        self._native_counts: Counter = Counter()
        # statistics
        self.instructions = 0
        self.cycles = 0
        self.opcode_counts: Counter = Counter()
        self.call_count = 0
        self.max_stack = 0
        #: Exact execution profile; None (the default) keeps the hot loop
        #: branch-cheap.  See enable_profiling().
        self.profile: Optional[MachineProfile] = None
        #: Execution telemetry (fast-path/fallback attribution, IC/GC/heap
        #: events); None by default for the same reason.  See
        #: enable_telemetry().
        self.telemetry: Optional[MachineTelemetry] = None

    # -- public API -----------------------------------------------------------

    def define_global(self, name: Symbol, value: Any) -> None:
        self.specials.set_global(name, self.lisp_to_pointer(value))

    def run(self, function: Symbol, args: Sequence[Any],
            fuel: Optional[int] = None) -> Any:
        """Call a compiled function with Lisp-datum arguments; returns a
        Lisp datum.  A *fuel* argument bounds this call only: the
        machine's configured budget is restored afterwards (it used to
        stick, silently retuning every later run and skewing
        MultiMachine's stall-budget snapshot)."""
        saved_fuel = self.fuel
        if fuel is not None:
            self.fuel = fuel
        code = self.program.get(function)
        self._entry_state = (len(self.stack), self.fp, self.tp, self.cp,
                             len(self.catch_stack), self.specials.depth())
        self._poisoned = False
        for arg in args:
            self.stack.append(self.lisp_to_pointer(arg))
        self._push_frame(None, 0, len(args))
        self.code = code
        self.pc = 0
        self._halted = False
        self._pipe_code = None  # the pipeline starts a run empty
        telemetry = self.telemetry
        span = None if telemetry is None \
            else telemetry.begin_run(str(function), self)
        try:
            self._execute()
        except Exception:
            # A trap mid-run leaves frames, catch records, and dynamic
            # bindings behind; restore the entry state so the machine stays
            # usable (the REPL reuses one machine across errors).
            self._abort_run()
            raise
        finally:
            self._flush_native_counts()
            self.fuel = saved_fuel
            if span is not None:
                telemetry.end_run(span, self)
        return self.machine_to_lisp(self.result)

    def _abort_run(self) -> None:
        """Restore the entry-state snapshot after a fatal trap and mark
        the machine halted + poisoned: whatever run was in flight is dead
        and must not be rescheduled (multi.py checks ``halted``)."""
        if self._entry_state is not None:
            height, fp, tp, cp, catches, spec_depth = self._entry_state
            del self.stack[height:]
            self.fp, self.tp, self.cp = fp, tp, cp
            del self.catch_stack[catches:]
            self.specials.pop_to(spec_depth)
        self._halted = True
        self._poisoned = True

    @property
    def poisoned(self) -> bool:
        """True when the last start()/run() died on a fatal error (the
        entry state was restored; the result is not meaningful)."""
        return self._poisoned

    def frame_alive(self, serial: int) -> bool:
        return serial in self._live_serials

    # -- profiling -----------------------------------------------------------

    def enable_profiling(self) -> MachineProfile:
        """Switch on exact per-instruction attribution (fresh profile)."""
        self.profile = MachineProfile()
        return self.profile

    def disable_profiling(self) -> Optional[MachineProfile]:
        """Stop profiling; returns the collected profile (if any)."""
        profile, self.profile = self.profile, None
        return profile

    def profile_report(self, top: int = 20) -> str:
        if self.profile is None:
            return "(profiling is not enabled)"
        return self.profile.report(top)

    def profile_data(self) -> Optional[Dict[str, Any]]:
        return None if self.profile is None else self.profile.to_json()

    # -- telemetry -----------------------------------------------------------

    def enable_telemetry(self) -> MachineTelemetry:
        """Switch on execution telemetry (fresh counters).  The native
        cache is dropped: translations made with telemetry on carry
        instrumented inline-cache and fallback sites, so the two modes
        never share generated code."""
        self._flush_native_counts()
        self.telemetry = MachineTelemetry(processor_id=self.processor_id)
        self._native_cache.clear()
        self._native_last = None
        return self.telemetry

    def disable_telemetry(self) -> Optional[MachineTelemetry]:
        """Stop telemetry; returns what was collected (if anything)."""
        telemetry, self.telemetry = self.telemetry, None
        if telemetry is not None:
            self._native_cache.clear()
            self._native_last = None
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
        native cache and the timing profiles: native translations bake
        the pipeline's stall charges into the generated blocks, so the
        two models never share generated code."""
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
        self._native_cache.clear()
        self._native_last = None
        self._pipe_code = None
        self._pipe_pc = -1

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
            record = self._current_record()
            return self.stack[self.fp - record.nargs + value]
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
            record = self._current_record()
            self.stack[self.fp - record.nargs + value] = word
        else:
            raise MachineError(f"cannot write operand {operand!r}")

    def _need_raw(self, word: Any, opcode: str) -> Any:
        if is_raw_number(word):
            return word
        raise MachineError(
            f"{opcode}: operand is not a raw machine number: {word!r} "
            "(representation analysis bug?)")

    # -- the execution loop -------------------------------------------------------------

    def _execute(self) -> None:
        if self.tier == "native":
            self._execute_native()
            return
        while not self._halted:
            self.step_instruction()

    def step_instruction(self) -> None:
        """Execute exactly one instruction (the multiprocessor scheduler
        interleaves processors at this granularity)."""
        if self.pc >= len(self.code.instructions):
            raise MachineError(
                f"fell off the end of {self.code.name} at pc={self.pc}")
        instruction = self.code.instructions[self.pc]
        profile = self.profile
        telemetry = self.telemetry
        if profile is not None or telemetry is not None:
            # Snapshot before the base cost: handlers add dynamic cycles
            # (GENERIC primitive costs, vector length costs) and the delta
            # across the whole step must include them.
            profiled_code = self.code
            profiled_index = self.pc
            cycles_before = self.cycles
            if telemetry is not None:
                # The stack walk must happen before the handler runs --
                # a RET pops the very frame records it reads.
                telemetry_stack = telemetry.stack_key(self)
        self.pc += 1
        self.instructions += 1
        if self.instructions > self.fuel:
            raise MachineError("instruction budget exhausted")
        self.opcode_counts[instruction.opcode] += 1
        self.cycles += self.cycle_costs.get(instruction.opcode, 1)
        handler = _DISPATCH.get(instruction.opcode)
        if handler is None:
            raise MachineError(f"bad opcode {instruction.opcode}")
        pipeline = self._pipeline
        if pipeline is None:
            handler(self, instruction)
            stall_delta = 0
        else:
            # Pipelined model: charge this instruction's structural stall,
            # its data-hazard stall if it issued back-to-back after its
            # static predecessor, and a front-end flush if its handler
            # transferred control (code changed or pc != index + 1).  The
            # native tier charges the same three categories -- statically
            # per block plus the identical transfer check at dynamic
            # sites -- so cycles agree exactly between tiers.
            code_before = self.code
            index = self.pc - 1
            timing_profile = self._timing_profile(code_before)
            structural = timing_profile.structural[index]
            data = timing_profile.pair[index] \
                if (self._pipe_code is code_before
                    and self._pipe_pc == index) else 0
            handler(self, instruction)
            if self.code is code_before and self.pc == index + 1:
                control = 0
                self._pipe_code = code_before
                self._pipe_pc = index + 1
            else:
                control = pipeline.flush_cycles
                self._pipe_code = None
            stall_delta = structural + data + control
            if stall_delta:
                self.cycles += stall_delta
                self.stall_data += data
                self.stall_control += control
                self.stall_structural += structural
        if profile is not None:
            profile.attribute(profiled_code, profiled_index,
                              instruction.opcode,
                              self.cycles - cycles_before)
        if telemetry is not None:
            # The simulate tier *is* the handler path: every base cycle is
            # by definition fallback (fast paths only exist natively);
            # hazard stalls are attributed to their own counters so
            # fast + fallback + stalls == cycles stays exact.
            telemetry.attribute_step(instruction.opcode,
                                     self.cycles - cycles_before
                                     - stall_delta,
                                     telemetry_stack)
            if stall_delta:
                telemetry.note_stalls(data, control, structural)
            telemetry.maybe_sample_heap(self.heap)
        if len(self.stack) > self.max_stack:
            self.max_stack = len(self.stack)
        if self.gc_threshold is not None:
            self._maybe_auto_collect()

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
        """The NativeCode for *code*, translating on first use.  Keyed by
        id() (CodeObjects are unhashable) with the object pinned in the
        value so a recycled id cannot alias a dead CodeObject."""
        cached = self._native_cache.get(id(code))
        if cached is None or cached[0] is not code:
            from .native import translate

            cached = (code, translate(code, self.cycle_costs,
                                      telemetry=self.telemetry is not None,
                                      pipeline=self._pipeline))
            self._native_cache[id(code)] = cached
        return cached[1]

    def step_block(self) -> None:
        """Execute one translated basic block (native tier's unit of
        progress: fuel, cycles, GC, and the stack high-water mark are
        all checked at block granularity)."""
        code = self.code
        last = self._native_last
        if last is not None and last[0] is code:
            native = last[1]
        else:
            native = self._native_code_for(code)
            self._native_last = (code, native)
        block = native.blocks.get(self.pc)
        if block is None:
            if self.pc >= len(code.instructions):
                raise MachineError(
                    f"fell off the end of {code.name} at pc={self.pc}")
            raise MachineError(  # pragma: no cover - translator invariant
                f"native tier: pc={self.pc} is not a block leader in "
                f"{code.name}")
        profile = self.profile
        telemetry = self.telemetry
        if profile is None and telemetry is None:
            block.run(self)
        else:
            if telemetry is not None:
                telemetry_stack = telemetry.stack_key(self)
                stalls_before = (self.stall_data, self.stall_control,
                                 self.stall_structural)
            cycles_before = self.cycles
            block.run(self)
            if profile is not None:
                # Block-granular attribution: each instruction gets its
                # static table cost; dynamic extras (GENERIC primitive
                # cycles) are charged to the block's last instruction.
                extra = self.cycles - cycles_before - block.cycles
                for index, opcode, cycles in block.attributions[:-1]:
                    profile.attribute(code, index, opcode, cycles)
                index, opcode, cycles = block.attributions[-1]
                profile.attribute(code, index, opcode, cycles + extra)
            if telemetry is not None:
                # Fast/fallback per-opcode splits are static per block;
                # dynamic extras were already reported per opcode by the
                # instrumented fallback sites inside block.run().  Stall
                # charges land in the machine counters as the generated
                # code runs; mirror this block's deltas into telemetry so
                # conservation (fast + fallback + stalls == cycles) holds.
                stall_data = self.stall_data - stalls_before[0]
                stall_control = self.stall_control - stalls_before[1]
                stall_structural = self.stall_structural - stalls_before[2]
                stall_delta = stall_data + stall_control + stall_structural
                if stall_delta:
                    telemetry.note_stalls(stall_data, stall_control,
                                          stall_structural)
                telemetry.attribute_block(block,
                                          self.cycles - cycles_before
                                          - stall_delta,
                                          telemetry_stack)
                telemetry.maybe_sample_heap(self.heap)
        self._native_counts[block] += 1
        if len(self.stack) > self.max_stack:
            self.max_stack = len(self.stack)
        if self.gc_threshold is not None:
            self._maybe_auto_collect()

    def _execute_native(self) -> None:
        if self.profile is not None or self.telemetry is not None:
            # Profiling wants per-instruction attribution and telemetry
            # wants per-block deltas: take the precise (slower) per-block
            # path.  The chained hot loop below stays instrumentation-free.
            step_block = self.step_block
            while not self._halted:
                step_block()
            self._flush_native_counts()
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
                    # Straight to the id-keyed cache: a call/return pair
                    # alternates between two CodeObjects, which defeats
                    # the single-entry _native_last used by step_block.
                    entry = cache.get(id(code))
                    if entry is not None and entry[0] is code:
                        native = entry[1]
                    else:
                        native = self._native_code_for(code)
                    block = native.blocks.get(self.pc)
                    if block is None:
                        if self.pc >= len(code.instructions):
                            raise MachineError(
                                f"fell off the end of {code.name} at "
                                f"pc={self.pc}")
                        raise MachineError(  # pragma: no cover - invariant
                            f"native tier: pc={self.pc} is not a block "
                            f"leader in {code.name}")
                nxt = block.run(self)
                counts[block] += 1
                size = len(stack)
                if size > max_stack:
                    max_stack = size
                if gc_on:
                    self._maybe_auto_collect()
                block = nxt
        finally:
            if max_stack > self.max_stack:
                self.max_stack = max_stack
            self._flush_native_counts()

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
        around).  run() keeps cumulating across calls -- the REPL's
        :stats is documented as session-cumulative."""
        code = self.program.get(function)
        self.instructions = 0
        self.cycles = 0
        self.opcode_counts = Counter()
        self.call_count = 0
        self.max_stack = 0
        self.stall_data = 0
        self.stall_control = 0
        self.stall_structural = 0
        self._pipe_code = None
        self._native_counts.clear()
        self._poisoned = False
        self._entry_state = (len(self.stack), self.fp, self.tp, self.cp,
                             len(self.catch_stack), self.specials.depth())
        for arg in args:
            self.stack.append(self.lisp_to_pointer(arg))
        self._push_frame(None, 0, len(args))
        self.code = code
        self.pc = 0
        self._halted = False

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
                for _ in range(quantum):
                    if self._halted:
                        break
                    self.step_instruction()
        except Exception:
            self._abort_run()
            raise
        if self._halted:
            self._flush_native_counts()
        return self._halted

    # -- instruction implementations -----------------------------------------------------

    def _op_mov(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        self.write(dst, self.read(src))

    def _op_unbox(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        word = self.read(src)
        if isinstance(word, HeapNumber):
            self.write(dst, word.value)
        elif isinstance(word, PdlNumber):
            self.write(dst, word.deref())
        elif is_raw_number(word) and isinstance(word, int):
            self.write(dst, word)  # fixnums are immediate
        elif isinstance(word, Fraction):
            self.write(dst, float(word))
        else:
            # The paper: dereferencing is "often preceded by a run-time
            # data-type check" -- a non-number here is the *user's* type
            # error, not a compiler bug.
            from ..errors import WrongTypeError

            raise WrongTypeError(
                f"not a number: {pointer_to_lisp(word)!r}")

    def _op_boxf(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        word = self._need_raw(self.read(src), "BOXF")
        if isinstance(word, int):
            self.write(dst, word)  # immediates need no box
        else:
            self.write(dst, self.heap.allocate_number(word))

    def _op_pdlbox(self, instruction: Instruction) -> None:
        dst, slot, src = instruction.operands
        word = self._need_raw(self.read(src), "PDLBOX")
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
        opcode = instruction.opcode
        dst, a_src, b_src = instruction.operands
        a = self._need_raw(self.read(a_src), opcode)
        b = self._need_raw(self.read(b_src), opcode)
        self.write(dst, _raw_binary(opcode, a, b))

    def _op_raw_unary(self, instruction: Instruction) -> None:
        opcode = instruction.opcode
        dst, src = instruction.operands
        value = self._need_raw(self.read(src), opcode)
        self.write(dst, _raw_unary(opcode, value))

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
        a = self._need_raw(self.read(a_src), "CMPBR")
        b = self._need_raw(self.read(b_src), "CMPBR")
        relation = rel[1] if isinstance(rel[1], str) else rel[1].name
        if self._RELATIONS[relation](a, b):
            self.pc = self.code.resolve_label(label[1])

    def _op_eqlbr(self, instruction: Instruction) -> None:
        from ..datum.numbers import lisp_eql

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
            if name is sym("throw") and nargs == 2:
                value = self.machine_to_lisp(self.stack.pop())
                tag = self.machine_to_lisp(self.stack.pop())
                self._do_throw(tag, value)
                return
            # Calling an undefined global that is a primitive: generic apply.
            primitive = lookup_primitive(name)
            if primitive is not None:
                self._apply_primitive_from_stack(primitive, nargs)
                return
            raise MachineError(f"undefined function {name}")
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
        raise MachineError(f"not a function: {fn!r}")

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
            raise MachineError(f"undefined function {target[1]}")
        code, entry = self._target_code(target)
        self._replace_frame(nargs)
        self.cp = None
        self.code = code
        self.pc = entry

    def _op_applyf(self, instruction: Instruction) -> None:
        """apply: the last pushed argument is a list to spread."""
        from ..datum import to_list

        fn_src, nargs_op = instruction.operands
        fn = self.read(fn_src)
        spread_list = self.machine_to_lisp(self.stack.pop())
        items = [self.lisp_to_pointer(v) for v in to_list(spread_list)]
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
        name_op, dst = instruction.operands[0], instruction.operands[1]
        srcs = instruction.operands[2:]
        name = name_op[1]
        if name is sym("throw"):
            words = [self._certify(self.read(src)) for src in srcs]
            args = [self.machine_to_lisp(w) for w in words]
            self._do_throw(args[0], args[1])
            return
        primitive = lookup_primitive(name)
        if primitive is None:
            raise MachineError(f"GENERIC: unknown primitive {name}")
        self.cycles += primitive.cycles
        words = [self.read(src) for src in srcs]
        if not primitive.safe:
            words = [self._certify(w) for w in words]
        args = [self.machine_to_lisp(w) for w in words]
        result = primitive.apply(args)
        if primitive.allocates:
            self.heap.adopt(result)
        self.write(dst, self.lisp_to_pointer(result))

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
        raise MachineError(f"GFUNC: undefined function {name}")

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
            raise LispError(f"unbound special variable {name}")
        self.write(dst, cell.value)

    def _op_specset(self, instruction: Instruction) -> None:
        cell_src, src = instruction.operands
        cell = self.read(cell_src)
        cell.value = self._certify(self.read(src))

    def _op_specgref(self, instruction: Instruction) -> None:
        dst, name_op = instruction.operands
        value = self.specials.lookup(name_op[1])
        if value is UNBOUND:
            raise LispError(f"unbound special variable {name_op[1]}")
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
        from ..datum.numbers import lisp_eql

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
        raise LispError(f"uncaught throw to tag {tag!r}")

    # -- vector hardware (Section 3) -------------------------------------------

    def _vector_operand(self, operand, opcode):
        from ..primitives import LispVector

        word = self.read(operand)
        if not isinstance(word, LispVector):
            raise MachineError(f"{opcode}: not a vector: {word!r}")
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
        factor = self._need_raw(self.read(k_src), "VSCALE")
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


def _raw_binary(opcode: str, a: Any, b: Any) -> Any:
    if opcode in ("ADD", "FADD"):
        return a + b
    if opcode in ("SUB", "FSUB"):
        return a - b
    if opcode in ("MULT", "FMULT"):
        return a * b
    if opcode == "DIV":
        if b == 0:
            raise LispError("integer division by zero")
        quotient = abs(a) // abs(b)
        return quotient if (a >= 0) == (b >= 0) else -quotient
    if opcode == "FDIV":
        if b == 0:
            raise LispError("float division by zero")
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
    raise MachineError(f"bad raw binary op {opcode}")  # pragma: no cover


def _raw_unary(opcode: str, value: Any) -> Any:
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
