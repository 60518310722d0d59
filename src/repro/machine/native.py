"""The native execution tier: CodeObjects translated to Python closures.

The cycle-honest simulator in :mod:`repro.machine.cpu` fetches, decodes,
and dispatches one :class:`~repro.machine.isa.Instruction` at a time.
That loop is the hot path of every benchmark, fuzz run, and daemon
request.  Following the Emacs native-comp playbook ("Bringing GNU Emacs
to Native Code"), this module adds a second tier that compiles each
:class:`~repro.machine.isa.CodeObject` into *generated Python*, one
function per basic block, direct-threaded:

* the instruction stream is split at **leaders** -- index 0, every label
  target, the index after every terminator (branches, calls, RET, HALT),
  and every LOCK (which re-dispatches itself to spin);
* each block becomes one Python function that runs its instructions
  straight-line with operand addressing resolved at translation time
  (``regs[3]``, ``stack[_tp + 2]``, inline constants), always assigns
  ``m.pc``/``m.code`` on exit, and *returns* the successor
  :class:`NativeBlock` when the edge is static (branch targets and
  fall-throughs within the same CodeObject) so the dispatch loop can
  chain block-to-block without a lookup;
* hot opcodes (moves, raw arithmetic, branches, UNBOX/BOXF/PDLBOX, RET,
  known calls, GENERIC with a resolved primitive) are emitted inline;
  everything else falls back to the simulator's own ``_DISPATCH``
  handlers, so the two tiers share one runtime (heap, frames, catch
  stack, specials, locks).

Accounting is hoisted to block entry (see DESIGN.md): the prologue
checks fuel and then charges the block's instruction count and static
cycle cost, and opcode counts are materialized per executed block.
Every count (``instructions``, ``cycles``, stalls, ``opcode_counts``)
agrees exactly with the simulator, for runs that complete and for runs
that trap alike: a block that would cross the fuel limit runs on the
simulator's one stepping loop (``Machine._simulate``) instead
(:class:`OutOfFuel`), and a block that raises takes back what its
prologue charged for the instructions after the one that raised
(:meth:`NativeBlock.take_back`).
Only where GC triggers and the stack high-water mark is sampled stay
block-granular.

A function is translated once per translation key (cost-table contents,
instrumented or plain, pipeline): :func:`translate` stores each
translation on its CodeObject, and every machine that runs the function
under that key runs the same generated code.  Generated code holds no
machine: it reads everything per run through its ``m`` argument.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..datum import NIL, T
from ..datum.numbers import lisp_eql
from ..datum.symbols import sym
from ..errors import MachineError
from ..primitives import lookup_primitive
from .cpu import (
    _DISPATCH,
    FrameRecord,
    _boxf,
    _need_raw,
    _raw_binary,
    _raw_binary_checked,
    _raw_unary,
    _raw_unary_checked,
    _unbox,
)
from .isa import (
    CYCLES,
    CodeObject,
    Instruction,
    RAW_BINARY_OPS,
    RAW_UNARY_OPS,
)
from .timing import PipelineDescription, analyze as analyze_timing
from .values import HeapNumber, PdlNumber, pointer_to_lisp

#: Opcodes that end a basic block because control may leave it.
_BRANCHES = {"JMP", "JUMPNIL", "JUMPNNIL", "CMPBR", "EQLBR", "ARGDISPATCH"}
_CALLS = {"CALL", "KCALL", "CALLF", "TAILCALL", "TAILCALLF", "APPLYF"}
_TERMINATORS = _BRANCHES | _CALLS | {"RET", "HALT", "LOCK"}

_PY_RELATION = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=",
                "eq": "==", "ne": "!="}

_INLINE_BINARY = {
    "ADD": "_x + _y", "FADD": "_x + _y",
    "SUB": "_x - _y", "FSUB": "_x - _y",
    "MULT": "_x * _y", "FMULT": "_x * _y",
    "FMAX": "max(_x, _y)", "FMIN": "min(_x, _y)",
}

_INLINE_UNARY = {
    "NEG": "-_x", "FNEG": "-_x", "FABS": "abs(_x)", "FLT": "float(_x)",
}

#: Host exceptions an inline raw expression can raise (an integer beyond
#: the float range, the absolute value of a huge complex, the maximum of
#: a complex).  Generated code catches them and re-runs the instruction
#: on the simulator's slow path, which raises the Lisp error; the ``try``
#: costs nothing until something is raised.
_HOST_FAULTS = (ArithmeticError, ValueError, TypeError)

#: Two-argument generic primitives whose behaviour on a pair of raw
#: int/float operands is exactly the Python operator (coerce_pair is the
#: identity there and normalize_number only touches Fractions), letting
#: generated code skip the full chain/fold implementation on the hot path.
_GENERIC_FAST2_ARITH = {"+": "+", "-": "-", "*": "*"}
_GENERIC_FAST2_CMP = {"=": "==", "<": "<", ">": ">", "<=": "<=", ">=": ">="}

#: One-argument generics with the same property: ``1+``/``1-`` on a raw
#: int/float are exactly the Python expression (generic_add with an int
#: literal coerces nothing and normalizes nothing on those types).
_GENERIC_FAST1 = {"1+": "_a0 + 1", "1-": "_a0 - 1"}


class OutOfFuel(Exception):
    """Raised by a block prologue whose instructions would cross the fuel
    limit, before the block charges or runs anything; the machine then
    steps the block on the simulator until fuel runs out exactly where
    it runs out there (``Machine._native_trap``)."""


def _is_terminator(instruction: Instruction) -> bool:
    opcode = instruction.opcode
    if opcode in _TERMINATORS:
        return True
    # GENERIC throw unwinds to a catch record: control leaves the block.
    return (opcode == "GENERIC" and instruction.operands
            and instruction.operands[0][1] is sym("throw"))


# ---------------------------------------------------------------------------
# translation


class NativeBlock:
    """One translated basic block plus its static accounting.

    ``run(machine)`` executes the block and returns the successor
    NativeBlock when control transfers along a static intra-code edge,
    or ``None`` when the dispatch loop must resolve ``m.code``/``m.pc``
    itself (calls to other CodeObjects, returns, halts, fallbacks)."""

    __slots__ = ("run", "start", "count", "cycles", "opcodes", "observed")

    def __init__(self, run: Callable[[Any], Optional["NativeBlock"]],
                 start: int, count: int,
                 cycles: int, opcodes: Dict[str, int],
                 observed: Optional[Tuple[Tuple[int, int, bool], ...]]):
        self.run = run
        self.start = start          # leader pc
        self.count = count          # instructions in the block
        self.cycles = cycles        # static cycle cost of the block
        self.opcodes = opcodes      # opcode -> count within the block
        #: Instrumented translations only (None in plain ones): the
        #: observer's static record, (index, table cost, fallback) per
        #: instruction, where fallback means the instruction's main
        #: emission calls its simulator handler (guarded inline slow
        #: helpers count as fast path).
        self.observed = observed

    def take_back(self, m: Any, traceback: Any) -> None:
        """This block raised on machine *m*: take back what its prologue
        charged for the instructions after the one that raised (their
        count, table cycles, structural stalls and in-block data stalls)
        and count the opcodes up to it, so every counter reads as the
        simulator's.  The instruction is found from the line the block's
        frame on *traceback* stopped at, through the line table in the
        translation's namespace (the frame's globals).  No frame of this
        block on *traceback* means it raised before or after the block
        ran: nothing to take back."""
        code = self.run.__code__
        while traceback is not None and traceback.tb_frame.f_code is not code:
            traceback = traceback.tb_next
        if traceback is None:
            return
        namespace = traceback.tb_frame.f_globals
        index = namespace["_lines"][traceback.tb_lineno]
        charges = namespace["_charges"]
        cycles = data = structural = 0
        for _, cost, pair, held in charges[index + 1:self.start + self.count]:
            cycles += cost
            data += pair
            structural += held
        m.instructions -= self.start + self.count - 1 - index
        m.cycles -= cycles + data + structural
        m.stall_data -= data
        m.stall_structural -= structural
        opcode_counts = m.opcode_counts
        for opcode, _, _, _ in charges[self.start:index + 1]:
            opcode_counts[opcode] += 1
        if m.telemetry is not None:
            m.telemetry.note_trap(self, index + 1 - self.start,
                                  data, structural)


class NativeCode:
    """A CodeObject's translation: block functions keyed by leader pc.
    It keeps no reference to its CodeObject, which holds it (see
    :func:`translate`)."""

    __slots__ = ("blocks", "source")

    def __init__(self, blocks: Dict[int, NativeBlock], source: str):
        self.blocks = blocks
        self.source = source        # generated Python, for debugging

    @property
    def block_starts(self) -> List[int]:
        return sorted(self.blocks)


def _is_raw(var: str) -> str:
    return (f"(type({var}) is int or type({var}) is float"
            f" or type({var}) is complex)")


def _imm_raw(operand) -> bool:
    """Operand is an immediate whose raw-number-ness is decided now."""
    kind, value = operand
    return kind == "imm" and (type(value) is int or type(value) is float)


class _Translator:
    def __init__(self, code: CodeObject,
                 cycle_costs: Optional[Dict[str, int]] = None,
                 telemetry: bool = False,
                 pipeline: Optional[PipelineDescription] = None):
        self.code = code
        self.costs = CYCLES if cycle_costs is None else cycle_costs
        #: Telemetry mode: each block carries the observer's static
        #: record, fallback sites and resolved GENERICs book their dynamic
        #: cycle extras, and inline-cache probes bump hit/miss counters.
        #: Off (the default) generates exactly the uninstrumented code.
        self.telemetry = telemetry
        #: Pipelined timing model (timing="pipelined"): the block's static
        #: data/structural stalls are folded into its prologue charge and
        #: the simulator's control-hazard transfer rule -- flush iff
        #: ``code is not code_before or pc != index + 1`` -- is emitted at
        #: every transfer site, statically resolved where the target is
        #: known at translation time.  None generates exactly the
        #: single-cycle-table code.
        self.pipeline = pipeline
        self._tprof = None if pipeline is None \
            else analyze_timing(code, pipeline)
        self.ns: Dict[str, Any] = {
            "MachineError": MachineError,
            "NIL": NIL,
            "T": T,
            "FrameRecord": FrameRecord,
            "PdlNumber": PdlNumber,
            "HeapNumber": HeapNumber,
            "_eql": lisp_eql,
            "_ptl": pointer_to_lisp,
            # The simulator's own slow paths (cpu.py), called wherever
            # an inline type test fails.
            "_need_raw": _need_raw,
            "_rawbin": _raw_binary,
            "_rawun": _raw_unary,
            "_rawbin_checked": _raw_binary_checked,
            "_rawun_checked": _raw_unary_checked,
            "_unbox": _unbox,
            "_boxf": _boxf,
            "_HOST_FAULTS": _HOST_FAULTS,
            "_OutOfFuel": OutOfFuel,
        }
        self._kcount = 0
        self._size = len(code.instructions)
        # Per-instruction hoist lines (prepended by emit) and per-block
        # validity of the ``_tp`` / ``_fb`` base-address aliases.
        self._hoists: List[str] = []
        self._tp_ok = False
        self._fb_ok = False
        self._tel_ok = False
        # Filled during emission for the observer's record: instruction
        # indices whose main emission is a simulator handler call.
        self._fallback_main: set = set()

    # -- namespace helpers --------------------------------------------------

    def konst(self, value: Any) -> str:
        name = f"K{self._kcount}"
        self._kcount += 1
        self.ns[name] = value
        return name

    # -- operand addressing --------------------------------------------------

    def _temp_ref(self, offset: int) -> str:
        # ``m.tp`` is loop-invariant within a block (only ALLOCTEMPS and
        # fallback handlers move it, and both re-establish the alias), so
        # hoist it once per block on first use.
        if not self._tp_ok:
            self._hoists.append("_tp = m.tp")
            self._tp_ok = True
        return f"stack[_tp + {offset}]"

    def _frame_ref(self, offset: int) -> str:
        if not self._fb_ok:
            self._hoists.append("_fb = m.fp - stack[m.fp].nargs")
            self._fb_ok = True
        return f"stack[_fb + {offset}]"

    def read(self, operand) -> Optional[str]:
        kind, value = operand
        if kind == "reg":
            return f"regs[{value}]"
        if kind == "temp":
            return self._temp_ref(value)
        if kind == "frame":
            return self._frame_ref(value)
        if kind == "imm":
            if type(value) is int or type(value) is float:
                return repr(value)
            return self.konst(value)
        if kind == "env":
            return f"m.cp[{value}]"
        return None

    def write(self, operand, expr: str) -> Optional[str]:
        kind, value = operand
        if kind == "reg":
            return f"regs[{value}] = {expr}"
        if kind == "temp":
            return f"{self._temp_ref(value)} = {expr}"
        if kind == "frame":
            return f"{self._frame_ref(value)} = {expr}"
        return None

    def _goto(self, target: int, index: Optional[int] = None,
              taken: bool = True) -> List[str]:
        """Set pc and transfer to *target*: statically chained when a block
        starts there (every in-range static target is a leader), else a
        plain return for the dispatch loop to resolve.

        Under the pipelined model, *index* identifies the transferring
        instruction and the stall charge is resolved statically: a taken
        edge flushes the front end unless it lands on ``index + 1`` (the
        simulator's sequential-issue test), and a fall-through edge into
        the next block charges that boundary's data-hazard pair stall
        (zero across any instruction that could also have jumped, since
        those write no operand location)."""
        stall: List[str] = []
        pipeline = self.pipeline
        if pipeline is not None and index is not None:
            if taken:
                if target != index + 1 and pipeline.flush_cycles:
                    flush = pipeline.flush_cycles
                    stall = [f"m.cycles += {flush}",
                             f"m.stall_control += {flush}"]
            else:
                pair = self._tprof.pair[target] \
                    if target < self._size else 0
                if pair:
                    stall = [f"m.cycles += {pair}",
                             f"m.stall_data += {pair}"]
        if target < self._size:
            return stall + [f"m.pc = {target}", f"return B{target}"]
        return stall + [f"m.pc = {target}", "return"]

    def _flush_charge(self) -> List[str]:
        """Unconditional front-end flush (a transfer that is certain:
        calls into another CodeObject)."""
        if self.pipeline is None or not self.pipeline.flush_cycles:
            return []
        flush = self.pipeline.flush_cycles
        return [f"m.cycles += {flush}", f"m.stall_control += {flush}"]

    def _flush_check(self, index: int) -> List[str]:
        """The simulator's dynamic transfer test, emitted verbatim for
        sites whose successor is only known at run time (handler
        fallbacks, returns): flush unless execution continues at
        ``index + 1`` of this same CodeObject.  The instruction's lines
        first save ``m.code`` (still this CodeObject there, the
        simulator's ``code_before``) as ``_cb``; naming the CodeObject in
        the namespace instead would tie it to its own translation."""
        if self.pipeline is None or not self.pipeline.flush_cycles:
            return []
        flush = self.pipeline.flush_cycles
        self._hoists.append("_cb = m.code")
        return [f"if m.code is not _cb or m.pc != {index + 1}:",
                f"    m.cycles += {flush}",
                f"    m.stall_control += {flush}"]

    def _push_frame_lines(self, ret_pc: int, nargs: int) -> List[str]:
        """Machine._push_frame, unrolled into the generated caller.  The
        frame is stamped with the caller's continuation block (ret_pc is
        a leader: every call is a terminator) so generated RET can hand
        control straight back without a dispatch-loop lookup."""
        ret_block = (f"B{ret_pc}" if ret_pc < self._size else "None")
        return ["_sn = m._serial + 1",
                "m._serial = _sn",
                f"_rec = FrameRecord(m.code, {ret_pc}, m.fp, m.tp, m.cp,"
                f" {nargs}, _sn, {ret_block})",
                "m._live_serials.add(_sn)",
                "stack.append(_rec)",
                "_fp = len(stack) - 1",
                "m.fp = _fp",
                "m.tp = _fp + 1",
                f"regs[5] = {nargs}",
                "m.call_count += 1"]

    def _tel_ref(self) -> str:
        if not self._tel_ok:
            self._hoists.append("_tel = m.telemetry")
            self._tel_ok = True
        return "_tel"

    def _fallback_call(self, instruction: Instruction, index: int) -> str:
        handler = _DISPATCH.get(instruction.opcode)
        if handler is None:
            # Match the simulator: the trap fires when (and only when) the
            # bad instruction is actually executed.
            return f"raise MachineError('bad opcode {instruction.opcode}')"
        hname, iname = f"_h{index}", f"_i{index}"
        if self.telemetry:
            # Wrap the handler to book its dynamic cycle extras (GENERIC
            # primitive costs, vector length costs) on this instruction,
            # also when it traps: conservation then holds exactly.
            def instrumented(m, _h=handler, _i=instruction, _k=index):
                before = m.cycles
                try:
                    _h(m, _i)
                finally:
                    m.telemetry.note_extra(_k, m.cycles - before)

            self.ns[hname] = instrumented
            return f"{hname}(m)"
        self.ns[hname] = handler
        self.ns[iname] = instruction
        return f"{hname}(m, {iname})"

    # -- leaders ------------------------------------------------------------

    def leaders(self) -> List[int]:
        instructions = self.code.instructions
        n = len(instructions)
        leaders = {0}
        for index in self.code.labels.values():
            leaders.add(index)
        for index, instruction in enumerate(instructions):
            if _is_terminator(instruction):
                leaders.add(index + 1)
            if instruction.opcode == "LOCK":
                # LOCK spins by re-dispatching itself: it must be
                # addressable as a block of its own.
                leaders.add(index)
        return sorted(index for index in leaders if index < n)

    # -- per-instruction emission -------------------------------------------

    def emit(self, index: int) -> List[str]:
        """Source lines for instruction *index* (relative indent 0),
        including any base-address hoists its operands require."""
        self._hoists = []
        lines = self._emit(index)
        if self._hoists:
            lines = self._hoists + lines
        return lines

    def _emit(self, index: int) -> List[str]:
        instruction = self.code.instructions[index]
        op = instruction.opcode
        ops = instruction.operands
        konst = self.konst
        read = self.read
        write_or_none = self.write

        def fallback():
            # A full handler may move tp (ARGEXPAND, RESTCOLLECT) or edit
            # the frame record, so the hoisted aliases die here.
            self._tp_ok = False
            self._fb_ok = False
            self._fallback_main.add(index)
            return [self._fallback_call(instruction, index)]

        if op == "MOV":
            src = read(ops[1])
            stmt = src and write_or_none(ops[0], src)
            return [stmt] if stmt else fallback()

        if op == "PUSH":
            src = read(ops[0])
            return [f"stack.append({src})"] if src else fallback()

        if op == "POP":
            stmt = write_or_none(ops[0], "stack.pop()")
            return [stmt] if stmt else fallback()

        if op == "ALLOCTEMPS":
            count = ops[0][1]
            lines = ["m.tp = _tp = len(stack)"]
            self._tp_ok = True
            if count:
                lines.append(f"stack.extend({konst((NIL,) * count)})")
            return lines

        if op == "NOP":
            return []

        if op == "HALT":
            return ["m._halted = True", "return"]

        if op == "JMP":
            return self._goto(self.code.resolve_label(ops[0][1]),
                              index=index)

        if op in ("JUMPNIL", "JUMPNNIL"):
            src = read(ops[0])
            if src is None:
                return self._terminator_fallback(instruction, index)
            target = self.code.resolve_label(ops[1][1])
            test = "is" if op == "JUMPNIL" else "is not"
            return ([f"_x = {src}",
                     "if type(_x) is PdlNumber:",
                     "    _x = _x.deref()",
                     f"if _x {test} NIL:"]
                    + ["    " + line
                       for line in self._goto(target, index=index)]
                    + self._goto(index + 1, index=index, taken=False))

        if op == "CMPBR":
            rel = ops[0][1]
            relation = rel if isinstance(rel, str) else rel.name
            pyop = _PY_RELATION.get(relation)
            a, b = read(ops[1]), read(ops[2])
            if pyop is None or a is None or b is None:
                return self._terminator_fallback(instruction, index)
            target = self.code.resolve_label(ops[3][1])
            lines = [f"_x = {a}", f"_y = {b}"]
            if not _imm_raw(ops[1]):
                lines += [f"if not {_is_raw('_x')}:",
                          "    _need_raw(_x, 'CMPBR')"]
            if not _imm_raw(ops[2]):
                lines += [f"if not {_is_raw('_y')}:",
                          "    _need_raw(_y, 'CMPBR')"]
            return (lines
                    + [f"if _x {pyop} _y:"]
                    + ["    " + line
                       for line in self._goto(target, index=index)]
                    + self._goto(index + 1, index=index, taken=False))

        if op == "EQLBR":
            a, b = read(ops[0]), read(ops[1])
            if a is None or b is None:
                return self._terminator_fallback(instruction, index)
            target = self.code.resolve_label(ops[2][1])
            return ([f"if _eql(_ptl({a}), _ptl({b})):"]
                    + ["    " + line
                       for line in self._goto(target, index=index)]
                    + self._goto(index + 1, index=index, taken=False))

        if op == "UNBOX":
            src = read(ops[1])
            w = src and write_or_none(ops[0], "_x.value")
            if not w:
                return fallback()
            if ops[1][0] == "imm" and type(ops[1][1]) is int:
                return [write_or_none(ops[0], repr(ops[1][1]))]
            return [f"_x = {src}",
                    "_t = type(_x)",
                    "if _t is HeapNumber:",
                    f"    {write_or_none(ops[0], '_x.value')}",
                    "elif _t is PdlNumber and _x.machine is m "
                    "and _x.frame_serial in m._live_serials:",
                    f"    {write_or_none(ops[0], 'stack[_x.address]')}",
                    "elif _t is int:",
                    f"    {write_or_none(ops[0], '_x')}",
                    "else:",
                    f"    {write_or_none(ops[0], '_unbox(_x)')}"]

        if op == "BOXF":
            src = read(ops[1])
            if not (src and write_or_none(ops[0], "_x")):
                return fallback()
            if _imm_raw(ops[1]):
                value = ops[1][1]
                boxed = (repr(value) if type(value) is int
                         else f"m.heap.allocate_number({value!r})")
                return [write_or_none(ops[0], boxed)]
            return [f"_x = {src}",
                    "_t = type(_x)",
                    "if _t is int:",
                    f"    {write_or_none(ops[0], '_x')}",
                    "elif _t is float or _t is complex:",
                    f"    {write_or_none(ops[0], 'm.heap.allocate_number(_x)')}",
                    "else:",
                    f"    {write_or_none(ops[0], '_boxf(m.heap, _x)')}"]

        if op == "PDLBOX":
            src = read(ops[2])
            slot = ops[1]
            if not (src and slot[0] == "temp"
                    and write_or_none(ops[0], "_x")):
                return fallback()
            offset = slot[1]
            slot_ref = self._temp_ref(offset)
            pdl = f"PdlNumber(m, stack[m.fp].serial, _tp + {offset})"
            return [f"_x = {src}",
                    "_t = type(_x)",
                    "if _t is int:",
                    f"    {write_or_none(ops[0], '_x')}",
                    "elif _t is float or _t is complex:",
                    f"    {slot_ref} = _x",
                    f"    {write_or_none(ops[0], pdl)}",
                    "else:",
                    f"    {self._fallback_call(instruction, index)}"]

        if op == "CERTIFY":
            src = read(ops[1])
            stmt = src and write_or_none(ops[0], "_x")
            if not stmt:
                return fallback()
            return [f"_x = {src}",
                    "if type(_x) is PdlNumber:",
                    "    _x = m._certify(_x)",
                    stmt]

        if op in RAW_BINARY_OPS:
            a, b = read(ops[1]), read(ops[2])
            if not (a and b and write_or_none(ops[0], "_x")):
                return fallback()
            slow = write_or_none(ops[0], f"_rawbin_checked({op!r}, _x, _y)")
            fast = self._raw_fast(ops[0], _INLINE_BINARY.get(op),
                                  f"_rawbin({op!r}, _x, _y)", slow)
            # Immediates are known raw at translation time, so only the
            # operands whose type is decided at run time get checked.
            checks = []
            if not _imm_raw(ops[1]):
                checks.append(_is_raw("_x"))
            if not _imm_raw(ops[2]):
                checks.append(_is_raw("_y"))
            lines = [f"_x = {a}", f"_y = {b}"]
            if not checks:
                return lines + fast
            return (lines + [f"if {' and '.join(checks)}:"]
                    + ["    " + line for line in fast]
                    + ["else:", f"    {slow}"])

        if op in RAW_UNARY_OPS:
            src = read(ops[1])
            if not (src and write_or_none(ops[0], "_x")):
                return fallback()
            slow = write_or_none(ops[0], f"_rawun_checked({op!r}, _x)")
            fast = self._raw_fast(ops[0], _INLINE_UNARY.get(op),
                                  f"_rawun({op!r}, _x)", slow)
            if _imm_raw(ops[1]):
                return [f"_x = {src}"] + fast
            return ([f"_x = {src}", f"if {_is_raw('_x')}:"]
                    + ["    " + line for line in fast]
                    + ["else:", f"    {slow}"])

        if op == "ARGEXPAND":
            # Mirrors Machine._op_argexpand: slide the frame record up to
            # make room for the missing optional-parameter slots.  Moves
            # fp/tp, so any hoisted base addresses die here.
            total = ops[0][1]
            self._tp_ok = False
            self._fb_ok = False
            return ["_rec = stack[m.fp]",
                    f"_missing = {total} - _rec.nargs",
                    "if _missing > 0:",
                    "    _base = m.fp - _rec.nargs",
                    "    _args = stack[_base:m.fp]",
                    "    del stack[_base:m.fp + 1]",
                    "    stack.extend(_args)",
                    f"    stack.extend([NIL] * _missing)",
                    f"    _rec.nargs = {total}",
                    "    stack.append(_rec)",
                    "    _fp = len(stack) - 1",
                    "    m.fp = _fp",
                    "    m.tp = _fp + 1"]

        if op == "ARGCHECK":
            low, high = ops[0][1], ops[1][1]
            condition = f"_n < {low}"
            if high is not None:
                condition += f" or _n > {high}"
            return ["_n = regs[5]",
                    f"if {condition}:",
                    f"    {self._fallback_call(instruction, index)}"]

        if op == "ARGDISPATCH":
            lines = ["_n = regs[5]"]
            for count, label in ops[0][1]:
                target = self.code.resolve_label(label)
                if count is None:
                    lines += self._goto(target, index=index)
                    return lines
                lines += ([f"if _n == {count}:"]
                          + ["    " + line
                             for line in self._goto(target, index=index)])
            # No arm matched: the handler raises the arity error.
            lines += [self._fallback_call(instruction, index), "return"]
            return lines

        if op in ("CALL", "KCALL"):
            target, nargs = ops[0], ops[1][1]
            push = self._push_frame_lines(index + 1, nargs)
            if target[0] == "global":
                kname = konst(target[1])
                # Per-call-site inline cache, one cell holding the pair
                # (callee code, entry block): monomorphic call sites skip
                # the dispatch loop's lookup.  ns (and thus the cell) is
                # per translation, so every machine running this
                # translation shares the cell; the entry block comes from
                # a translation under the same key, and each call checks
                # the cell by identity against m.program, so a redefined
                # function or another program's callee misses and
                # re-resolves.  The pair is replaced in one store, so a
                # machine on another thread never reads half an update.
                cell = f"_cs{index}"
                self.ns[cell] = [(None, None)]
                if self.telemetry:
                    tel = self._tel_ref()
                    site = konst(f"{self.code.name}:{index}->{target[1]}")
                    probe_hit = [f"    {tel}.ic_hit({site})"]
                    probe_miss = [f"{tel}.ic_miss({site},"
                                  f" _e[0] is not None)"]
                else:
                    probe_hit = probe_miss = []
                return ([f"_c = m.program.functions.get({kname})",
                         "if _c is None:",
                         f"    m.pc = {index + 1}",
                         f"    {self._fallback_call(instruction, index)}"]
                        + ["    " + line
                           for line in self._flush_check(index)]
                        + ["    return"]
                        + push
                        # Entering another CodeObject always transfers:
                        # charge the flush once, IC hit and miss alike.
                        + self._flush_charge()
                        + ["m.code = _c",
                           "m.pc = 0",
                           f"_e = {cell}[0]",
                           "if _c is _e[0]:"]
                        + probe_hit
                        + ["    return _e[1]"]
                        + probe_miss
                        + ["_b = m._native_code_for(_c).blocks.get(0)",
                           f"{cell}[0] = (_c, _b)",
                           "return _b"])
            if target[0] == "label":
                entry = self.code.resolve_label(target[1])
                return push + self._goto(entry, index=index)
            return self._terminator_fallback(instruction, index)

        if op == "TAILCALL":
            target, nargs = ops[0], ops[1][1]
            high_water = ["_s = len(stack)",
                          "if _s > m.max_stack:",
                          "    m.max_stack = _s"]
            if target[0] == "global":
                kname = konst(target[1])
                return ([f"_c = m.program.functions.get({kname})",
                         "if _c is None:",
                         f"    m.pc = {index + 1}",
                         f"    {self._fallback_call(instruction, index)}"]
                        + ["    " + line
                           for line in self._flush_check(index)]
                        + ["    return"]
                        + high_water
                        + [f"m._replace_frame({nargs})",
                           "m.cp = None"]
                        + self._flush_charge()
                        + ["m.code = _c",
                           "m.pc = 0",
                           "return"])
            if target[0] == "label":
                entry = self.code.resolve_label(target[1])
                return (high_water
                        + [f"m._replace_frame({nargs})",
                           "m.cp = None"]
                        + self._goto(entry, index=index))
            return self._terminator_fallback(instruction, index)

        if op == "RET":
            src = read(ops[0])
            if src is None:
                return self._terminator_fallback(instruction, index)
            return [f"_v = {src}",
                    "if type(_v) is PdlNumber:",
                    "    _v = m._certify(_v)",
                    "_s = len(stack)",
                    "if _s > m.max_stack:",
                    "    m.max_stack = _s",
                    "_rec = stack[m.fp]",
                    "m._live_serials.discard(_rec.serial)",
                    "del stack[m.fp - _rec.nargs:]",
                    "m.fp = _rec.old_fp",
                    "m.tp = _rec.old_tp",
                    "m.cp = _rec.old_cp",
                    "_c = _rec.ret_code",
                    "if _c is None:",
                    "    m.result = _v",
                    "    m._halted = True",
                    "    return",
                    "m.code = _c",
                    "m.pc = _rec.ret_pc"] \
                + self._flush_check(index) \
                + ["stack.append(_v)",
                   # ret_block is the continuation block for (ret_code,
                   # ret_pc) under this translation's key when the frame
                   # was pushed by generated code, None when the
                   # simulator pushed it (the dispatch loop then resolves
                   # m.code/m.pc).
                   "return _rec.ret_block"]

        if op == "GENERIC":
            name = ops[0][1]
            if name is sym("throw"):
                return self._terminator_fallback(instruction, index)
            primitive = lookup_primitive(name)
            if primitive is None:
                return fallback()
            dst, srcs = ops[1], ops[2:]
            lines: List[str] = []
            argnames = []
            for j, operand in enumerate(srcs):
                src = read(operand)
                if src is None:
                    return fallback()
                a = f"_a{j}"
                argnames.append(a)
                lines.append(f"{a} = {src}")
                if operand[0] == "imm" and not isinstance(
                        operand[1], (HeapNumber, PdlNumber)):
                    continue  # translation-time constant: nothing to unwrap
                lines.append(f"_t = type({a})")
                if primitive.safe:
                    lines += ["if _t is HeapNumber:",
                              f"    {a} = {a}.value",
                              "elif _t is PdlNumber:",
                              f"    {a} = {a}.deref()"]
                else:
                    lines += ["if _t is PdlNumber:",
                              f"    {a} = m._certify({a}).value",
                              "elif _t is HeapNumber:",
                              f"    {a} = {a}.value"]
            if primitive.cycles:
                lines.append(f"m.cycles += {primitive.cycles}")
                if self.telemetry:
                    lines.append(f"{self._tel_ref()}.note_extra("
                                 f"{index}, {primitive.cycles}, False)")
            count = len(argnames)
            if (primitive.min_args <= count
                    and (primitive.max_args is None
                         or count <= primitive.max_args)):
                # Arity is statically valid: call the implementation
                # directly, skipping Primitive.apply's per-call check.
                call = f"{konst(primitive.fn)}({', '.join(argnames)})"
            else:
                args = "(" + ", ".join(argnames) \
                    + ("," if count == 1 else "") + ")"
                call = f"{konst(primitive)}.apply({args})"
            arith = _GENERIC_FAST2_ARITH.get(primitive.name)
            cmp = _GENERIC_FAST2_CMP.get(primitive.name)
            fast1 = _GENERIC_FAST1.get(primitive.name)
            if count == 2 and (arith or cmp):
                guard = ("(type(_a0) is int or type(_a0) is float)"
                         " and (type(_a1) is int or type(_a1) is float)")
                lines.append(f"if {guard}:")
                if arith:
                    # An integer beyond the float range meeting a float
                    # overflows: re-run the primitive, which raises the
                    # Lisp error, as _raw_fast does.
                    lines += ["    try:",
                              f"        _r = _a0 {arith} _a1",
                              "    except _HOST_FAULTS:",
                              f"        _r = {call}"]
                else:
                    lines.append(f"    _r = T if _a0 {cmp} _a1 else NIL")
                lines += ["else:",
                          f"    _r = {call}"]
            elif count == 1 and fast1:
                lines += ["if type(_a0) is int or type(_a0) is float:",
                          f"    _r = {fast1}",
                          "else:",
                          f"    _r = {call}"]
            else:
                lines.append(f"_r = {call}")
            if primitive.allocates:
                lines.append("m.heap.adopt(_r)")
            lines.append("_t = type(_r)")
            lines.append("if _t is float or _t is complex:")
            lines.append("    _r = m.heap.allocate_number(_r)")
            stmt = write_or_none(dst, "_r")
            if stmt is None:
                return fallback()
            lines.append(stmt)
            return lines

        if _is_terminator(instruction):
            # CALLF / TAILCALLF / APPLYF / LOCK / GENERIC-throw and any
            # terminator shape the fast paths above declined.
            return self._terminator_fallback(instruction, index)

        return fallback()

    def _raw_fast(self, dst, inline: Optional[str], call: str,
                  slow: str) -> List[str]:
        """The raw-operand path of a raw arithmetic instruction: the
        *inline* Python expression when there is one, guarded so a host
        exception re-runs the *slow* statement (which raises the Lisp
        error), else the simulator's own *call*, which converts its host
        exceptions itself."""
        if inline is None:
            return [self.write(dst, call)]
        return ["try:",
                f"    {self.write(dst, inline)}",
                "except _HOST_FAULTS:",
                f"    {slow}"]

    def _terminator_fallback(self, instruction: Instruction,
                             index: int) -> List[str]:
        # The handler expects the simulator's convention: pc already
        # advanced past the instruction (CALLF saves it as the return
        # address, LOCK spins by decrementing it, throw overwrites it).
        # Whether it transferred (closure call, throw, spin) or fell
        # through (primitive CALLF, halt) is only known afterwards, so
        # the pipelined model re-runs the simulator's transfer test here.
        self._fallback_main.add(index)
        return ([f"m.pc = {index + 1}",
                 self._fallback_call(instruction, index)]
                + self._flush_check(index)
                + ["return"])

    # -- whole-code translation ---------------------------------------------

    def translate(self) -> NativeCode:
        instructions = self.code.instructions
        n = len(instructions)
        starts = self.leaders()
        module: List[str] = []
        # The line table NativeBlock.take_back reads: generated line
        # number -> the instruction that emitted the line (index 0 is
        # unused: line numbers start at 1).
        lines: List[int] = [0]
        info = []
        tprof = self._tprof
        for position, start in enumerate(starts):
            end = starts[position + 1] if position + 1 < len(starts) else n
            count = end - start
            static = sum(self.costs.get(instructions[k].opcode, 1)
                         for k in range(start, end))
            # Pipelined model: the block's data-hazard and structural
            # stalls are static properties of its straight-line body
            # (mid-block instructions never transfer), so they are folded
            # into the prologue charge exactly as the simulator would
            # charge them one instruction at a time.
            if tprof is not None:
                stall_data, stall_structural = tprof.block_stalls(start, end)
            else:
                stall_data = stall_structural = 0
            static += stall_data + stall_structural
            fname = f"_blk_{start}"
            self._tp_ok = False
            self._fb_ok = False
            self._tel_ok = False
            # (line, emitting instruction): hoisted lines belong to the
            # instruction that needed them (emit() prepends them), the
            # fall-through edge to the block's last instruction.
            core: List[Tuple[str, int]] = []
            for k in range(start, end):
                core += [(line, k) for line in self.emit(k)]
            if not _is_terminator(instructions[end - 1]):
                core += [(line, end - 1) for line in
                         self._goto(end, index=end - 1, taken=False)]
            # The prologue checks fuel before it charges anything, so a
            # block that would cross the limit leaves the counters as
            # they were for the simulator to step it.
            body = [f"_ni = m.instructions + {count}",
                    "if _ni > m.instruction_limit:",
                    "    raise _OutOfFuel",
                    "m.instructions = _ni"]
            if static:
                body.append(f"m.cycles += {static}")
            if stall_data:
                body.append(f"m.stall_data += {stall_data}")
            if stall_structural:
                body.append(f"m.stall_structural += {stall_structural}")
            if any("stack" in line for line, _ in core):
                body.append("stack = m.stack")
            if any("regs" in line for line, _ in core):
                body.append("regs = m.regs")
            module.append(f"def {fname}(m):")
            module += ["    " + line for line in body]
            lines += [start] * (1 + len(body))
            module += ["    " + line for line, _ in core]
            lines += [k for _, k in core]
            module.append("")
            lines.append(start)
            opcodes = Counter(instructions[k].opcode
                              for k in range(start, end))
            observed = tuple(
                (k, self.costs.get(instructions[k].opcode, 1),
                 k in self._fallback_main)
                for k in range(start, end)) if self.telemetry else None
            info.append((fname, start, count, static, dict(opcodes),
                         observed))
        source = "\n".join(module)
        self.ns["_lines"] = lines
        # Per instruction, what a block's prologue charged for it: opcode,
        # table cycles, data stall (its pair with its predecessor; a
        # leader's is never taken back) and structural stall.
        self.ns["_charges"] = [
            (instruction.opcode, self.costs.get(instruction.opcode, 1),
             tprof.pair[k] if tprof is not None else 0,
             tprof.structural[k] if tprof is not None else 0)
            for k, instruction in enumerate(instructions)]
        exec(compile(source, f"<native:{self.code.name}>", "exec"), self.ns)
        blocks = {start: NativeBlock(self.ns[fname], start, count, static,
                                     opcodes, observed)
                  for fname, start, count, static, opcodes, observed
                  in info}
        # Static chaining: ``return B<leader>`` in generated code resolves
        # to the target NativeBlock through the module namespace.
        for start, block in blocks.items():
            self.ns[f"B{start}"] = block
        return NativeCode(blocks, source)


#: Cost tables by content.  Every machine holds its own copy of its
#: target's table, so equal tables are distinct dicts; they share one
#: interned frozenset here, which a store probe then matches by identity.
#: One entry per distinct table.
_COST_TABLES: Dict[FrozenSet, FrozenSet] = {}


def translation_key(cycle_costs: Optional[Dict[str, int]] = None,
                    telemetry: bool = False,
                    pipeline: Optional[PipelineDescription] = None) -> Tuple:
    """The key :func:`translate` stores a translation under: the cost
    table's contents (default: the S-1 table), instrumented or plain, and
    the pipeline by identity (a PipelineDescription holds dicts, so it
    does not hash; the stored entry pins it, so its id is not reused
    while a translation made under it lives).  A Machine derives it once
    per configuration."""
    costs = frozenset((CYCLES if cycle_costs is None
                       else cycle_costs).items())
    return (_COST_TABLES.setdefault(costs, costs), telemetry, id(pipeline))


def translate(code: CodeObject,
              cycle_costs: Optional[Dict[str, int]] = None,
              telemetry: bool = False,
              pipeline: Optional[PipelineDescription] = None,
              key: Optional[Tuple] = None) -> NativeCode:
    """*code*'s native translation under *cycle_costs* (default: the S-1
    table), *telemetry* and *pipeline*: the one way to get a translation.

    It returns the translation stored on *code* under
    ``translation_key(cycle_costs, telemetry, pipeline)`` (a caller may
    pass that *key* precomputed), and on a miss translates and stores the
    result.  Translating never mutates the instructions, and the
    generated code holds no machine, so one translation serves every
    machine and every program that runs *code* under the same key.  With
    *telemetry* each block carries the observer's per-instruction record
    and the generated code carries inline-cache probes and per-site cycle
    booking (reading ``m.telemetry`` at run time), so instrumented and
    plain translations have different keys; a *pipeline* bakes that
    timing model's hazard-stall charges into the generated blocks, and
    is part of the key likewise.  The translation is made from the key's
    cost table, so it always matches the key it is stored under.
    """
    if key is None:
        key = translation_key(cycle_costs, telemetry, pipeline)
    store = code._translations
    if store is None:
        store = code._translations = {}
    entry = store.get(key)
    if entry is None:
        native = _Translator(code, dict(key[0]), telemetry,
                             pipeline).translate()
        entry = store[key] = (pipeline, native)
    return entry[1]
