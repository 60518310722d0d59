"""Code generation (Table 1: "Generate code in a single pass over the tree
... partly procedural and partly table-driven").

The generator walks the fully annotated tree once per function, emitting a
*virtual* instruction stream whose value operands are TNs.  After the walk,
TNBIND packs the TNs (`repro.tnbind`), operands are resolved to registers
and stack slots, and a legalization pass enforces the S-1's "2 1/2-address"
constraint on arithmetic (inserting MOVs only where the RT-register dance
fails -- the count of inserted MOVs is the E4 experiment's metric).

Lambda compilation follows the binding annotation (Section 4.4):

* ``let`` and jump-strategy lambdas compile in-line in the current frame;
  calls to them are parameter-passing gotos (argument MOVs plus a JMP),
* fast-call lambdas without free variables become labeled fast-entry
  functions reached by KCALL (no arity checking),
* everything else builds a run-time closure object.

Pdl numbers: where the annotation authorized one (Section 6.3), a raw
number needing pointer form goes to a scratch stack slot via PDLBOX instead
of a heap BOXF.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..annotate import annotate
from ..annotate.pdl import wants_pdl_allocation
from ..annotate.specials import SpecialCachePlan
from ..datum import NIL, T
from ..datum.symbols import Symbol, sym
from ..errors import CodegenError
from ..ir.nodes import (
    CallNode,
    CaseqNode,
    CatcherNode,
    FunctionRefNode,
    GoNode,
    IfNode,
    LambdaNode,
    LiteralNode,
    Node,
    PrognNode,
    ProgbodyNode,
    ReturnNode,
    SetqNode,
    STRATEGY_FAST_CALL,
    STRATEGY_FULL_CLOSURE,
    STRATEGY_JUMP,
    TagMarker,
    Variable,
    VarRefNode,
)
from ..machine.isa import (
    CYCLES,
    CodeObject,
    Instruction,
    RAW_BINARY_OPS,
    RAW_UNARY_OPS,
)
from ..options import CompilerOptions
from ..primitives import Primitive, lookup_primitive
from ..target.registers import RTA, RTB
from ..target.reps import JUMP, NONE, POINTER, SWFIX, SWFLO, is_numeric
from ..tnbind import KIND_PDL, KIND_TEMP, KIND_VAR, TN, pack_tns
from ..analysis.envinfo import free_variables

_LABELS = itertools.count(1)


def _fresh_label(stem: str) -> str:
    return f"{stem}{next(_LABELS):04d}"


# Raw machine instructions for two-operand primitives.
_RAW_BINOPS = {
    "+$f": "FADD", "-$f": "FSUB", "*$f": "FMULT", "/$f": "FDIV",
    "max$f": "FMAX", "min$f": "FMIN",
    "+&": "ADD", "-&": "SUB", "*&": "MULT", "/&": "DIV",
    # "There are single instructions for complex arithmetic" (Section 3):
    # the same FADD/FMULT data path handles SWCPLX words.
    "+$c": "FADD", "-$c": "FSUB", "*$c": "FMULT", "/$c": "FDIV",
}

_RAW_UNOPS = {
    "abs$f": "FABS", "sqrt$f": "FSQRT", "sin$f": "FSINR", "cos$f": "FCOSR",
    "sinc$f": "FSIN", "cosc$f": "FCOS", "float": "FLT", "fix": "FIX",
}

# Vector hardware instructions (Section 3): args are vectors (pointers);
# VDOT/VSUM deliver raw floats, VADD/VSCALE deliver fresh vectors.
_VECTOR_OPS = {
    "vdot$f": ("VDOT", 2, "SWFLO"),
    "vsum$f": ("VSUM", 1, "SWFLO"),
    "vadd$f": ("VADD", 2, "POINTER"),
    "vscale$f": ("VSCALE", 2, "POINTER"),
}

_RAW_COMPARES = {
    "=$f": "eq", "<$f": "lt", ">$f": "gt",
    "=&": "eq", "<&": "lt", ">&": "gt", "<=&": "le", ">=&": "ge",
}


@dataclass
class FrameInfo:
    """Compilation state for one activation frame."""

    lambda_node: Optional[LambdaNode]
    variables: Dict[Variable, Any] = field(default_factory=dict)
    special_cells: Dict[Symbol, TN] = field(default_factory=dict)
    spec_depth: int = 0
    env_map: Dict[Variable, int] = field(default_factory=dict)
    cache_plan: Optional[SpecialCachePlan] = None


@dataclass
class _Section:
    kind: str  # "fast" | "closure" | "jumpbody"
    label: str
    lambda_node: LambdaNode
    frame: FrameInfo  # frame to compile in (jumpbody) or parent frame info


class JumpLambdaInfo:
    """A lambda compiled as parameter-passing gotos within this frame."""

    __slots__ = ("label", "param_tns", "lambda_node", "emitted")

    def __init__(self, label: str, param_tns: List[TN],
                 lambda_node: LambdaNode):
        self.label = label
        self.param_tns = param_tns
        self.lambda_node = lambda_node
        self.emitted = False


class FunctionCodegen:
    """Generates one CodeObject (a function plus its nested sections)."""

    def __init__(self, name: str, root: LambdaNode,
                 options: CompilerOptions,
                 plans: Dict[LambdaNode, SpecialCachePlan]):
        self.name = name
        self.root = root
        self.options = options
        from ..target.machines import get_target

        self.target = get_target(options.target)
        self.plans = plans
        self.vcode: List[Instruction] = []
        self.tns: List[TN] = []
        self.call_ticks: List[int] = []
        self.sections: List[_Section] = []
        self.alloctemps_indices: List[int] = []
        self.moves_inserted = 0
        self.tnbind_seconds = 0.0
        self.tnbind_started = 0.0
        self.tns_packed = 0
        self.packing = None
        # node id -> [special symbols] whose lookup caches here
        self.cache_triggers: Dict[int, List[Symbol]] = {}
        # variables let-bound to known (jump/fast) lambdas
        self._known_lambda_map: Dict[Variable, LambdaNode] = {}
        # lexically enclosing progbodies during compilation
        self._progbody_stack: List[Tuple[Any, ...]] = []
        # Source position tracking: _note_source updates this from each
        # node's reader position; emit() stamps it onto instructions so
        # the profiler can attribute cycles to source lines.
        self._current_line: Optional[int] = None
        self.source_file: Optional[str] = None

    # -- emission helpers ---------------------------------------------------

    def emit(self, opcode: str, *operands: Any, comment: Optional[str] = None
             ) -> Instruction:
        tick = len(self.vcode)
        instruction = Instruction(opcode, tuple(operands), comment,
                                  line=self._current_line)
        self.vcode.append(instruction)
        if opcode in ("CALL", "CALLF", "APPLYF", "GENERIC"):
            # GENERIC of an impure primitive can run arbitrary user code?
            # No -- generics are primitives; only full calls clobber
            # registers.  GENERIC excluded below.
            if opcode != "GENERIC":
                self.call_ticks.append(tick)
        # TN lifetime bookkeeping.
        writes_first = opcode not in ("PUSH", "JUMPNIL", "JUMPNNIL", "RET",
                                      "CMPBR", "EQLBR", "CELLSET", "SPECSET",
                                      "SPECBIND", "TAILCALLF", "CATCHPUSH",
                                      "MOV_NODEF")
        for index, operand in enumerate(operands):
            if isinstance(operand, tuple) and operand and operand[0] == "tn":
                tn = operand[1]
                is_write = writes_first and index == 0 and opcode not in (
                    "PUSH",)
                tn.touch(tick, write=is_write)
            elif isinstance(operand, tuple) and operand \
                    and operand[0] == "pdlslot":
                operand[1].touch(tick, write=True)
        return instruction

    def emit_label(self, label: str) -> None:
        self.vcode.append(Instruction("LABEL", (("label", label),)))

    def new_tn(self, kind: str = KIND_TEMP, rep: str = POINTER,
               hint: Optional[str] = None) -> TN:
        tn = TN(kind, rep, hint)
        self.tns.append(tn)
        return tn

    def tn_ref(self, tn: TN) -> Tuple[str, TN]:
        return ("tn", tn)

    # -- top level ------------------------------------------------------------

    def generate(self) -> CodeObject:
        self._prepare_cache_triggers()
        # Seed line tracking from the root lambda so functions whose whole
        # body was rewritten (optimizer nodes carry no reader position)
        # still attribute to their defining form.
        self._note_source(self.root)
        frame = self._compile_function_entry(self.root, fast=False)
        self._compile_tail(self.root.body, frame)
        self._drain_sections()
        return self._assemble()

    def _prepare_cache_triggers(self) -> None:
        for plan in self.plans.values():
            for symbol, node in plan.cache_points.items():
                self.cache_triggers.setdefault(id(node), []).append(symbol)

    def _drain_sections(self) -> None:
        while self.sections:
            section = self.sections.pop(0)
            if section.kind == "jumpbody":
                self._emit_jump_body(section)
            elif section.kind == "fast":
                self._emit_fast_function(section)
            elif section.kind == "closure":
                self._emit_closure_body(section)

    # -- function entries ---------------------------------------------------------

    def _compile_function_entry(self, node: LambdaNode, fast: bool,
                                entry_label: Optional[str] = None
                                ) -> FrameInfo:
        frame = FrameInfo(lambda_node=node,
                          cache_plan=self.plans.get(node))
        if entry_label:
            self.emit_label(entry_label)
        n_required = len(node.required)
        n_fixed = n_required + len(node.optionals)
        has_rest = node.rest is not None

        if not fast:
            self.emit("ARGCHECK", ("imm", node.min_args()),
                      ("imm", node.max_args()),
                      comment=f"arity {node.min_args()}..{node.max_args()}")

        if node.optionals:
            self._compile_optional_entry(node, frame, n_required, n_fixed,
                                         has_rest)
        else:
            if has_rest:
                self.emit("RESTCOLLECT", ("imm", n_fixed),
                          comment="collect &rest into a list")
            self._emit_alloctemps()
            self._bind_frame_parameters(node, frame)
        self._emit_entry_lookups(frame)
        return frame

    def _emit_alloctemps(self) -> None:
        self.alloctemps_indices.append(len(self.vcode))
        self.emit("ALLOCTEMPS", ("imm", 0))

    def _compile_optional_entry(self, node: LambdaNode, frame: FrameInfo,
                                n_required: int, n_fixed: int,
                                has_rest: bool = False) -> None:
        """Table 4's shape: dispatch on argument count; each case sets up
        the frame and computes defaults for unsupplied parameters.  With a
        &rest parameter there is one extra catch-all case that collects the
        surplus arguments into a list."""
        body_label = _fresh_label("body")
        total = n_fixed + (1 if has_rest else 0)
        cases = []
        for count in range(n_required, n_fixed + 1):
            cases.append((count, _fresh_label(f"args{count}")))
        if has_rest:
            # Any surplus count lands here (ARGDISPATCH's None matches all).
            cases.append((None, _fresh_label("argsrest")))
        self.emit("ARGDISPATCH", ("imm", cases),
                  comment="dispatch on number of arguments")
        for count, label in cases:
            self.emit_label(label)
            if count is None:
                # nargs > n_fixed: gather the surplus into the rest list.
                self.emit("RESTCOLLECT", ("imm", n_fixed),
                          comment="collect &rest into a list")
            else:
                self.emit("ARGEXPAND", ("imm", total),
                          comment="push slots for missing parameters")
            self._emit_alloctemps()
            # Bind required params (frame slots) so defaults can see them.
            local = FrameInfo(lambda_node=node, cache_plan=frame.cache_plan)
            for i, variable in enumerate(node.required):
                local.variables[variable] = ("frame", i)
            for j, opt in enumerate(node.optionals):
                index = n_required + j
                if count is None or index < count:
                    local.variables[opt.variable] = ("frame", index)
                    continue
                value = self._compile_value(opt.default, local, POINTER)
                self.emit("MOV", ("frame", index), value,
                          comment=f"default for parameter {opt.variable.name}")
                local.variables[opt.variable] = ("frame", index)
            self.emit("JMP", ("label", body_label))
        self.emit_label(body_label)
        self._bind_frame_parameters(node, frame)

    def _bind_frame_parameters(self, node: LambdaNode, frame: FrameInfo
                               ) -> None:
        """Map parameters to frame slots; wrap heap-allocated ones in cells
        and push special ones onto the binding stack."""
        all_params = list(node.required) + \
            [opt.variable for opt in node.optionals] + \
            ([node.rest] if node.rest is not None else [])
        for index, variable in enumerate(all_params):
            access: Any = ("frame", index)
            if variable.special:
                self.emit("SPECBIND", ("name", variable.name), access,
                          comment=f"deep-bind special {variable.name}")
                frame.spec_depth += 1
                continue
            if variable.heap_allocated:
                cell_tn = self.new_tn(KIND_VAR, POINTER,
                                      f"cell:{variable.name}")
                cell_tn.crosses_call = True
                self.emit("MKCELL", self.tn_ref(cell_tn), access,
                          comment=f"heap cell for captured {variable.name}")
                access = ("cell", self.tn_ref(cell_tn))
            elif variable.rep is not None and is_numeric(variable.rep):
                # A declared raw parameter: arguments arrive as pointers by
                # the uniform calling convention; unbox once at entry.
                var_tn = self.new_tn(KIND_VAR, variable.rep,
                                     str(variable.name))
                self.emit("UNBOX", self.tn_ref(var_tn), access,
                          comment=f"unbox declared {variable.rep} parameter "
                                  f"{variable.name}")
                access = ("tn", var_tn)
            frame.variables[variable] = access

    def _emit_entry_lookups(self, frame: FrameInfo) -> None:
        """SPECLOOKUPs whose cache point is the lambda body itself are done
        at entry; finer points trigger during the body walk."""
        # (handled uniformly by _maybe_cache_specials at each node)

    def _maybe_cache_specials(self, node: Node, frame: FrameInfo) -> None:
        symbols = self.cache_triggers.get(id(node))
        if not symbols:
            return
        for symbol in symbols:
            if symbol in frame.special_cells:
                continue
            cell_tn = self.new_tn(KIND_VAR, POINTER, f"spec:{symbol}")
            cell_tn.crosses_call = True
            self.emit("SPECLOOKUP", self.tn_ref(cell_tn), ("name", symbol),
                      comment=f"cache deep-binding lookup of {symbol}")
            frame.special_cells[symbol] = cell_tn

    # -- variable access ---------------------------------------------------------

    def _read_variable(self, variable: Variable, frame: FrameInfo,
                       want: str) -> Any:
        if variable.special:
            dst = self.new_tn(KIND_TEMP, POINTER, str(variable.name))
            cell = frame.special_cells.get(variable.name)
            if cell is not None and self.options.enable_special_caching:
                self.emit("SPECREF", self.tn_ref(dst), self.tn_ref(cell),
                          ("name", variable.name))
            else:
                self.emit("SPECGREF", self.tn_ref(dst),
                          ("name", variable.name),
                          comment=f"deep search for {variable.name}")
            return self._coerce(self.tn_ref(dst), POINTER, want, None)
        access = frame.variables.get(variable)
        if access is None:
            raise CodegenError(f"variable {variable!r} has no location "
                               f"(escaped its compilation frame?)")
        kind = access[0]
        if kind == "cell":
            dst = self.new_tn(KIND_TEMP, POINTER, str(variable.name))
            self.emit("CELLREF", self.tn_ref(dst),
                      self._cell_operand(access[1]))
            return self._coerce(self.tn_ref(dst), POINTER, want, None)
        if kind == "env":
            dst = self.new_tn(KIND_TEMP, POINTER, str(variable.name))
            self.emit("ENVREF", self.tn_ref(dst), ("imm", access[1]))
            return self._coerce(self.tn_ref(dst), POINTER, want, None)
        rep = variable.rep or POINTER
        return self._coerce(access, rep, want, None)

    def _write_variable(self, variable: Variable, frame: FrameInfo,
                        value: Any, value_rep: str,
                        value_node: Optional[Node] = None) -> None:
        if variable.special:
            pointer = self._coerce(value, value_rep, POINTER, value_node)
            cell = frame.special_cells.get(variable.name)
            if cell is not None and self.options.enable_special_caching:
                self.emit("SPECSET", self.tn_ref(cell), pointer)
            else:
                tmp = self.new_tn(KIND_TEMP, POINTER)
                self.emit("SPECLOOKUP", self.tn_ref(tmp),
                          ("name", variable.name))
                self.emit("SPECSET", self.tn_ref(tmp), pointer)
            return
        access = frame.variables.get(variable)
        if access is None:
            raise CodegenError(f"variable {variable!r} has no location")
        if access[0] == "cell":
            # Cells are heap objects: storing into one is unsafe, so the
            # value must be a certified (heap) pointer, never a pdl number.
            pointer = self._coerce(value, value_rep, POINTER, None)
            self.emit("CELLSET", self._cell_operand(access[1]), pointer)
            return
        if access[0] == "env":
            raise CodegenError(
                f"assignment to immutable captured variable {variable!r}")
        target_rep = variable.rep or POINTER
        converted = self._coerce(value, value_rep, target_rep, value_node)
        self.emit("MOV", access, converted)

    def _cell_operand(self, cell_access: Any) -> Any:
        """A cell lives either in a TN of this frame or in an env slot of
        the current closure; fetch the latter into a TN first."""
        if isinstance(cell_access, tuple) and cell_access[0] == "env-cell":
            tmp = self.new_tn(KIND_TEMP, POINTER, "envcell")
            self.emit("ENVREF", self.tn_ref(tmp), ("imm", cell_access[1]))
            return self.tn_ref(tmp)
        return cell_access

    # -- coercions -----------------------------------------------------------------

    def _coerce(self, operand: Any, from_rep: str, to_rep: str,
                node: Optional[Node]) -> Any:
        if from_rep == to_rep or to_rep in (NONE, JUMP):
            return operand
        if from_rep == POINTER and is_numeric(to_rep):
            dst = self.new_tn(KIND_TEMP, to_rep)
            self.emit("UNBOX", self.tn_ref(dst), operand)
            return self.tn_ref(dst)
        if is_numeric(from_rep) and to_rep == POINTER:
            return self._box(operand, from_rep, node)
        if from_rep == SWFIX and from_rep != to_rep and is_numeric(to_rep):
            dst = self.new_tn(KIND_TEMP, to_rep)
            self.emit("FLT", self.tn_ref(dst), operand)
            return self.tn_ref(dst)
        if is_numeric(from_rep) and to_rep == SWFIX:
            dst = self.new_tn(KIND_TEMP, to_rep)
            self.emit("FIX", self.tn_ref(dst), operand)
            return self.tn_ref(dst)
        if from_rep == "BIT" and to_rep == POINTER:
            return operand  # predicates already deliver nil/t pointers
        if from_rep == POINTER and to_rep == "BIT":
            return operand
        if is_numeric(from_rep) and is_numeric(to_rep):
            return operand  # width adjustments are free in simulation
        raise CodegenError(f"cannot coerce {from_rep} -> {to_rep}")

    def _box(self, operand: Any, from_rep: str, node: Optional[Node]) -> Any:
        """Raw number -> pointer.  Uses a pdl slot when the annotation
        authorized one; otherwise a heap box.  Fixnums are immediate
        (self-tagging words): a plain MOV."""
        dst = self.new_tn(KIND_TEMP, POINTER)
        if from_rep == SWFIX:
            self.emit("MOV", self.tn_ref(dst), operand)
            return self.tn_ref(dst)
        if (node is not None and self.options.enable_pdl_numbers
                and wants_pdl_allocation(node)):
            pdl_tn = self.new_tn(KIND_PDL, from_rep, "pdlnum")
            node.pdl_tn = pdl_tn
            self.emit("PDLBOX", self.tn_ref(dst), ("pdlslot", pdl_tn),
                      operand, comment="install value for PDL-allocated number")
            return self.tn_ref(dst)
        self.emit("BOXF", self.tn_ref(dst), operand,
                  comment="heap-allocate number box")
        return self.tn_ref(dst)

    # -- expression compilation ---------------------------------------------------

    def _note_source(self, node: Node) -> None:
        """Track the reader position of the form being compiled.  Positions
        stick: optimizer-introduced nodes (no .source) inherit the nearest
        enclosing positioned form's line."""
        src = node.source
        if src is None:
            return
        pos = getattr(src, "source_pos", None)
        if pos is not None:
            self._current_line = pos.line
            if self.source_file is None:
                self.source_file = pos.file

    def _compile_tail(self, node: Node, frame: FrameInfo) -> None:
        """Compile *node* in tail position: control does not return."""
        self._note_source(node)
        self._maybe_cache_specials(node, frame)
        if isinstance(node, IfNode):
            false_label = _fresh_label("else")
            self._compile_test(node.test, frame, false_label)
            self._compile_tail(node.then, frame)
            self.emit_label(false_label)
            self._compile_tail(node.else_, frame)
            return
        if isinstance(node, PrognNode):
            for form in node.forms[:-1]:
                self._compile_effect(form, frame)
            self._compile_tail(node.forms[-1], frame)
            return
        if isinstance(node, CallNode):
            self._compile_call(node, frame, tail=True)
            return
        if isinstance(node, CaseqNode):
            self._compile_caseq(node, frame, tail=True)
            return
        if isinstance(node, ProgbodyNode):
            self._compile_progbody(node, frame, tail=True)
            return
        value = self._compile_value(node, frame, POINTER)
        self._emit_return(value, frame)

    def _emit_return(self, operand: Any, frame: FrameInfo) -> None:
        if frame.spec_depth > 0:
            self.emit("SPECUNBIND", ("imm", frame.spec_depth),
                      comment="unbind specials before exit")
        self.emit("RET", operand)

    def _compile_effect(self, node: Node, frame: FrameInfo) -> None:
        self._compile_value(node, frame, NONE)

    def _compile_value(self, node: Node, frame: FrameInfo, want: str) -> Any:
        """Compile for value; returns an operand holding the result in
        representation *want* (or nothing meaningful when want is NONE)."""
        self._note_source(node)
        self._maybe_cache_specials(node, frame)
        if isinstance(node, LiteralNode):
            return self._compile_literal(node, want)
        if isinstance(node, VarRefNode):
            return self._read_variable(node.variable, frame, want)
        if isinstance(node, FunctionRefNode):
            dst = self.new_tn(KIND_TEMP, POINTER, str(node.name))
            self.emit("GFUNC", self.tn_ref(dst), ("name", node.name))
            return self._coerce(self.tn_ref(dst), POINTER, want, node)
        if isinstance(node, SetqNode):
            value_rep = self._value_rep_for(node.value)
            value = self._compile_value(node.value, frame, value_rep)
            self._write_variable(node.variable, frame, value, value_rep,
                                 node.value)
            return self._coerce(value, value_rep, want, node)
        if isinstance(node, IfNode):
            return self._compile_if_value(node, frame, want)
        if isinstance(node, PrognNode):
            for form in node.forms[:-1]:
                self._compile_effect(form, frame)
            return self._compile_value(node.forms[-1], frame, want)
        if isinstance(node, CallNode):
            return self._compile_call(node, frame, tail=False, want=want)
        if isinstance(node, LambdaNode):
            return self._compile_lambda_value(node, frame, want)
        if isinstance(node, CaseqNode):
            return self._compile_caseq(node, frame, tail=False, want=want)
        if isinstance(node, ProgbodyNode):
            return self._compile_progbody(node, frame, tail=False, want=want)
        if isinstance(node, CatcherNode):
            return self._compile_catch(node, frame, want)
        if isinstance(node, (GoNode, ReturnNode)):
            self._compile_exit(node, frame)
            return ("imm", NIL)
        raise CodegenError(f"cannot compile {node!r}")

    def _compile_literal(self, node: LiteralNode, want: str) -> Any:
        value = node.value
        if want in (NONE,):
            return ("imm", NIL)
        if is_numeric(want) and isinstance(value, (int, float, complex)) \
                and not isinstance(value, bool):
            return ("imm", value)  # raw immediate
        if isinstance(value, float) or isinstance(value, complex):
            # Pointer-world float constant: box it (constants could be
            # preallocated; we charge one-time boxing per execution, or a
            # pdl slot if authorized).
            return self._box(("imm", value), SWFLO, node)
        return ("imm", value)

    def _value_rep_for(self, node: Node) -> str:
        """The representation this node's compiled value naturally has."""
        isrep = node.isrep
        if isrep in (None, NONE, JUMP, "BIT"):
            return POINTER
        return isrep

    # -- conditionals -------------------------------------------------------------

    def _compile_test(self, node: Node, frame: FrameInfo,
                      false_label: str) -> None:
        """Compile a predicate: fall through when true, jump when false."""
        self._note_source(node)
        self._maybe_cache_specials(node, frame)
        if isinstance(node, LiteralNode):
            if node.value is NIL:
                self.emit("JMP", ("label", false_label))
            return
        if isinstance(node, IfNode):
            # (if (if a b c) ...): decompose into jump structure directly.
            inner_false = _fresh_label("tf")
            join_true = _fresh_label("tt")
            self._compile_test(node.test, frame, inner_false)
            self._compile_test(node.then, frame, false_label)
            self.emit("JMP", ("label", join_true))
            self.emit_label(inner_false)
            self._compile_test(node.else_, frame, false_label)
            self.emit_label(join_true)
            return
        if isinstance(node, PrognNode):
            for form in node.forms[:-1]:
                self._compile_effect(form, frame)
            self._compile_test(node.forms[-1], frame, false_label)
            return
        if isinstance(node, CallNode):
            primitive_name = node.primitive_name()
            if primitive_name is not None:
                if self._compile_primitive_test(node, primitive_name, frame,
                                                false_label):
                    return
        value = self._compile_value(node, frame, POINTER)
        self.emit("JUMPNIL", value, ("label", false_label))

    def _compile_primitive_test(self, node: CallNode, name: Symbol,
                                frame: FrameInfo, false_label: str) -> bool:
        """Compare-and-branch forms for predicate primitives."""
        text = name.name
        if text in _RAW_COMPARES and len(node.args) == 2:
            rep = SWFLO if text.endswith("$f") else SWFIX
            a = self._compile_value(node.args[0], frame, rep)
            b = self._compile_value(node.args[1], frame, rep)
            negations = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt",
                         "gt": "le", "le": "gt"}
            self.emit("CMPBR", ("imm", negations[_RAW_COMPARES[text]]),
                      a, b, ("label", false_label))
            return True
        if text in ("not", "null") and len(node.args) == 1:
            value = self._compile_value(node.args[0], frame, POINTER)
            self.emit("JUMPNNIL", value, ("label", false_label))
            return True
        if text == "eq" and len(node.args) == 2:
            a = self._compile_value(node.args[0], frame, POINTER)
            b = self._compile_value(node.args[1], frame, POINTER)
            true_label = _fresh_label("eqt")
            self.emit("EQLBR", a, b, ("label", true_label))
            self.emit("JMP", ("label", false_label))
            self.emit_label(true_label)
            return True
        primitive = lookup_primitive(name)
        if primitive is not None and primitive.jump_result:
            # Generic predicate: compute (GENERIC) then test the pointer.
            dst = self.new_tn(KIND_TEMP, POINTER)
            args = [self._compile_value(arg, frame, POINTER)
                    for arg in node.args]
            self.emit("GENERIC", ("name", name), self.tn_ref(dst), *args)
            self.emit("JUMPNIL", self.tn_ref(dst), ("label", false_label))
            return True
        return False

    def _compile_if_value(self, node: IfNode, frame: FrameInfo,
                          want: str) -> Any:
        result_rep = want if want not in (NONE,) else POINTER
        if want == NONE:
            false_label = _fresh_label("else")
            join = _fresh_label("join")
            self._compile_test(node.test, frame, false_label)
            self._compile_effect(node.then, frame)
            self.emit("JMP", ("label", join))
            self.emit_label(false_label)
            self._compile_effect(node.else_, frame)
            self.emit_label(join)
            return ("imm", NIL)
        result = self.new_tn(KIND_TEMP, result_rep, "if-result")
        false_label = _fresh_label("else")
        join = _fresh_label("join")
        self._compile_test(node.test, frame, false_label)
        then_value = self._compile_value(node.then, frame, result_rep)
        self.emit("MOV", self.tn_ref(result), then_value)
        self.emit("JMP", ("label", join))
        self.emit_label(false_label)
        else_value = self._compile_value(node.else_, frame, result_rep)
        self.emit("MOV", self.tn_ref(result), else_value)
        self.emit_label(join)
        return self.tn_ref(result)

    # -- caseq / progbody / catch ----------------------------------------------------

    def _compile_caseq(self, node: CaseqNode, frame: FrameInfo, tail: bool,
                       want: str = POINTER) -> Any:
        key = self._compile_value(node.key, frame, POINTER)
        key_tn = self.new_tn(KIND_TEMP, POINTER, "caseq-key")
        self.emit("MOV", self.tn_ref(key_tn), key)
        clause_labels = [_fresh_label("case") for _ in node.clauses]
        default_label = _fresh_label("casedef")
        join = _fresh_label("casejoin")
        for (keys, _), label in zip(node.clauses, clause_labels):
            for constant in keys:
                self.emit("EQLBR", self.tn_ref(key_tn), ("imm", constant),
                          ("label", label))
        self.emit("JMP", ("label", default_label))
        result = None if tail else self.new_tn(
            KIND_TEMP, want if want != NONE else POINTER, "caseq-result")
        bodies = [body for _, body in node.clauses] + [node.default]
        labels = clause_labels + [default_label]
        for body, label in zip(bodies, labels):
            self.emit_label(label)
            if tail:
                self._compile_tail(body, frame)
            else:
                value = self._compile_value(
                    body, frame, want if want != NONE else POINTER)
                if want != NONE:
                    self.emit("MOV", self.tn_ref(result), value)
                self.emit("JMP", ("label", join))
        if not tail:
            self.emit_label(join)
            return self.tn_ref(result) if want != NONE else ("imm", NIL)
        return None

    def _compile_progbody(self, node: ProgbodyNode, frame: FrameInfo,
                          tail: bool, want: str = POINTER) -> Any:
        tag_labels: Dict[Symbol, str] = {}
        for item in node.items:
            if isinstance(item, TagMarker) and item.name not in tag_labels:
                tag_labels[item.name] = _fresh_label(f"tag_{item.name.name}")
        exit_label = _fresh_label("pbexit")
        result = self.new_tn(KIND_TEMP, POINTER, "progbody-result")
        # progbody control-transfer state pushed for nested compilation
        state = (node, tag_labels, exit_label, result)
        self._progbody_stack.append(state)
        for item in node.items:
            if isinstance(item, TagMarker):
                self.emit_label(tag_labels[item.name])
            else:
                self._compile_effect(item, frame)
        self.emit("MOV", self.tn_ref(result), ("imm", NIL))
        self.emit_label(exit_label)
        self._progbody_stack.pop()
        if tail:
            self._emit_return(self.tn_ref(result), frame)
            return None
        return self._coerce(self.tn_ref(result), POINTER,
                            want if want != NONE else POINTER, node)

    def _compile_exit(self, node: Node, frame: FrameInfo) -> None:
        for state in reversed(self._progbody_stack):
            target, tag_labels, exit_label, result = state
            if isinstance(node, GoNode) and node.target is target:
                label = tag_labels.get(node.tag)
                if label is None:
                    raise CodegenError(f"go to unknown tag {node.tag}")
                self.emit("JMP", ("label", label))
                return
            if isinstance(node, ReturnNode) and node.target is target:
                value = self._compile_value(node.value, frame, POINTER)
                self.emit("MOV", self.tn_ref(result), value)
                self.emit("JMP", ("label", exit_label))
                return
        raise CodegenError(f"{node!r} exits a progbody outside this frame")

    def _compile_catch(self, node: CatcherNode, frame: FrameInfo,
                       want: str) -> Any:
        tag = self._compile_value(node.tag, frame, POINTER)
        catch_label = _fresh_label("catch")
        join = _fresh_label("catchjoin")
        result = self.new_tn(KIND_TEMP, POINTER, "catch-result")
        result.crosses_call = True
        self.emit("CATCHPUSH", ("label", catch_label), tag)
        body = self._compile_value(node.body, frame, POINTER)
        self.emit("MOV", self.tn_ref(result), body)
        self.emit("CATCHPOP")
        self.emit("JMP", ("label", join))
        self.emit_label(catch_label)
        self.emit("POP", self.tn_ref(result))
        self.emit_label(join)
        return self._coerce(self.tn_ref(result), POINTER,
                            want if want != NONE else POINTER, node)

    # -- lambdas as values -------------------------------------------------------------

    def _compile_lambda_value(self, node: LambdaNode, frame: FrameInfo,
                              want: str) -> Any:
        free = sorted(free_variables(node), key=lambda v: v.uid)
        strategy = node.strategy
        if strategy == STRATEGY_FAST_CALL and free:
            strategy = STRATEGY_FULL_CLOSURE  # our fast linkage has no
            # static link; capturing fast lambdas fall back to closures
        if strategy == STRATEGY_FAST_CALL:
            label = _fresh_label("fast")
            self.sections.append(_Section("fast", label, node, frame))
            info = JumpLambdaInfo(label, [], node)
            return ("fastfn", info)  # only consumed by known call sites
        # Full closure.
        captures: List[Any] = []
        env_map: Dict[Variable, int] = {}
        for index, variable in enumerate(free):
            env_map[variable] = index
            access = frame.variables.get(variable)
            if access is None:
                raise CodegenError(
                    f"free variable {variable!r} not reachable for capture")
            if access[0] == "cell":
                captures.append(access[1])
            elif access[0] == "env":
                tmp = self.new_tn(KIND_TEMP, POINTER)
                self.emit("ENVREF", self.tn_ref(tmp), ("imm", access[1]))
                captures.append(self.tn_ref(tmp))
            else:
                captures.append(access)
        entry = _fresh_label("closure")
        closure_frame = FrameInfo(lambda_node=node,
                                  cache_plan=self.plans.get(node))
        closure_frame.env_map = env_map
        section = _Section("closure", entry, node, closure_frame)
        self.sections.append(section)
        dst = self.new_tn(KIND_TEMP, POINTER, "closure")
        self.emit("CLOSURE", self.tn_ref(dst), ("label", entry), *captures,
                  comment=f"close over {[str(v.name) for v in free]}")
        return self._coerce(self.tn_ref(dst), POINTER, want, node)

    def _emit_closure_body(self, section: _Section) -> None:
        node = section.lambda_node
        frame = self._compile_function_entry(node, fast=False,
                                             entry_label=section.label)
        # Captured variables come from the environment; mutable ones are
        # cells in the env.
        for variable, index in section.frame.env_map.items():
            if variable.heap_allocated:
                frame.variables[variable] = ("cell", ("env-cell", index))
            else:
                frame.variables[variable] = ("env", index)
        frame.env_map = section.frame.env_map
        self._compile_tail(node.body, frame)

    def _emit_fast_function(self, section: _Section) -> None:
        node = section.lambda_node
        self.emit_label(section.label)
        # Fast linkage: no ARGCHECK/ARGDISPATCH ("can avoid error checks
        # such as on the number of arguments passed").
        frame = FrameInfo(lambda_node=node,
                          cache_plan=self.plans.get(node))
        self._emit_alloctemps()
        self._bind_frame_parameters(node, frame)
        self._compile_tail(node.body, frame)

    def _emit_jump_body(self, section: _Section) -> None:
        pass  # jump lambdas are emitted in place; nothing deferred

    # -- calls ----------------------------------------------------------------------

    def _compile_call(self, node: CallNode, frame: FrameInfo, tail: bool,
                      want: str = POINTER) -> Any:
        fn = node.fn
        # Case 1: direct lambda call (let) -- compile in-line.
        if isinstance(fn, LambdaNode):
            return self._compile_let(node, fn, frame, tail, want)
        # Case 2: known primitive.
        if isinstance(fn, FunctionRefNode):
            primitive = lookup_primitive(fn.name)
            if primitive is not None:
                result = self._compile_primitive_call(
                    node, fn.name, primitive, frame,
                    POINTER if tail else want)
                if tail:
                    self._emit_return(result, frame)
                    return None
                return result
            if fn.name is sym("apply"):
                return self._compile_apply(node, frame, tail, want)
            if fn.name in (sym("lock"), sym("unlock")) \
                    and len(node.args) == 1:
                # Synchronization instructions (Section 3), exposed to the
                # Lisp user as (lock key) / (unlock key).
                value = self._compile_value(node.args[0], frame, POINTER)
                self.emit(fn.name.name.upper(), value,
                          comment="synchronization")
                result = ("imm", NIL)
                if tail:
                    self._emit_return(result, frame)
                    return None
                return result
            if fn.name is sym("throw") and len(node.args) == 2:
                args = [self._compile_value(arg, frame, POINTER)
                        for arg in node.args]
                dst = self.new_tn(KIND_TEMP, POINTER)
                self.emit("GENERIC", ("name", fn.name), self.tn_ref(dst),
                          *args, comment="non-local exit")
                if tail:
                    self._emit_return(self.tn_ref(dst), frame)
                    return None
                return self.tn_ref(dst)
            return self._compile_global_call(node, fn.name, frame, tail, want)
        # Case 3: call through a variable bound to a known lambda?
        if isinstance(fn, VarRefNode):
            target = self._known_lambda_for(fn.variable)
            if target is not None:
                return self._compile_known_lambda_call(node, target, frame,
                                                       tail, want)
        # General case: computed function value.
        fn_value = self._compile_value(fn, frame, POINTER)
        fn_tn = self.new_tn(KIND_TEMP, POINTER, "fn")
        self.emit("MOV", self.tn_ref(fn_tn), fn_value)
        for arg in node.args:
            value = self._compile_value(arg, frame, POINTER)
            self.emit("PUSH", value)
        nargs = ("imm", len(node.args))
        if tail and frame.spec_depth == 0 and self.options.enable_tail_calls:
            self.emit("TAILCALLF", self.tn_ref(fn_tn), nargs)
            return None
        self.emit("CALLF", self.tn_ref(fn_tn), nargs)
        dst = self.new_tn(KIND_TEMP, POINTER, "call-result")
        self.emit("POP", self.tn_ref(dst))
        if tail:
            self._emit_return(self.tn_ref(dst), frame)
            return None
        return self._coerce(self.tn_ref(dst), POINTER,
                            want if want != NONE else POINTER, node)

    def _known_lambda_for(self, variable: Variable):
        """If this variable was let-bound to a jump/fast lambda, return the
        lambda node."""
        return self._known_lambda_map.get(variable)

    def _compile_let(self, call: CallNode, fn: LambdaNode, frame: FrameInfo,
                     tail: bool, want: str) -> Any:
        if not fn.is_simple() or len(call.args) != len(fn.required):
            # Unusual arity (optionals in a direct call): fall back to a
            # closure call.
            closure = self._compile_lambda_closure_fallback(fn, frame)
            for arg in call.args:
                self.emit("PUSH", self._compile_value(arg, frame, POINTER))
            self.emit("CALLF", closure, ("imm", len(call.args)))
            dst = self.new_tn(KIND_TEMP, POINTER)
            self.emit("POP", self.tn_ref(dst))
            if tail:
                self._emit_return(self.tn_ref(dst), frame)
                return None
            return self._coerce(self.tn_ref(dst), POINTER,
                                want if want != NONE else POINTER, call)
        saved_spec_depth = frame.spec_depth
        bound_specials = 0
        for variable, arg in zip(fn.required, call.args):
            if variable.special:
                value = self._compile_value(arg, frame, POINTER)
                self.emit("SPECBIND", ("name", variable.name), value,
                          comment=f"deep-bind special {variable.name}")
                frame.spec_depth += 1
                bound_specials += 1
                continue
            if isinstance(arg, LambdaNode) and arg.strategy in (
                    STRATEGY_JUMP, STRATEGY_FAST_CALL) \
                    and self.options.enable_closure_analysis \
                    and not variable.is_assigned():
                # Known-function binding: no closure object materialized.
                self._known_lambda_map[variable] = arg
                continue
            if variable.heap_allocated:
                value = self._compile_value(arg, frame, POINTER)
                cell_tn = self.new_tn(KIND_VAR, POINTER,
                                      f"cell:{variable.name}")
                cell_tn.crosses_call = True
                self.emit("MKCELL", self.tn_ref(cell_tn), value)
                frame.variables[variable] = ("cell", self.tn_ref(cell_tn))
                continue
            rep = variable.rep or POINTER
            value = self._compile_value(arg, frame, rep)
            var_tn = self.new_tn(KIND_VAR, rep, str(variable.name))
            variable.tn = var_tn
            self.emit("MOV", self.tn_ref(var_tn), value,
                      comment=f"bind {variable.name}")
            frame.variables[variable] = ("tn", var_tn)
        if bound_specials and tail:
            # Cannot tail-jump past dynamic bindings: compile the body for
            # value, unbind, then return.
            value = self._compile_value(fn.body, frame,
                                        POINTER)
            self.emit("SPECUNBIND", ("imm", bound_specials))
            frame.spec_depth = saved_spec_depth
            self.emit("RET", value) if frame.spec_depth == 0 else \
                self._emit_return(value, frame)
            return None
        if tail:
            self._compile_tail(fn.body, frame)
            return None
        result = self._compile_value(fn.body, frame,
                                     want if want != NONE else POINTER)
        if bound_specials:
            self.emit("SPECUNBIND", ("imm", bound_specials))
            frame.spec_depth = saved_spec_depth
        return result

    def _compile_lambda_closure_fallback(self, fn: LambdaNode,
                                         frame: FrameInfo) -> Any:
        saved = fn.strategy
        fn.strategy = STRATEGY_FULL_CLOSURE
        try:
            return self._compile_lambda_value(fn, frame, POINTER)
        finally:
            fn.strategy = saved

    def _compile_known_lambda_call(self, call: CallNode, target: LambdaNode,
                                   frame: FrameInfo, tail: bool,
                                   want: str) -> Any:
        """Call to a variable bound to a lambda with known call sites:
        compile as an in-line expansion (parameter-passing goto).

        Every call site expands the body -- for jump-strategy thunks these
        are "simple jump instructions" in spirit; because each call site is
        distinct and the body is typically tiny post-optimization, in-line
        expansion *is* the parameter-passing goto."""
        if not target.is_simple() or len(call.args) != len(target.required):
            raise CodegenError("known-lambda call arity mismatch")
        inline = CallNode(target if not target.parent else
                          _copy_lambda(target), list(call.args))
        # Re-annotate the copied subtree minimally.
        fn = inline.fn
        assert isinstance(fn, LambdaNode)
        fn.strategy = STRATEGY_JUMP
        return self._compile_let(inline, fn, frame, tail, want)

    def _compile_apply(self, node: CallNode, frame: FrameInfo, tail: bool,
                       want: str) -> Any:
        if len(node.args) < 2:
            raise CodegenError("apply needs a function and a list")
        fn_value = self._compile_value(node.args[0], frame, POINTER)
        fn_tn = self.new_tn(KIND_TEMP, POINTER, "apply-fn")
        self.emit("MOV", self.tn_ref(fn_tn), fn_value)
        for arg in node.args[1:]:
            self.emit("PUSH", self._compile_value(arg, frame, POINTER))
        self.emit("APPLYF", self.tn_ref(fn_tn), ("imm", len(node.args) - 1))
        dst = self.new_tn(KIND_TEMP, POINTER)
        self.emit("POP", self.tn_ref(dst))
        if tail:
            self._emit_return(self.tn_ref(dst), frame)
            return None
        return self._coerce(self.tn_ref(dst), POINTER,
                            want if want != NONE else POINTER, node)

    def _compile_global_call(self, node: CallNode, name: Symbol,
                             frame: FrameInfo, tail: bool, want: str) -> Any:
        for arg in node.args:
            value = self._compile_value(arg, frame, POINTER)
            self.emit("PUSH", value)
        nargs = ("imm", len(node.args))
        if tail and frame.spec_depth == 0 and self.options.enable_tail_calls:
            self.emit("TAILCALL", ("global", name), nargs,
                      comment=f"tail call {name} (parameter-passing goto)")
            return None
        self.emit("CALL", ("global", name), nargs, comment=f"call {name}")
        dst = self.new_tn(KIND_TEMP, POINTER, "call-result")
        self.emit("POP", self.tn_ref(dst))
        if tail:
            self._emit_return(self.tn_ref(dst), frame)
            return None
        return self._coerce(self.tn_ref(dst), POINTER,
                            want if want != NONE else POINTER, node)

    # -- primitive calls ----------------------------------------------------------------

    def _compile_primitive_call(self, node: CallNode, name: Symbol,
                                primitive: Primitive, frame: FrameInfo,
                                want: str) -> Any:
        text = name.name
        # In-line raw arithmetic.
        if text in _RAW_BINOPS and len(node.args) == 2 \
                and self.options.enable_representation_analysis:
            rep = primitive.arg_rep or SWFIX
            a = self._compile_value(node.args[0], frame, rep)
            b = self._compile_value(node.args[1], frame, rep)
            dst = self.new_tn(KIND_TEMP, rep)
            dst.prefer_rt = self.target.has_rt_constraint
            self.emit(_RAW_BINOPS[text], self.tn_ref(dst), a, b,
                      comment=f"({text} ...)")
            result_rep = primitive.result_rep
            return self._coerce(self.tn_ref(dst), result_rep,
                                want if want != NONE else result_rep, node)
        if text in _RAW_BINOPS and len(node.args) == 1 and text in ("-$f", "-&") \
                and self.options.enable_representation_analysis:
            rep = SWFLO if text == "-$f" else SWFIX
            a = self._compile_value(node.args[0], frame, rep)
            dst = self.new_tn(KIND_TEMP, rep)
            self.emit("FNEG" if rep == SWFLO else "NEG", self.tn_ref(dst), a)
            return self._coerce(self.tn_ref(dst), rep,
                                want if want != NONE else rep, node)
        if text in _RAW_UNOPS and len(node.args) == 1 \
                and self.options.enable_representation_analysis:
            a = self._compile_value(node.args[0], frame, SWFLO
                                    if text not in ("fix",) else SWFLO)
            dst = self.new_tn(KIND_TEMP, primitive.result_rep)
            self.emit(_RAW_UNOPS[text], self.tn_ref(dst), a,
                      comment=f"({text} ...)")
            return self._coerce(self.tn_ref(dst), primitive.result_rep,
                                want if want != NONE else primitive.result_rep,
                                node)
        # N-ary raw float ops that survived without reassociation.
        if text in _RAW_BINOPS and len(node.args) > 2 \
                and self.options.enable_representation_analysis:
            rep = primitive.arg_rep or SWFIX
            acc = self._compile_value(node.args[0], frame, rep)
            for arg in node.args[1:]:
                value = self._compile_value(arg, frame, rep)
                dst = self.new_tn(KIND_TEMP, rep)
                dst.prefer_rt = self.target.has_rt_constraint
                self.emit(_RAW_BINOPS[text], self.tn_ref(dst), acc, value)
                acc = self.tn_ref(dst)
            return self._coerce(acc, rep, want if want != NONE else rep, node)
        # Vector hardware instructions, in-line.
        if text in _VECTOR_OPS and len(node.args) == _VECTOR_OPS[text][1] \
                and self.options.enable_representation_analysis:
            opcode, _, result_rep = _VECTOR_OPS[text]
            args = []
            for index, arg in enumerate(node.args):
                # VSCALE's first operand is the raw scale factor.
                rep = SWFLO if (text == "vscale$f" and index == 0) \
                    else POINTER
                args.append(self._compile_value(arg, frame, rep))
            dst = self.new_tn(KIND_TEMP, result_rep)
            self.emit(opcode, self.tn_ref(dst), *args,
                      comment=f"vector op {text}")
            return self._coerce(self.tn_ref(dst), result_rep,
                                want if want != NONE else result_rep, node)
        # Generic (pointer-world) operation, out of line.
        args = [self._compile_value(arg, frame, POINTER)
                for arg in node.args]
        dst = self.new_tn(KIND_TEMP, POINTER)
        self.emit("GENERIC", ("name", name), self.tn_ref(dst), *args,
                  comment=f"generic {name}")
        return self._coerce(self.tn_ref(dst), POINTER,
                            want if want != NONE else POINTER, node)

    # -- assembly ---------------------------------------------------------------------

    def _assemble(self) -> CodeObject:
        self._extend_lifetimes_over_loops()
        self._mark_call_crossings()
        # Time the TNBIND/PACK step separately so the diagnostics layer can
        # report it as its own Table 1 phase (it runs inside codegen).
        pack_start = time.perf_counter()
        self.tnbind_started = pack_start
        packing = pack_tns(self.tns, self.options, self.target.registers)
        self.tnbind_seconds = time.perf_counter() - pack_start
        self.tns_packed = len(self.tns)
        # Exposed for the phase-boundary verifier (repro.verify.alloc).
        self.packing = packing
        resolved = self._resolve_operands()
        legalized = self._legalize_rt(resolved)
        instructions: List[Instruction] = []
        labels: Dict[str, int] = {}
        alloc_indices: List[int] = []
        for instruction in legalized:
            if instruction.opcode == "LABEL":
                labels[instruction.operands[0][1]] = len(instructions)
                continue
            if instruction.opcode == "ALLOCTEMPS":
                alloc_indices.append(len(instructions))
            instructions.append(instruction)
        for index in alloc_indices:
            instructions[index] = Instruction(
                "ALLOCTEMPS", (("imm", packing.temp_slots_used),),
                instructions[index].comment,
                line=instructions[index].line)
        code = CodeObject(
            name=self.name,
            instructions=instructions,
            labels=labels,
            n_temps=packing.temp_slots_used,
            arity_min=self.root.min_args(),
            arity_max=self.root.max_args(),
            target=self.target.name,
            source_file=self.source_file,
        )
        code.rebuild_line_map()
        code.moves_inserted = self.moves_inserted  # type: ignore[attr-defined]
        code.registers_used = packing.registers_used  # type: ignore[attr-defined]
        return code

    def _extend_lifetimes_over_loops(self) -> None:
        """A backward branch makes every value live anywhere in the loop
        body live across the whole loop: extend TN intervals over each
        [target, branch] span of backward jumps (linear intervals alone
        would let the packer reuse a register that the next iteration still
        reads)."""
        label_ticks: Dict[str, int] = {}
        for tick, instruction in enumerate(self.vcode):
            if instruction.opcode == "LABEL":
                label_ticks[instruction.operands[0][1]] = tick
        spans: List[Tuple[int, int]] = []
        for tick, instruction in enumerate(self.vcode):
            if instruction.opcode == "LABEL":
                continue
            for operand in instruction.operands:
                if isinstance(operand, tuple) and operand \
                        and operand[0] == "label":
                    target = label_ticks.get(operand[1])
                    if target is not None and target < tick:
                        spans.append((target, tick))
        if not spans:
            return
        changed = True
        while changed:
            changed = False
            for start, end in spans:
                for tn in self.tns:
                    if tn.first is None:
                        continue
                    # Live anywhere inside the span and born before its end:
                    if tn.first <= end and tn.last >= start and tn.last < end:
                        tn.last = end
                        changed = True

    def _mark_call_crossings(self) -> None:
        for tn in self.tns:
            if tn.first is None:
                continue
            for tick in self.call_ticks:
                if tn.first < tick < tn.last:
                    tn.crosses_call = True
                    break

    def _resolve_operands(self) -> List[Instruction]:
        resolved: List[Instruction] = []
        for instruction in self.vcode:
            operands = []
            for operand in instruction.operands:
                operands.append(self._resolve_operand(operand))
            resolved.append(Instruction(instruction.opcode, tuple(operands),
                                        instruction.comment,
                                        line=instruction.line))
        return resolved

    def _resolve_operand(self, operand: Any) -> Any:
        if isinstance(operand, tuple) and operand:
            if operand[0] == "tn":
                tn = operand[1]
                if tn.location is None:
                    # Dead TN (value never used); give it a scratch register.
                    return ("reg", 0)
                if tn.location.kind == "reg":
                    return ("reg", tn.location.index)
                return ("temp", tn.location.index)
            if operand[0] == "pdlslot":
                tn = operand[1]
                assert tn.location is not None and \
                    tn.location.kind == "temp-slot"
                return ("temp", tn.location.index)
            if operand[0] == "env-cell":
                return operand  # resolved at cell access level
        return operand

    def _legalize_rt(self, instructions: List[Instruction]
                     ) -> List[Instruction]:
        """Enforce the 2 1/2-address constraint: for OP dst,src1,src2 one of
        {dst==src1, dst is RT, src1 is RT} must hold; otherwise insert a MOV
        (these are the MOVs good RT allocation avoids -- E4's metric).

        Targets with true 3-address arithmetic (the VAX model) skip this
        entirely."""
        if not self.target.has_rt_constraint:
            return instructions
        result: List[Instruction] = []
        for instruction in instructions:
            if instruction.opcode in RAW_BINARY_OPS \
                    and len(instruction.operands) == 3:
                dst, src1, src2 = instruction.operands
                if dst == src1 or _is_rt(dst) or _is_rt(src1):
                    result.append(instruction)
                    continue
                if dst == src2:
                    # MOV would clobber src2; stage through RTA.
                    result.append(Instruction("MOV", (("reg", RTA), src1),
                                              line=instruction.line))
                    result.append(Instruction(
                        instruction.opcode,
                        (("reg", RTA), ("reg", RTA), src2),
                        instruction.comment, line=instruction.line))
                    result.append(Instruction("MOV", (dst, ("reg", RTA)),
                                              line=instruction.line))
                    self.moves_inserted += 2
                    continue
                result.append(Instruction("MOV", (dst, src1),
                                          line=instruction.line))
                result.append(Instruction(
                    instruction.opcode, (dst, dst, src2),
                    instruction.comment, line=instruction.line))
                self.moves_inserted += 1
                continue
            result.append(instruction)
        return result


def _is_rt(operand: Any) -> bool:
    return isinstance(operand, tuple) and operand[0] == "reg" \
        and operand[1] in (RTA, RTB)


def _copy_lambda(node: LambdaNode) -> LambdaNode:
    from ..ir.nodes import copy_tree

    clone = copy_tree(node)
    assert isinstance(clone, LambdaNode)
    return clone

