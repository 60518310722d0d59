"""Instruction set of the simulated S-1-like machine.

The code generator emits "parenthesized assembly" -- a list of
:class:`Instruction` objects per compiled function (:class:`CodeObject`).
The set mirrors what the paper's Table 4 listing uses, rationalized:

Data movement / coercion
    MOV, UNBOX (pointer->raw, with type check), BOXF (raw->heap box),
    PDLBOX (raw->stack scratch slot, result is an unsafe pdl pointer),
    CERTIFY (unsafe->safe pointer, copying to the heap if needed)
Raw arithmetic (register/stack words holding raw machine numbers)
    ADD SUB MULT DIV MOD REM NEG            (integers)
    FADD FSUB FMULT FDIV FMAX FMIN FNEG     (floats / complexes)
    FSIN FCOS (argument in *cycles*, like the S-1's instructions)
    FSINR FCOSR (radians), FSQRT FABS FEXP FLOG FATAN FLT FIX
Control
    JMP, JUMPNIL, JUMPNNIL, CMPBR (raw compare+branch), EQLBR
    (pointer eql+branch), ARGCHECK, ARGDISPATCH, NOP, RET
Calls
    PUSH, CALL (global or label; full linkage with arity checking),
    KCALL (fast linkage: known call sites, no checks), CALLF (computed
    function value), TAILCALL / TAILCALLF (frame-replacing jumps),
    ALLOCTEMPS (prologue)
Generic operations (out-of-line runtime routines)
    GENERIC <primitive> -- the "LISP pointer world" operations: generic
    arithmetic on boxed values, list structure, predicates.  Unsafe
    generics certify their pointer arguments first.
Closures / environments
    CLOSURE, ENVREF, MKCELL, CELLREF, CELLSET
Special variables (deep binding, Section 4.4)
    SPECBIND, SPECUNBIND, SPECLOOKUP (deep search, returns a cell),
    SPECREF, SPECSET, SPECGREF (global read without caching)

Operands are tagged tuples:
    ("reg", n) ("temp", off) ("frame", i) ("imm", value) ("label", name)
    ("global", symbol) ("env", idx) ("name", symbol)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import MachineError, UndefinedFunctionError

Operand = Tuple[str, Any]


def reg(index: int) -> Operand:
    return ("reg", index)


def temp(offset: int) -> Operand:
    return ("temp", offset)


def frame_arg(index: int) -> Operand:
    return ("frame", index)


def imm(value: Any) -> Operand:
    return ("imm", value)


def label_ref(name: str) -> Operand:
    return ("label", name)


def global_ref(symbol: Any) -> Operand:
    return ("global", symbol)


def env_slot(index: int) -> Operand:
    return ("env", index)


def name_ref(symbol: Any) -> Operand:
    return ("name", symbol)


@dataclass
class Instruction:
    opcode: str
    operands: Tuple[Operand, ...] = ()
    comment: Optional[str] = None
    #: 1-based source line this instruction was compiled from (None when
    #: the originating form carried no reader position, e.g. the prelude
    #: or optimizer-introduced code).
    line: Optional[int] = None

    def render(self, register_names: Optional[Dict[int, str]] = None) -> str:
        """Render one instruction; *register_names* selects a target's
        register naming (default: the S-1 names)."""
        parts = [f"({self.opcode}"]
        for operand in self.operands:
            parts.append(" " + _render_operand(operand, register_names))
        parts.append(")")
        text = "".join(parts)
        if self.comment:
            text = f"{text:<48}; {self.comment}"
        return text


def _render_operand(operand: Operand,
                    register_names: Optional[Dict[int, str]] = None) -> str:
    kind, value = operand
    if kind == "reg":
        from ..target.registers import register_name

        return register_name(value, register_names)
    if kind == "temp":
        return f"(TP {value})"
    if kind == "frame":
        return f"(FP {value})"
    if kind == "imm":
        if isinstance(value, list):  # dispatch tables and the like
            entries = " ".join(f"({n} {label})" for n, label in value)
            return f"(DATA {entries})"
        from ..reader.printer import write_to_string

        return f"(? {write_to_string(value)})"
    if kind == "label":
        return str(value)
    if kind == "global":
        return f"(SQ {value})"
    if kind == "env":
        return f"(CP {value})"
    if kind == "name":
        return f"'{value}"
    return repr(operand)  # pragma: no cover


# Abstract cycle costs (shape-level performance model).
CYCLES: Dict[str, int] = {
    "MOV": 1, "UNBOX": 1, "BOXF": 5, "PDLBOX": 1, "CERTIFY": 1,
    "ADD": 1, "SUB": 1, "MULT": 3, "DIV": 6, "MOD": 6, "REM": 6, "NEG": 1,
    "FADD": 1, "FSUB": 1, "FMULT": 1, "FDIV": 4, "FMAX": 1, "FMIN": 1,
    "FNEG": 1, "FSIN": 8, "FCOS": 8, "FSINR": 10, "FCOSR": 10,
    "FSQRT": 8, "FABS": 1, "FEXP": 8, "FLOG": 8, "FATAN": 8,
    "FLT": 1, "FIX": 1,
    "JMP": 1, "JUMPNIL": 1, "JUMPNNIL": 1, "CMPBR": 1, "EQLBR": 1,
    "ARGCHECK": 1, "ARGDISPATCH": 2, "NOP": 0,
    "PUSH": 1, "CALL": 4, "KCALL": 2, "CALLF": 5, "TAILCALL": 3,
    "TAILCALLF": 4, "APPLYF": 6, "RET": 2, "ALLOCTEMPS": 1,
    "ARGEXPAND": 1, "RESTCOLLECT": 3, "POP": 1, "GFUNC": 1,
    "CATCHPUSH": 3, "CATCHPOP": 1, "GC": 50,
    "GENERIC": 2,  # plus the primitive's own cycle count
    "CLOSURE": 6, "ENVREF": 1, "MKCELL": 4, "CELLREF": 1, "CELLSET": 1,
    "SPECBIND": 2, "SPECUNBIND": 1, "SPECLOOKUP": 3, "SPECREF": 1,
    "SPECSET": 1, "SPECGREF": 3,
    "VDOT": 2, "VSUM": 2, "VADD": 2, "VSCALE": 2,  # plus length/4 dynamic
    "LOCK": 2, "UNLOCK": 1,
    "HALT": 0,
}

RAW_BINARY_OPS = {
    "ADD", "SUB", "MULT", "DIV", "MOD", "REM",
    "FADD", "FSUB", "FMULT", "FDIV", "FMAX", "FMIN", "FATAN",
}

RAW_UNARY_OPS = {
    "NEG", "FNEG", "FSIN", "FCOS", "FSINR", "FCOSR", "FSQRT", "FABS",
    "FEXP", "FLOG", "FLT", "FIX",
}


@dataclass
class CodeObject:
    """One compiled function: a named, label-resolved instruction list."""

    name: str
    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    n_temps: int = 0
    arity_min: int = 0
    arity_max: Optional[int] = 0
    source: Optional[str] = None
    target: str = "s1"
    #: instruction index -> 1-based source line (profiler attribution).
    #: Derived from ``Instruction.line``; sparse -- indices whose
    #: originating form had no reader position are absent.
    line_map: Dict[int, int] = field(default_factory=dict)
    #: File the function was read from, when known (reader positions).
    source_file: Optional[str] = None

    #: The native tier's translations of this function, one per
    #: translation key (see :func:`repro.machine.native.translate`, the
    #: only code that reads or fills it); None until the native tier first
    #: runs the function.  Not a field: ``==``, ``repr`` and the pickle
    #: ignore it, so the cache format does not change.
    _translations = None

    def __getstate__(self) -> Dict[str, Any]:
        # Generated code does not pickle; an unpickled (or copied)
        # CodeObject translates afresh on first native use.
        state = dict(self.__dict__)
        state.pop("_translations", None)
        return state

    def rebuild_line_map(self) -> None:
        """Recompute ``line_map`` from the instructions' ``line`` fields
        (callers that reorder or rewrite instructions run this last)."""
        self.line_map = {
            index: instruction.line
            for index, instruction in enumerate(self.instructions)
            if instruction.line is not None
        }

    def resolve_label(self, name: str) -> int:
        try:
            return self.labels[name]
        except KeyError:
            raise MachineError(
                f"undefined label {name} in {self.name}") from None

    def listing(self) -> str:
        """Render in the paper's parenthesized-assembly style, using the
        compilation target's register naming."""
        from ..target.machines import get_target

        register_names = dict(get_target(self.target).register_names)
        lines = [f";;; {self.name}  (temps: {self.n_temps})"]
        index_to_labels: Dict[int, List[str]] = {}
        for label, index in self.labels.items():
            index_to_labels.setdefault(index, []).append(label)
        for index, instruction in enumerate(self.instructions):
            for label in sorted(index_to_labels.get(index, [])):
                lines.append(f"{label}:")
            lines.append("        " + instruction.render(register_names))
        for label in sorted(index_to_labels.get(len(self.instructions), [])):
            lines.append(f"{label}:")
        return "\n".join(lines)


@dataclass
class Program:
    """A set of compiled functions plus compile-time metadata."""

    functions: Dict[Any, CodeObject] = field(default_factory=dict)

    def add(self, symbol: Any, code: CodeObject) -> None:
        self.functions[symbol] = code

    def get(self, symbol: Any) -> CodeObject:
        code = self.functions.get(symbol)
        if code is None:
            raise UndefinedFunctionError(symbol)
        return code
