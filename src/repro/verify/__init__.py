"""Phase-boundary verification: the "IR sanitizer" (repro.verify).

The paper's central structural claim is that every phase preserves a
back-translatable, semantically equivalent tree: "The internal tree can
always be back-translated into valid source code, equivalent to, though
not necessarily identical to, the original source" (Section 4.1).  Nothing
in the pipeline *checked* that invariant between phases, so a transform
that corrupted parent links, aliased a subtree, or broke scoping would
only surface downstream as a miscompile -- if at all.

With ``CompilerOptions.verify_ir`` set, :class:`PipelineVerifier` runs
after each Table 1 phase and checks four invariant families:

structural (:mod:`repro.verify.tree`)
    parent links consistent with children, no shared subtrees, variable
    links resolve to in-scope binders, ``go``/``return`` targets are
    lexically visible progbodies holding the named tag.
semantic (:mod:`repro.verify.roundtrip`)
    after the optimizer and CSE, the tree back-translates to source that
    re-reads and re-converts to an alpha-equivalent tree.
allocation (:mod:`repro.verify.alloc`)
    no two lifetime-overlapping TNs share a register, every register is
    inside the configured pool (RTA/RTB only via the RT-preference path),
    call-crossing/pdl TNs are on the stack, temp-slot widths match
    ``REP_WORDS`` (Section 6.1's packing contract).
codegen/machine (:mod:`repro.verify.code`)
    every label reference resolves, the line map is consistent with the
    instructions, opcodes exist, and the simulated operand-stack depth is
    balanced at every return (a static abstract interpretation of the
    calling convention).

Each violation is reported as a structured :class:`Diagnostics` error
naming the phase, the check, and the offending node/TN/instruction, and
the batch raises :class:`repro.errors.VerificationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import VerificationError


@dataclass
class Violation:
    """One invariant violation: which check, where, and what went wrong."""

    check: str    # e.g. "parent-links", "roundtrip", "register-overlap"
    phase: str    # the Table 1 phase after which the check ran
    detail: str   # human-readable description naming the offending object
    subject: Optional[str] = None  # short name of the node/TN/instruction

    def render(self) -> str:
        where = f" [{self.subject}]" if self.subject else ""
        return f"{self.phase}/{self.check}{where}: {self.detail}"


def clip(text: str, limit: int = 80) -> str:
    """Trim long node reprs so violation messages stay one-line readable."""
    text = " ".join(str(text).split())
    return text if len(text) <= limit else text[: limit - 3] + "..."


class PipelineVerifier:
    """Runs invariant checks at phase boundaries and reports violations.

    One instance per :meth:`Compiler.compile_lambda` call.  Every ``check_*``
    method either passes silently or records each violation on the
    diagnostics object and raises :class:`VerificationError` -- a verified
    pipeline never ships a tree or code object that failed a check.
    """

    def __init__(self, function_name: str, diagnostics=None):
        self.function_name = function_name
        self.diagnostics = diagnostics
        self.checks_run = 0

    # -- check groups -------------------------------------------------------

    def check_tree(self, root, phase: str) -> None:
        from .tree import check_tree

        self._report(check_tree(root, phase), phase)

    def check_roundtrip(self, root, phase: str,
                        proclaimed_specials=()) -> None:
        from .roundtrip import check_roundtrip

        self._report(check_roundtrip(root, phase, proclaimed_specials),
                     phase)

    def check_allocation(self, tns, packing, registers: int,
                         phase: str) -> None:
        from .alloc import check_allocation

        self._report(check_allocation(tns, packing, registers, phase), phase)

    def check_code(self, code, phase: str) -> None:
        from .code import check_code

        self._report(check_code(code, phase), phase)

    # -- reporting ----------------------------------------------------------

    def _report(self, violations: List[Violation], phase: str) -> None:
        self.checks_run += 1
        if self.diagnostics is not None:
            self.diagnostics.bump("verify_checks")
        if not violations:
            return
        for violation in violations:
            if self.diagnostics is not None:
                self.diagnostics.error(
                    f"verify/{violation.check}: {violation.detail}",
                    phase=phase)
                self.diagnostics.bump("verify_violations")
        summary = "; ".join(v.render() for v in violations[:5])
        if len(violations) > 5:
            summary += f" (+{len(violations) - 5} more)"
        raise VerificationError(
            f"{self.function_name}: IR verification failed after "
            f"{phase}: {summary}", violations=violations)


__all__ = [
    "PipelineVerifier",
    "VerificationError",
    "Violation",
    "clip",
]
