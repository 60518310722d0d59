"""Exception hierarchy for the whole reproduction.

Every package raises subclasses of :class:`ReproError`, so callers can catch
one root type.  The split mirrors the phase structure: reading, conversion to
IR, analysis/optimization, code generation, and run time (interpreter or
simulated machine) each have their own class.

Compile-time errors carry a ``location`` -- a
:class:`repro.diagnostics.SourceLocation` (``file:line:column``) taken from
the reader's tokens -- either passed at construction or attached after the
fact via :meth:`ReproError.with_location` (the converter attaches the
nearest enclosing form's position).
"""

from __future__ import annotations

from typing import Optional

from .diagnostics import SourceLocation


class ReproError(Exception):
    """Root of all errors raised by this library."""

    def __init__(self, *args, location: Optional[SourceLocation] = None):
        if location is not None and args and isinstance(args[0], str) \
                and not args[0].startswith(f"{location}:"):
            args = (f"{location}: {args[0]}",) + args[1:]
        super().__init__(*args)
        self.location = location

    def with_location(self, location: Optional[SourceLocation]
                      ) -> "ReproError":
        """Attach a source location if none is known yet; prefixes the
        message with ``file:line:column``.  Returns self for re-raising."""
        if location is not None and getattr(self, "location", None) is None:
            self.location = location
            if self.args and isinstance(self.args[0], str):
                self.args = (f"{location}: {self.args[0]}",) + self.args[1:]
        return self


class ReaderError(ReproError):
    """Malformed surface syntax."""


class ConversionError(ReproError):
    """Source program cannot be converted to the internal tree (bad special
    form, unbound variable in strict mode, malformed lambda list, ...)."""


class CodegenError(ReproError):
    """Code generation failed (unsupported construct, allocator overflow)."""


class UnknownTargetError(ReproError, KeyError):
    """``CompilerOptions.target`` names no registered machine description.

    Subclasses ``KeyError`` because the name is a failed registry lookup;
    catching :class:`ReproError` works like everywhere else."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return Exception.__str__(self)


class VerificationError(ReproError):
    """A phase-boundary invariant violation found by repro.verify.

    Carries the structured :class:`repro.verify.Violation` records so
    harnesses can report check names and phases, not just a message."""

    def __init__(self, *args, violations=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.violations = list(violations or [])


class LispError(ReproError):
    """A run-time error signalled by Lisp execution (interpreter or machine):
    wrong argument types, wrong argument counts, unbound variables, etc."""


class MachineError(ReproError):
    """The simulated S-1 machine trapped (bad opcode, bad address, ...)."""


class WrongTypeError(LispError):
    """Run-time type check failure (e.g. car of a number)."""


class UnboundVariableError(LispError):
    """Reference to an unbound (special) variable."""


class WrongNumberOfArgumentsError(LispError):
    """Function called with an arity its lambda list does not accept."""
