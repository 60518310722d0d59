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
    """A Lisp-level fault.  The interpreter and both machine tiers raise
    the same subclass for the same fault (README, "Run-time errors"); a
    plain LispError is a domain fault ("log: argument out of domain") or
    a fault of one primitive (``error``, a vector index out of bounds)."""


class MachineError(ReproError):
    """A machine limit or an internal fault, never a Lisp-level one: fuel
    exhausted, a bad opcode or operand, falling off the end of the code,
    a corrupt frame, a raw operand that is not a machine number (a
    representation-analysis bug), an unknown GENERIC primitive, and the
    multiprocessor's limits."""


class WrongTypeError(LispError):
    """Run-time type check failure (car of a number, calling a number)."""


class WrongNumberOfArgumentsError(LispError):
    """Function or primitive called with an arity it does not accept."""


class _WordedFault(LispError):
    """A fault kind every executor reports from the same fields: the class
    words the message, so no executor can word it differently."""

    template = ""

    def __init__(self, *fields: object):
        super().__init__(self.template.format(*fields))
        self.fields = fields

    def __reduce__(self):
        return type(self), self.fields, self.__dict__


class UnboundVariableError(_WordedFault):
    """Reference to an unbound variable: ``UnboundVariableError(name)`` for
    a special variable, and ``UnboundVariableError(name, "lexical")``
    (the interpreter's environments only)."""

    template = "unbound {1} variable {0}"

    def __init__(self, name: object, kind: str = "special"):
        super().__init__(name, kind)


class UndefinedFunctionError(_WordedFault):
    """A call to, or the function value of, a name no definition and no
    primitive has: ``UndefinedFunctionError(name)``."""

    template = "undefined function {}"


class DivisionByZeroError(_WordedFault):
    """Division by zero in a primitive or a raw instruction:
    ``DivisionByZeroError(name)``, *name* the primitive ("/") or opcode
    ("FDIV")."""

    template = "{}: division by zero"


class UncaughtThrowError(_WordedFault):
    """A ``throw`` no ``catch`` of its tag is waiting for:
    ``UncaughtThrowError(tag)``."""

    template = "uncaught throw to tag {!r}"


def lisp_fault(name: str, error: BaseException) -> LispError:
    """The Lisp fault for host exception *error* raised by the primitive or
    raw instruction *name* on arguments of the right kind: the one mapping
    (the native tier's inline arithmetic re-runs the primitive or raw
    instruction, which raises through it).  Raised from an ``except``
    around the operation, so the common path pays nothing.  A zero divisor
    is a DivisionByZeroError; a TypeError on numbers is a complex where
    only a real will do; otherwise the result is out of range ("+: result
    out of range" for an integer beyond the float range meeting a float)
    or the argument out of the operation's domain."""
    if isinstance(error, ZeroDivisionError):
        return DivisionByZeroError(name)
    if isinstance(error, TypeError):
        return WrongTypeError(f"{name}: not a real number")
    if isinstance(error, OverflowError):
        return LispError(f"{name}: result out of range")
    return LispError(f"{name}: argument out of domain")
