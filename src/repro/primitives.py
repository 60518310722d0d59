"""The primitive-operation registry.

The paper's compiler treats "calling a known primitive operation (to be
compiled in-line)" as one of the three special cases of ``call`` (Table 2),
and almost every phase consults properties of primitives:

* the *side-effects analysis* needs to know which are pure,
* the *source-level optimizer* folds constant calls to pure primitives
  ("compile-time expression evaluation ... with the apply operator!"),
  re-associates associative/commutative ones, and eliminates identities,
* the *representation analysis* needs each primitive's argument and result
  representations (Section 6.2),
* the *pdl-number annotation* needs the safe/unsafe classification
  (Section 6.3: "checking the type of a pointer is safe ... storing a pointer
  into a heap object (as with rplaca) is unsafe"),
* the *interpreter* and the *simulated machine's runtime* need executable
  definitions.

Centralizing all of that here keeps the phases in agreement -- this module is
the moral equivalent of the paper's driver tables ("the compiler is
table-driven to a great extent").
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence

from .datum import (
    NIL,
    T,
    Cons,
    cons,
    from_list,
    generic_add,
    generic_div,
    generic_mul,
    generic_sub,
    is_number,
    lisp_eq,
    lisp_eql,
    lisp_equal,
    normalize_number,
    sym,
    to_list,
)
from .errors import (
    DivisionByZeroError,
    LispError,
    WrongNumberOfArgumentsError,
    WrongTypeError,
    lisp_fault,
)


def _bool(value: bool) -> Any:
    return T if value else NIL


@dataclass
class Primitive:
    """Static description of one primitive operation."""

    name: str
    fn: Callable[..., Any]
    min_args: int
    max_args: Optional[int]  # None means "any number"
    pure: bool = True  # no side effects, foldable on constants
    associative: bool = False
    commutative: bool = False
    identity: Optional[Any] = None  # identity element, if assoc
    safe: bool = True  # pdl-safety of the *operation* (Section 6.3)
    allocates: bool = False  # may heap-allocate (a duplicatable effect)
    arg_rep: Optional[str] = None  # uniform wanted representation for args
    result_rep: str = "POINTER"  # ISREP of the result
    pdl_result: bool = False  # PDLNUMP: result may be a pdl number
    jump_result: bool = False  # predicate usable as a conditional jump
    # Abstract cost: the complexity estimate's weight for a call, and what
    # GENERIC or a primitive applied from the stack charges at run time.
    cycles: int = 1

    def check_arity(self, count: int) -> None:
        if count < self.min_args or (self.max_args is not None and count > self.max_args):
            raise WrongNumberOfArgumentsError(
                f"{self.name}: called with {count} argument(s); expects"
                f" {self.min_args}"
                + ("" if self.max_args == self.min_args else
                   f"..{'*' if self.max_args is None else self.max_args}")
            )

    def apply(self, args: Sequence[Any]) -> Any:
        self.check_arity(len(args))
        return self.fn(*args)


PRIMITIVES: Dict[Any, Primitive] = {}


def define_primitive(name: str, fn: Callable[..., Any], min_args: int,
                     max_args: Optional[int], **props: Any) -> Primitive:
    primitive = Primitive(name=name, fn=fn, min_args=min_args,
                          max_args=max_args, **props)
    PRIMITIVES[sym(name)] = primitive
    return primitive


def lookup_primitive(symbol: Any) -> Optional[Primitive]:
    return PRIMITIVES.get(symbol)


def is_primitive(symbol: Any) -> bool:
    return symbol in PRIMITIVES


# ---------------------------------------------------------------------------
# Type-check helpers
# ---------------------------------------------------------------------------

def _need_number(name: str, value: Any) -> Any:
    if not is_number(value):
        raise WrongTypeError(f"{name}: not a number: {value!r}")
    return value


def _need_real(name: str, value: Any) -> Any:
    _need_number(name, value)
    if isinstance(value, complex):
        raise WrongTypeError(f"{name}: not a real number: {value!r}")
    return value


def _need_integer(name: str, value: Any) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise WrongTypeError(f"{name}: not an integer: {value!r}")
    return value


def _need_cons(name: str, value: Any) -> Cons:
    if not isinstance(value, Cons):
        raise WrongTypeError(f"{name}: not a cons: {value!r}")
    return value


def _need_float(name: str, value: Any) -> float:
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError as error:  # an integer beyond the float range
            raise lisp_fault(name, error) from None
    if not isinstance(value, float):
        raise WrongTypeError(f"{name}: not a float: {value!r}")
    return value


def _need_list(name: str, value: Any) -> List[Any]:
    try:
        return to_list(value)
    except (TypeError, ValueError):  # an atom, or a dotted tail
        raise WrongTypeError(f"{name}: not a proper list: {value!r}") from None


# ---------------------------------------------------------------------------
# Generic arithmetic.  Numeric contagion (coerce_pair) turns an integer
# beyond the float range that meets a float into the host's
# OverflowError, and a zero divisor into ZeroDivisionError: each
# primitive maps them through lisp_fault ("+: result out of range").
# ---------------------------------------------------------------------------

def _fold(op: Callable[[Any, Any], Any], args: Sequence[Any], unit: Any) -> Any:
    if not args:
        return unit
    acc = args[0]
    for arg in args[1:]:
        acc = op(acc, arg)
    return acc


def _prim_add(*args: Any) -> Any:
    for a in args:
        _need_number("+", a)
    try:
        return _fold(generic_add, args, 0)
    except ArithmeticError as error:
        raise lisp_fault("+", error) from None


def _prim_sub(first: Any, *rest: Any) -> Any:
    _need_number("-", first)
    try:
        if not rest:
            return generic_sub(0, first)
        acc = first
        for arg in rest:
            _need_number("-", arg)
            acc = generic_sub(acc, arg)
        return acc
    except ArithmeticError as error:
        raise lisp_fault("-", error) from None


def _prim_mul(*args: Any) -> Any:
    for a in args:
        _need_number("*", a)
    try:
        return _fold(generic_mul, args, 1)
    except ArithmeticError as error:
        raise lisp_fault("*", error) from None


def _prim_div(first: Any, *rest: Any) -> Any:
    _need_number("/", first)
    try:
        if not rest:
            return generic_div(1, first)
        acc = first
        for arg in rest:
            _need_number("/", arg)
            acc = generic_div(acc, arg)
        return acc
    except ArithmeticError as error:
        raise lisp_fault("/", error) from None


def _compare_chain(name: str, relation: Callable[[Any, Any], bool],
                   args: Sequence[Any]) -> Any:
    for a in args:
        _need_real(name, a)
    return _bool(all(relation(args[i], args[i + 1]) for i in range(len(args) - 1)))


define_primitive("+", _prim_add, 0, None, associative=True, commutative=True,
                 identity=0, pdl_result=True, cycles=2)
define_primitive("-", _prim_sub, 1, None, pdl_result=True, cycles=2)
define_primitive("*", _prim_mul, 0, None, associative=True, commutative=True,
                 identity=1, pdl_result=True, cycles=3)
define_primitive("/", _prim_div, 1, None, pdl_result=True, cycles=6)
define_primitive("1+", lambda x: generic_add(_need_number("1+", x), 1), 1, 1,
                 pdl_result=True, cycles=1)
define_primitive("1-", lambda x: generic_sub(_need_number("1-", x), 1), 1, 1,
                 pdl_result=True, cycles=1)
define_primitive("=", lambda *a: _compare_chain("=", lambda x, y: x == y, a),
                 1, None, commutative=True, jump_result=True)
define_primitive("<", lambda *a: _compare_chain("<", lambda x, y: x < y, a),
                 1, None, jump_result=True)
define_primitive(">", lambda *a: _compare_chain(">", lambda x, y: x > y, a),
                 1, None, jump_result=True)
define_primitive("<=", lambda *a: _compare_chain("<=", lambda x, y: x <= y, a),
                 1, None, jump_result=True)
define_primitive(">=", lambda *a: _compare_chain(">=", lambda x, y: x >= y, a),
                 1, None, jump_result=True)
define_primitive("/=", lambda x, y: _bool(_need_real("/=", x) != _need_real("/=", y)),
                 2, 2, jump_result=True)
define_primitive("zerop", lambda x: _bool(_need_number("zerop", x) == 0), 1, 1,
                 jump_result=True)
define_primitive("plusp", lambda x: _bool(_need_real("plusp", x) > 0), 1, 1,
                 jump_result=True)
define_primitive("minusp", lambda x: _bool(_need_real("minusp", x) < 0), 1, 1,
                 jump_result=True)
define_primitive("oddp", lambda x: _bool(_need_integer("oddp", x) % 2 != 0), 1, 1,
                 jump_result=True)
define_primitive("evenp", lambda x: _bool(_need_integer("evenp", x) % 2 == 0), 1, 1,
                 jump_result=True)


def _prim_min(*args: Any) -> Any:
    for a in args:
        _need_real("min", a)
    return min(args)


def _prim_max(*args: Any) -> Any:
    for a in args:
        _need_real("max", a)
    return max(args)


define_primitive("min", _prim_min, 1, None, commutative=True, associative=True,
                 pdl_result=True)
define_primitive("max", _prim_max, 1, None, commutative=True, associative=True,
                 pdl_result=True)
define_primitive("abs", lambda x: abs(_need_number("abs", x)), 1, 1,
                 pdl_result=True)


# Two fixnums (exactly ``int``: bools and every other type take the
# Fraction path) divide with ``//``, which gives the same integer as the
# exact quotient rounded, without building two Fractions a call; ``rem``
# and ``mod`` go through here too, so their zero divisor reports
# "truncate: division by zero" or "floor: division by zero".
def _prim_floor(x: Any, divisor: Any = 1) -> Any:
    try:
        if type(x) is int and type(divisor) is int:
            return x // divisor
        _need_real("floor", x)
        _need_real("floor", divisor)
        return math.floor(Fraction(x) / Fraction(divisor)) if not (
            isinstance(x, float) or isinstance(divisor, float)
        ) else math.floor(x / divisor)
    except (ArithmeticError, ValueError) as error:
        raise lisp_fault("floor", error) from None


def _prim_ceiling(x: Any, divisor: Any = 1) -> Any:
    try:
        if type(x) is int and type(divisor) is int:
            return -(-x // divisor)
        _need_real("ceiling", x)
        _need_real("ceiling", divisor)
        if isinstance(x, float) or isinstance(divisor, float):
            return math.ceil(x / divisor)
        return math.ceil(Fraction(x) / Fraction(divisor))
    except (ArithmeticError, ValueError) as error:
        raise lisp_fault("ceiling", error) from None


def _prim_truncate(x: Any, divisor: Any = 1) -> Any:
    try:
        if type(x) is int and type(divisor) is int:
            quotient = x // divisor
            if quotient < 0 and quotient * divisor != x:
                quotient += 1  # inexact and negative: floor went one lower
            return quotient
        _need_real("truncate", x)
        _need_real("truncate", divisor)
        quotient = x / divisor if isinstance(x, float) or isinstance(divisor, float) \
            else Fraction(x) / Fraction(divisor)
        return math.trunc(quotient)
    except (ArithmeticError, ValueError) as error:
        raise lisp_fault("truncate", error) from None


def _prim_round(x: Any, divisor: Any = 1) -> Any:
    _need_real("round", x)
    _need_real("round", divisor)
    try:
        quotient = x / divisor if isinstance(x, float) or isinstance(divisor, float) \
            else Fraction(x) / Fraction(divisor)
        floor_q = math.floor(quotient)
    except (ArithmeticError, ValueError) as error:
        raise lisp_fault("round", error) from None
    frac = quotient - floor_q
    if frac < Fraction(1, 2) if not isinstance(quotient, float) else frac < 0.5:
        return floor_q
    if (frac > Fraction(1, 2)) if not isinstance(quotient, float) else frac > 0.5:
        return floor_q + 1
    # Ties to even (IEEE default rounding; the S-1 had all 16 modes).
    return floor_q if floor_q % 2 == 0 else floor_q + 1


define_primitive("floor", _prim_floor, 1, 2)
define_primitive("ceiling", _prim_ceiling, 1, 2)
define_primitive("truncate", _prim_truncate, 1, 2)
define_primitive("round", _prim_round, 1, 2)
define_primitive("mod", lambda x, y: normalize_number(
    _need_real("mod", x) - y * _prim_floor(x, y)), 2, 2)
define_primitive("rem", lambda x, y: normalize_number(
    _need_real("rem", x) - y * _prim_truncate(x, y)), 2, 2)
define_primitive("gcd", lambda *a: math.gcd(*[_need_integer("gcd", x) for x in a])
                 if a else 0, 0, None, associative=True, commutative=True,
                 identity=0)


def _prim_expt(base: Any, power: Any) -> Any:
    _need_number("expt", base)
    _need_number("expt", power)
    try:
        if isinstance(power, int) and not isinstance(base, (float, complex)):
            if power >= 0:
                return normalize_number(base ** power)
            return normalize_number(Fraction(1) / Fraction(base) ** (-power))
        return base ** power
    except ArithmeticError as error:
        raise lisp_fault("expt", error) from None


define_primitive("expt", _prim_expt, 2, 2, cycles=10)


def _real_math(name: str, fn: Callable[[float], float]):
    def wrapper(x: Any) -> Any:
        _need_number(name, x)
        try:
            if isinstance(x, complex):
                return getattr(cmath, name.rstrip("$fc"), None)(x) \
                    if hasattr(cmath, name.rstrip("$fc")) else fn(x)
            return fn(float(x))
        except (ArithmeticError, ValueError) as error:
            raise lisp_fault(name, error) from None
    return wrapper


def _prim_sqrt(x: Any) -> Any:
    _need_number("sqrt", x)
    try:
        if isinstance(x, complex) or x < 0:
            return cmath.sqrt(complex(x))
        return math.sqrt(float(x))
    except OverflowError as error:  # an integer beyond the float range
        raise lisp_fault("sqrt", error) from None


def _prim_atan(y: Any, x: Any = None) -> Any:
    _need_real("atan", y)
    if x is not None:
        _need_real("atan", x)
    try:
        return math.atan(float(y)) if x is None \
            else math.atan2(float(y), float(x))
    except OverflowError as error:  # an integer beyond the float range
        raise lisp_fault("atan", error) from None


define_primitive("sqrt", _prim_sqrt, 1, 1, pdl_result=True, cycles=8)
define_primitive("sin", _real_math("sin", math.sin), 1, 1, pdl_result=True,
                 cycles=8)
define_primitive("cos", _real_math("cos", math.cos), 1, 1, pdl_result=True,
                 cycles=8)
define_primitive("exp", _real_math("exp", math.exp), 1, 1, pdl_result=True,
                 cycles=8)
define_primitive("log", _real_math("log", math.log), 1, 1, pdl_result=True,
                 cycles=8)
define_primitive("atan", _prim_atan, 1, 2, pdl_result=True, cycles=8)


# ---------------------------------------------------------------------------
# Type-specific (MACLISP-style) arithmetic: the "$f" single-float and "&"
# fixnum families used throughout the paper's Sections 6 and 7.
# ---------------------------------------------------------------------------

def _float_nary(name: str, op: Callable[[float, float], float], unit: float):
    def wrapper(*args: Any) -> float:
        values = [_need_float(name, a) for a in args]
        if not values:
            return unit
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        return acc
    return wrapper


def _float_math(name: str, fn: Callable[[float], float]):
    def wrapper(a: Any) -> float:
        x = _need_float(name, a)
        try:
            return fn(x)
        except ValueError as error:  # the sine or cosine of an infinity
            raise lisp_fault(name, error) from None
    return wrapper


define_primitive("+$f", _float_nary("+$f", lambda a, b: a + b, 0.0), 0, None,
                 associative=True, commutative=True, identity=0.0,
                 arg_rep="SWFLO", result_rep="SWFLO", pdl_result=True,
                 cycles=1)
define_primitive("-$f", lambda a, b=None:
                 (-_need_float("-$f", a)) if b is None
                 else _need_float("-$f", a) - _need_float("-$f", b),
                 1, 2, arg_rep="SWFLO", result_rep="SWFLO", pdl_result=True,
                 cycles=1)
define_primitive("*$f", _float_nary("*$f", lambda a, b: a * b, 1.0), 0, None,
                 associative=True, commutative=True, identity=1.0,
                 arg_rep="SWFLO", result_rep="SWFLO", pdl_result=True,
                 cycles=1)


def _fdiv(a: Any, b: Any) -> float:
    x, y = _need_float("/$f", a), _need_float("/$f", b)
    if y == 0.0:
        raise DivisionByZeroError("/$f")
    return x / y


define_primitive("/$f", _fdiv, 2, 2, arg_rep="SWFLO", result_rep="SWFLO",
                 pdl_result=True, cycles=4)
define_primitive("max$f", _float_nary("max$f", max, float("-inf")), 1, None,
                 associative=True, commutative=True, arg_rep="SWFLO",
                 result_rep="SWFLO", pdl_result=True)
define_primitive("min$f", _float_nary("min$f", min, float("inf")), 1, None,
                 associative=True, commutative=True, arg_rep="SWFLO",
                 result_rep="SWFLO", pdl_result=True)
define_primitive("abs$f", lambda a: abs(_need_float("abs$f", a)), 1, 1,
                 arg_rep="SWFLO", result_rep="SWFLO", pdl_result=True)
# The FSQRT instruction's semantics: a negative argument has a complex
# root, as it does for ``sqrt``, which the optimizer specializes to
# ``sqrt$f`` on a float argument.
define_primitive("sqrt$f", lambda a: _prim_sqrt(_need_float("sqrt$f", a)), 1, 1,
                 arg_rep="SWFLO", result_rep="SWFLO", pdl_result=True,
                 cycles=8)
define_primitive("sin$f", _float_math("sin$f", math.sin), 1, 1,
                 arg_rep="SWFLO", result_rep="SWFLO", pdl_result=True,
                 cycles=10)
define_primitive("cos$f", _float_math("cos$f", math.cos), 1, 1,
                 arg_rep="SWFLO", result_rep="SWFLO", pdl_result=True,
                 cycles=10)
# The S-1's FSIN instruction takes its argument in *cycles* (revolutions);
# the optimizer rewrites (sin$f x) => (sinc$f (*$f (/ 1 2pi) x)).  Section 7.
define_primitive("sinc$f", _float_math("sinc$f", lambda a: math.sin(a * 2.0 * math.pi)),
                 1, 1, arg_rep="SWFLO", result_rep="SWFLO", pdl_result=True,
                 cycles=8)
define_primitive("cosc$f", _float_math("cosc$f", lambda a: math.cos(a * 2.0 * math.pi)),
                 1, 1, arg_rep="SWFLO", result_rep="SWFLO", pdl_result=True,
                 cycles=8)
define_primitive("=$f", lambda a, b: _bool(_need_float("=$f", a) == _need_float("=$f", b)),
                 2, 2, arg_rep="SWFLO", result_rep="BIT", jump_result=True)
define_primitive("<$f", lambda a, b: _bool(_need_float("<$f", a) < _need_float("<$f", b)),
                 2, 2, arg_rep="SWFLO", result_rep="BIT", jump_result=True)
define_primitive(">$f", lambda a, b: _bool(_need_float(">$f", a) > _need_float(">$f", b)),
                 2, 2, arg_rep="SWFLO", result_rep="BIT", jump_result=True)


def _need_complexish(name: str, value: Any) -> complex:
    """Typed complex ops accept any number and coerce to complex."""
    if not is_number(value):
        _raise_type(name, value)
    try:
        return complex(value)
    except OverflowError as error:  # an integer beyond the float range
        raise lisp_fault(name, error) from None


def _complex_nary(name: str, op: Callable[[complex, complex], complex],
                  unit: complex):
    def wrapper(*args: Any) -> complex:
        values = [_need_complexish(name, a) for a in args]
        if not values:
            return unit
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        return acc
    return wrapper


define_primitive("+$c", _complex_nary("+$c", lambda a, b: a + b, 0j), 0, None,
                 associative=True, commutative=True, identity=0j,
                 arg_rep="SWCPLX", result_rep="SWCPLX", pdl_result=True,
                 cycles=2)
define_primitive("-$c", lambda a, b=None:
                 (-_need_complexish("-$c", a)) if b is None
                 else _need_complexish("-$c", a) - _need_complexish("-$c", b),
                 1, 2, arg_rep="SWCPLX", result_rep="SWCPLX", pdl_result=True,
                 cycles=2)
define_primitive("*$c", _complex_nary("*$c", lambda a, b: a * b, 1 + 0j),
                 0, None, associative=True, commutative=True, identity=1 + 0j,
                 arg_rep="SWCPLX", result_rep="SWCPLX", pdl_result=True,
                 cycles=2)


def _cdiv(a: Any, b: Any) -> complex:
    x, y = _need_complexish("/$c", a), _need_complexish("/$c", b)
    if y == 0:
        raise DivisionByZeroError("/$c")
    return x / y


define_primitive("/$c", _cdiv, 2, 2, arg_rep="SWCPLX", result_rep="SWCPLX",
                 pdl_result=True, cycles=6)
define_primitive("abs$c", lambda a: abs(_need_complexish("abs$c", a)), 1, 1,
                 arg_rep="SWCPLX", result_rep="SWFLO", pdl_result=True,
                 cycles=2)
define_primitive("complex", lambda re, im=0.0:
                 complex(_need_float("complex", re),
                         _need_float("complex", im)),
                 1, 2, result_rep="SWCPLX", pdl_result=True)
define_primitive("realpart", lambda z: _need_complexish("realpart", z).real,
                 1, 1, result_rep="SWFLO", pdl_result=True)
define_primitive("imagpart", lambda z: _need_complexish("imagpart", z).imag,
                 1, 1, result_rep="SWFLO", pdl_result=True)


def _fixnum_binop(name: str, op: Callable[[int, int], int]):
    def wrapper(a: Any, b: Any) -> int:
        return op(_need_integer(name, a), _need_integer(name, b))
    return wrapper


def _fixnum_nary(name: str, op: Callable[[int, int], int], unit: int):
    def wrapper(*args: Any) -> int:
        values = [_need_integer(name, a) for a in args]
        if not values:
            return unit
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        return acc
    return wrapper


define_primitive("+&", _fixnum_nary("+&", lambda a, b: a + b, 0), 0, None,
                 associative=True, commutative=True, identity=0,
                 arg_rep="SWFIX", result_rep="SWFIX")
define_primitive("-&", lambda a, b=None:
                 (-_need_integer("-&", a)) if b is None
                 else _need_integer("-&", a) - _need_integer("-&", b),
                 1, 2, arg_rep="SWFIX", result_rep="SWFIX")
define_primitive("*&", _fixnum_nary("*&", lambda a, b: a * b, 1), 0, None,
                 associative=True, commutative=True, identity=1,
                 arg_rep="SWFIX", result_rep="SWFIX", cycles=3)
define_primitive("/&", _fixnum_binop("/&", lambda a, b: _trunc_div(a, b)), 2, 2,
                 arg_rep="SWFIX", result_rep="SWFIX", cycles=6)
define_primitive("=&", lambda a, b: _bool(_need_integer("=&", a) == _need_integer("=&", b)),
                 2, 2, arg_rep="SWFIX", result_rep="BIT", jump_result=True)
define_primitive("<&", lambda a, b: _bool(_need_integer("<&", a) < _need_integer("<&", b)),
                 2, 2, arg_rep="SWFIX", result_rep="BIT", jump_result=True)
define_primitive(">&", lambda a, b: _bool(_need_integer(">&", a) > _need_integer(">&", b)),
                 2, 2, arg_rep="SWFIX", result_rep="BIT", jump_result=True)
define_primitive("<=&", lambda a, b: _bool(_need_integer("<=&", a) <= _need_integer("<=&", b)),
                 2, 2, arg_rep="SWFIX", result_rep="BIT", jump_result=True)
define_primitive(">=&", lambda a, b: _bool(_need_integer(">=&", a) >= _need_integer(">=&", b)),
                 2, 2, arg_rep="SWFIX", result_rep="BIT", jump_result=True)


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZeroError("/&")
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _prim_float(x: Any) -> float:
    _need_real("float", x)
    try:
        return float(x)
    except OverflowError as error:  # an integer beyond the float range
        raise lisp_fault("float", error) from None


define_primitive("float", _prim_float, 1, 1,
                 result_rep="SWFLO", pdl_result=True)


def _prim_fix(x: Any) -> int:
    _need_real("fix", x)
    try:
        return math.trunc(x)
    except (ArithmeticError, ValueError) as error:  # an infinity or a NaN
        raise lisp_fault("fix", error) from None


define_primitive("fix", _prim_fix, 1, 1, result_rep="SWFIX")


# ---------------------------------------------------------------------------
# List structure
# ---------------------------------------------------------------------------

def _prim_car(x: Any) -> Any:
    if x is NIL:
        return NIL
    return _need_cons("car", x).car


def _prim_cdr(x: Any) -> Any:
    if x is NIL:
        return NIL
    return _need_cons("cdr", x).cdr


def _prim_rplaca(pair: Any, value: Any) -> Any:
    _need_cons("rplaca", pair).car = value
    return pair


def _prim_rplacd(pair: Any, value: Any) -> Any:
    _need_cons("rplacd", pair).cdr = value
    return pair


define_primitive("cons", cons, 2, 2, allocates=True, cycles=4)
define_primitive("car", _prim_car, 1, 1)
define_primitive("cdr", _prim_cdr, 1, 1)
define_primitive("caar", lambda x: _prim_car(_prim_car(x)), 1, 1)
define_primitive("cadr", lambda x: _prim_car(_prim_cdr(x)), 1, 1)
define_primitive("cdar", lambda x: _prim_cdr(_prim_car(x)), 1, 1)
define_primitive("cddr", lambda x: _prim_cdr(_prim_cdr(x)), 1, 1)
define_primitive("caddr", lambda x: _prim_car(_prim_cdr(_prim_cdr(x))), 1, 1)
define_primitive("rplaca", _prim_rplaca, 2, 2, pure=False, safe=False)
define_primitive("rplacd", _prim_rplacd, 2, 2, pure=False, safe=False)
define_primitive("list", lambda *a: from_list(list(a)), 0, None,
                 allocates=True, cycles=4)
define_primitive("list*", lambda *a: from_list(list(a[:-1]), tail=a[-1]),
                 1, None, allocates=True)


def _prim_append(*lists: Any) -> Any:
    if not lists:
        return NIL
    items: List[Any] = []
    for lst in lists[:-1]:
        items.extend(_need_list("append", lst))
    return from_list(items, tail=lists[-1])


define_primitive("append", _prim_append, 0, None, allocates=True,
                 associative=True, identity=NIL)
define_primitive("reverse", lambda x: from_list(list(reversed(_need_list("reverse", x)))),
                 1, 1, allocates=True)


def _prim_nreverse(x: Any) -> Any:
    from .datum import nreverse

    try:
        return nreverse(x)
    except TypeError:  # an atom, or a dotted tail
        raise WrongTypeError(f"nreverse: not a proper list: {x!r}") from None


define_primitive("nreverse", _prim_nreverse, 1, 1, pure=False, safe=False)
define_primitive("length", lambda x: len(_need_list("length", x)), 1, 1,
                 result_rep="SWFIX")


def _prim_nth(n: Any, lst: Any) -> Any:
    index = _need_integer("nth", n)
    node = lst
    while index > 0 and isinstance(node, Cons):
        node = node.cdr
        index -= 1
    return _prim_car(node) if node is not NIL else NIL


def _prim_nthcdr(n: Any, lst: Any) -> Any:
    index = _need_integer("nthcdr", n)
    node = lst
    while index > 0 and isinstance(node, Cons):
        node = node.cdr
        index -= 1
    return node


define_primitive("nth", _prim_nth, 2, 2)
define_primitive("nthcdr", _prim_nthcdr, 2, 2)


def _prim_last(lst: Any) -> Any:
    node = lst
    if node is NIL:
        return NIL
    _need_cons("last", node)
    while isinstance(node.cdr, Cons):
        node = node.cdr
    return node


define_primitive("last", _prim_last, 1, 1)


def _prim_assoc(key: Any, alist: Any) -> Any:
    node = alist
    while isinstance(node, Cons):
        entry = node.car
        if isinstance(entry, Cons) and lisp_eql(entry.car, key):
            return entry
        node = node.cdr
    return NIL


def _prim_member(item: Any, lst: Any) -> Any:
    node = lst
    while isinstance(node, Cons):
        if lisp_eql(node.car, item):
            return node
        node = node.cdr
    return NIL


define_primitive("assoc", _prim_assoc, 2, 2)
define_primitive("assq", _prim_assoc, 2, 2)
define_primitive("member", _prim_member, 2, 2)
define_primitive("memq", _prim_member, 2, 2)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

from .datum.symbols import Symbol  # noqa: E402  (import order is deliberate)

define_primitive("eq", lambda a, b: _bool(lisp_eq(a, b)), 2, 2,
                 jump_result=True)
define_primitive("eql", lambda a, b: _bool(lisp_eql(a, b)), 2, 2,
                 jump_result=True)
define_primitive("equal", lambda a, b: _bool(lisp_equal(a, b)), 2, 2,
                 jump_result=True)
define_primitive("not", lambda x: _bool(x is NIL), 1, 1, jump_result=True)
define_primitive("null", lambda x: _bool(x is NIL), 1, 1, jump_result=True)
define_primitive("atom", lambda x: _bool(not isinstance(x, Cons)), 1, 1,
                 jump_result=True)
define_primitive("consp", lambda x: _bool(isinstance(x, Cons)), 1, 1,
                 jump_result=True)
define_primitive("listp", lambda x: _bool(x is NIL or isinstance(x, Cons)),
                 1, 1, jump_result=True)
define_primitive("symbolp", lambda x: _bool(isinstance(x, Symbol)), 1, 1,
                 jump_result=True)
define_primitive("numberp", lambda x: _bool(is_number(x)), 1, 1,
                 jump_result=True)
define_primitive("integerp", lambda x: _bool(isinstance(x, int)
                                             and not isinstance(x, bool)),
                 1, 1, jump_result=True)
define_primitive("floatp", lambda x: _bool(isinstance(x, float)), 1, 1,
                 jump_result=True)
define_primitive("rationalp", lambda x: _bool(isinstance(x, (int, Fraction))
                                              and not isinstance(x, bool)),
                 1, 1, jump_result=True)
define_primitive("complexp", lambda x: _bool(isinstance(x, complex)), 1, 1,
                 jump_result=True)
define_primitive("stringp", lambda x: _bool(isinstance(x, str)), 1, 1,
                 jump_result=True)
define_primitive("functionp",
                 lambda x: _bool(callable(x) or hasattr(x, "lambda_node")
                                 or hasattr(x, "entry")),
                 1, 1, jump_result=True)


# ---------------------------------------------------------------------------
# Symbols and misc
# ---------------------------------------------------------------------------

def _prim_gensym(prefix: Any = None) -> Any:
    from .datum import gensym as make_gensym

    return make_gensym(prefix if isinstance(prefix, str) else "g")


define_primitive("gensym", _prim_gensym, 0, 1, pure=False)
define_primitive("symbol-name", lambda s: s.name if isinstance(s, Symbol)
                 else _raise_type("symbol-name", s), 1, 1)
define_primitive("identity", lambda x: x, 1, 1)


def _raise_type(name: str, value: Any) -> Any:
    raise WrongTypeError(f"{name}: wrong type: {value!r}")


def _prim_error(message: Any, *rest: Any) -> Any:
    raise LispError(f"error: {message}" + ("" if not rest else f" {rest}"))


define_primitive("error", _prim_error, 1, None, pure=False)


# Vector operations: the S-1 has hardware vector support (Section 3); we give
# the dialect simple-vector primitives so numeric examples can use arrays.
class LispVector:
    """A simple one-dimensional Lisp vector (mutable, fixed length)."""

    __slots__ = ("data",)

    def __init__(self, data: List[Any]):
        self.data = data

    def __repr__(self) -> str:
        from .reader.printer import write_to_string

        inner = " ".join(write_to_string(x) for x in self.data)
        return f"#({inner})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LispVector) and all(
            lisp_equal(a, b) for a, b in zip(self.data, other.data)
        ) and len(self.data) == len(other.data)

    def __hash__(self) -> int:  # pragma: no cover
        return id(self)


def _prim_make_vector(size: Any, init: Any = NIL) -> LispVector:
    return LispVector([init] * _need_integer("make-vector", size))


def _prim_vref(vector: Any, index: Any) -> Any:
    if not isinstance(vector, LispVector):
        _raise_type("vref", vector)
    i = _need_integer("vref", index)
    if not 0 <= i < len(vector.data):
        raise LispError(f"vref: index {i} out of bounds "
                        f"(length {len(vector.data)})")
    return vector.data[i]


def _prim_vset(vector: Any, index: Any, value: Any) -> Any:
    if not isinstance(vector, LispVector):
        _raise_type("vset", vector)
    i = _need_integer("vset", index)
    if not 0 <= i < len(vector.data):
        raise LispError(f"vset: index {i} out of bounds "
                        f"(length {len(vector.data)})")
    vector.data[i] = value
    return value


define_primitive("make-vector", _prim_make_vector, 1, 2, pure=False,
                 allocates=True)
define_primitive("vref", _prim_vref, 2, 2, pure=False)  # reads mutable state
define_primitive("vset", _prim_vset, 3, 3, pure=False, safe=False)
define_primitive("vector-length",
                 lambda v: len(v.data) if isinstance(v, LispVector)
                 else _raise_type("vector-length", v),
                 1, 1, result_rep="SWFIX")


def _need_string(name: str, value: Any) -> str:
    if not isinstance(value, str):
        _raise_type(name, value)
    return value


def _prim_string_eq(a: Any, b: Any) -> Any:
    return _bool(_need_string("string=", a) == _need_string("string=", b))


def _prim_string_lt(a: Any, b: Any) -> Any:
    return _bool(_need_string("string<", a) < _need_string("string<", b))


def _prim_string_length(a: Any) -> int:
    return len(_need_string("string-length", a))


def _prim_char(a: Any, index: Any):
    from .reader.parser import Char

    text = _need_string("char", a)
    i = _need_integer("char", index)
    if not 0 <= i < len(text):
        raise LispError(f"char: index {i} out of bounds (length {len(text)})")
    return Char(text[i])


def _prim_substring(a: Any, start: Any, end: Any = None) -> str:
    text = _need_string("substring", a)
    i = _need_integer("substring", start)
    j = len(text) if end is None else _need_integer("substring", end)
    if not (0 <= i <= j <= len(text)):
        raise LispError(f"substring: bad range [{i}, {j}) for length "
                        f"{len(text)}")
    return text[i:j]


def _prim_string_append(*parts: Any) -> str:
    return "".join(_need_string("string-append", p) for p in parts)


def _prim_string_search(needle: Any, haystack: Any) -> Any:
    """Substring search -- the S-1's string-processing hardware (Section 3)
    covers this family of operations."""
    index = _need_string("string-search", haystack).find(
        _need_string("string-search", needle))
    return NIL if index < 0 else index


def _prim_string_upcase(a: Any) -> str:
    return _need_string("string-upcase", a).upper()


def _prim_string_downcase(a: Any) -> str:
    return _need_string("string-downcase", a).lower()


def _prim_string_reverse(a: Any) -> str:
    return _need_string("string-reverse", a)[::-1]


def _prim_intern(a: Any):
    from .datum import intern_symbol

    return intern_symbol(_need_string("intern", a))


def _prim_char_code(c: Any) -> int:
    from .reader.parser import Char

    if not isinstance(c, Char):
        _raise_type("char-code", c)
    return ord(c.value)


def _prim_code_char(n: Any):
    from .reader.parser import Char

    code = _need_integer("code-char", n)
    try:
        return Char(chr(code))
    except (OverflowError, ValueError) as error:
        raise lisp_fault("code-char", error) from None


define_primitive("string=", _prim_string_eq, 2, 2, jump_result=True)
define_primitive("string<", _prim_string_lt, 2, 2, jump_result=True)
define_primitive("string-length", _prim_string_length, 1, 1,
                 result_rep="SWFIX")
define_primitive("char", _prim_char, 2, 2)
define_primitive("substring", _prim_substring, 2, 3, allocates=True)
define_primitive("string-append", _prim_string_append, 0, None,
                 allocates=True, associative=True, identity="")
define_primitive("string-search", _prim_string_search, 2, 2, cycles=4)
define_primitive("string-upcase", _prim_string_upcase, 1, 1, allocates=True)
define_primitive("string-downcase", _prim_string_downcase, 1, 1,
                 allocates=True)
define_primitive("string-reverse", _prim_string_reverse, 1, 1,
                 allocates=True)
define_primitive("intern", _prim_intern, 1, 1, pure=False)
define_primitive("char-code", _prim_char_code, 1, 1, result_rep="SWFIX")
define_primitive("code-char", _prim_code_char, 1, 1)


def _need_vector(name: str, value: Any) -> "LispVector":
    if not isinstance(value, LispVector):
        _raise_type(name, value)
    return value


def _vector_floats(name: str, value: Any) -> List[float]:
    vector = _need_vector(name, value)
    return [_need_float(name, x) for x in vector.data]


def _prim_vdot(a: Any, b: Any) -> float:
    """Dot product -- the S-1 has a hardware instruction for this
    (Section 3); the compiler emits VDOT in-line."""
    xs, ys = _vector_floats("vdot$f", a), _vector_floats("vdot$f", b)
    if len(xs) != len(ys):
        raise LispError("vdot$f: length mismatch")
    return sum(x * y for x, y in zip(xs, ys))


def _prim_vsum(a: Any) -> float:
    return sum(_vector_floats("vsum$f", a))


def _prim_vadd(a: Any, b: Any) -> LispVector:
    xs, ys = _vector_floats("vadd$f", a), _vector_floats("vadd$f", b)
    if len(xs) != len(ys):
        raise LispError("vadd$f: length mismatch")
    return LispVector([x + y for x, y in zip(xs, ys)])


def _prim_vscale(k: Any, v: Any) -> LispVector:
    factor = _need_float("vscale$f", k)
    return LispVector([factor * x for x in _vector_floats("vscale$f", v)])


define_primitive("vdot$f", _prim_vdot, 2, 2, pure=False,  # reads mutable
                 result_rep="SWFLO", pdl_result=True, cycles=4)
define_primitive("vsum$f", _prim_vsum, 1, 1, pure=False,
                 result_rep="SWFLO", pdl_result=True, cycles=3)
define_primitive("vadd$f", _prim_vadd, 2, 2, pure=False, allocates=True,
                 cycles=4)
define_primitive("vscale$f", _prim_vscale, 2, 2, pure=False, allocates=True,
                 cycles=4)


# "immutable mathematical functions" the paper's Section 7 optimizer relies
# on when moving (sinc$f (*$f ...)) past the call to frotz: pure primitives.
MOVABLE_PAST_CALLS = frozenset(
    name for name, p in ((s.name, p) for s, p in PRIMITIVES.items()) if p.pure
)
