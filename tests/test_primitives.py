"""Unit tests for the primitive-operation registry.

The registry is the compiler's central driver table: correctness here is
assumed by the constant folder, the effects analysis, the interpreter, and
the machine's GENERIC handler alike.
"""

import math
import random
from fractions import Fraction

import pytest

from repro.datum import NIL, T, cons, from_list, sym, to_list
from repro.errors import LispError, WrongTypeError
from repro.primitives import (
    PRIMITIVES,
    LispVector,
    lookup_primitive,
    is_primitive,
)


def call(name, *args):
    primitive = lookup_primitive(sym(name))
    assert primitive is not None, f"not a primitive: {name}"
    return primitive.apply(list(args))


class TestRegistry:
    def test_lookup_known(self):
        assert lookup_primitive(sym("+")) is not None

    def test_lookup_unknown(self):
        assert lookup_primitive(sym("no-such-thing")) is None

    def test_is_primitive(self):
        assert is_primitive(sym("car"))
        assert not is_primitive(sym("frotz"))

    def test_arity_enforced(self):
        with pytest.raises(LispError):
            call("cons", 1)
        with pytest.raises(LispError):
            call("cons", 1, 2, 3)

    def test_metadata_consistency(self):
        """Sanity over the whole table: purity/allocation flags agree with
        basic expectations."""
        for symbol, primitive in PRIMITIVES.items():
            assert primitive.min_args >= 0
            if primitive.max_args is not None:
                assert primitive.max_args >= primitive.min_args
            if primitive.associative and primitive.identity is not None:
                # identity must actually be an identity for 2-arg calls,
                # checked on a sample where types permit.
                pass
            if not primitive.safe:
                # unsafe ops are exactly the mutators
                assert not primitive.pure, f"{symbol}: unsafe but pure?"


class TestRoundingModes:
    """'floor, ceiling, truncate, round, mod, and rem are all primitive
    instructions' (Section 3) -- and all rounding behaviors matter."""

    CASES = [
        # (value, floor, ceiling, truncate, round)
        (Fraction(7, 2), 3, 4, 3, 4),      # 3.5 rounds to even 4
        (Fraction(5, 2), 2, 3, 2, 2),      # 2.5 rounds to even 2
        (Fraction(-7, 2), -4, -3, -3, -4),  # -3.5 -> even -4
        (Fraction(9, 4), 2, 3, 2, 2),
        (Fraction(-9, 4), -3, -2, -2, -2),
        (3, 3, 3, 3, 3),
    ]

    @pytest.mark.parametrize("value,fl,ce,tr,ro", CASES)
    def test_single_argument(self, value, fl, ce, tr, ro):
        assert call("floor", value) == fl
        assert call("ceiling", value) == ce
        assert call("truncate", value) == tr
        assert call("round", value) == ro

    def test_two_argument_floor(self):
        assert call("floor", 7, 2) == 3
        assert call("floor", -7, 2) == -4

    def test_two_argument_ceiling(self):
        assert call("ceiling", 7, 2) == 4
        assert call("ceiling", -7, 2) == -3

    def test_two_argument_truncate(self):
        assert call("truncate", 7, 2) == 3
        assert call("truncate", -7, 2) == -3

    def test_two_argument_round_ties_to_even(self):
        assert call("round", 5, 2) == 2
        assert call("round", 7, 2) == 4

    def test_mod_sign_follows_divisor(self):
        assert call("mod", 7, 3) == 1
        assert call("mod", -7, 3) == 2
        assert call("mod", 7, -3) == -2

    def test_rem_sign_follows_dividend(self):
        assert call("rem", 7, 3) == 1
        assert call("rem", -7, 3) == -1
        assert call("rem", 7, -3) == 1

    def test_float_floor(self):
        assert call("floor", 2.7) == 2
        assert call("floor", -2.7) == -3


class TestFixnumDivision:
    """Two fixnums divide with ``//`` instead of through two Fractions;
    every result must be the exact quotient's, rounded as before."""

    ROUNDERS = {"floor": math.floor, "ceiling": math.ceil,
                "truncate": math.trunc}

    @staticmethod
    def pairs():
        rng = random.Random(20)
        small = [1, -1, 2, -2, 3, -3, 7, -7, 10, -10, 1000, -1000]
        out = [(0, 5), (0, -5), (6, 3), (-6, 3), (6, -3), (-6, -3),
               (1, 2), (-1, 2), (1, -2), (-1, -2), (7, 1), (-7, -1),
               (10 ** 12, 10 ** 12), (-10 ** 12, 10 ** 12 - 1)]
        for _ in range(4000):
            x = rng.randint(-10 ** 12, 10 ** 12)
            roll = rng.random()
            if roll < 0.5:
                divisor = rng.choice(small)
            elif roll < 0.8:
                divisor = rng.randint(-100, 100) or 1
            else:
                divisor = rng.randint(-10 ** 12, 10 ** 12) or 1
            out.append((x, divisor))
        return out

    def test_matches_the_fraction_path(self):
        for x, divisor in self.pairs():
            exact = Fraction(x) / Fraction(divisor)
            for name, rounder in self.ROUNDERS.items():
                got = call(name, x, divisor)
                assert type(got) is int and got == rounder(exact), \
                    (name, x, divisor)
            assert call("mod", x, divisor) == x - divisor * math.floor(exact)
            assert call("rem", x, divisor) == x - divisor * math.trunc(exact)

    def test_one_argument_and_non_fixnums_keep_their_results(self):
        assert call("truncate", -7) == -7
        assert call("ceiling", Fraction(-7, 2), 1) == -3
        assert call("truncate", -7, 2.0) == -3
        assert call("floor", 7.5, 2) == 3
        with pytest.raises(WrongTypeError):
            call("floor", True, 1)

    @pytest.mark.parametrize("name", ["floor", "ceiling", "truncate", "mod",
                                      "rem"])
    def test_zero_divisor_raises_on_the_interpreter_and_both_tiers(self,
                                                                   name):
        from repro import Compiler, CompilerOptions
        from repro.interp import Interpreter

        source = f"(defun f (a b) ({name} a b))"
        with pytest.raises(ZeroDivisionError):
            call(name, 5, 0)
        interp = Interpreter()
        interp.eval_source(source)
        with pytest.raises(ZeroDivisionError):
            interp.apply_function(interp.global_functions[sym("f")], [5, 0])
        for tier in ("simulate", "native"):
            compiler = Compiler(CompilerOptions(tier=tier))
            compiler.compile_source(source)
            with pytest.raises(ZeroDivisionError):
                compiler.machine().run(sym("f"), [5, 0])


class TestArithmeticEdges:
    def test_add_no_args(self):
        assert call("+") == 0

    def test_mul_no_args(self):
        assert call("*") == 1

    def test_unary_divide_is_reciprocal(self):
        assert call("/", 4) == Fraction(1, 4)

    def test_divide_by_zero(self):
        with pytest.raises(LispError):
            call("/", 1, 0)

    def test_fixnum_divide_truncates(self):
        assert call("/&", 7, 2) == 3
        assert call("/&", -7, 2) == -3

    def test_fixnum_divide_by_zero(self):
        with pytest.raises(LispError):
            call("/&", 1, 0)

    def test_float_divide_by_zero(self):
        with pytest.raises(LispError):
            call("/$f", 1.0, 0.0)

    def test_expt_rational_base(self):
        assert call("expt", Fraction(1, 2), 3) == Fraction(1, 8)

    def test_expt_zero_power(self):
        assert call("expt", 5, 0) == 1

    def test_gcd_empty(self):
        assert call("gcd") == 0

    def test_gcd_many(self):
        assert call("gcd", 12, 18, 24) == 6

    def test_min_max(self):
        assert call("min", 3, 1, 2) == 1
        assert call("max", 3, 1, 2) == 3

    def test_abs_complex(self):
        assert call("abs", complex(3, 4)) == 5.0

    def test_atan_two_args(self):
        import math

        assert call("atan", 1.0, 1.0) == pytest.approx(math.pi / 4)

    def test_comparisons_mixed_exact(self):
        assert call("<", 1, Fraction(3, 2), 2.0) is T
        assert call("=", 1, 1.0) is T  # numeric = compares values

    def test_comparison_type_error(self):
        with pytest.raises(WrongTypeError):
            call("<", 1, sym("a"))

    def test_complex_not_ordered(self):
        with pytest.raises(WrongTypeError):
            call("<", complex(1, 1), 2)

    def test_sinc_matches_sin_of_cycles(self):
        import math

        assert call("sinc$f", 0.25) == pytest.approx(math.sin(math.pi / 2))

    def test_float_coercion_in_typed_ops(self):
        # Typed float ops accept exact reals and coerce them.
        assert call("+$f", 1, 2.5) == 3.5

    def test_typed_op_rejects_complex(self):
        with pytest.raises(WrongTypeError):
            call("+$f", complex(1, 2), 1.0)


class TestListPrimitives:
    def test_cadr_chain(self):
        lst = from_list([1, 2, 3, 4])
        assert call("cadr", lst) == 2
        assert call("caddr", lst) == 3
        assert call("cddr", lst).car == 3

    def test_car_of_nil(self):
        assert call("car", NIL) is NIL
        assert call("cdr", NIL) is NIL

    def test_car_type_error(self):
        with pytest.raises(WrongTypeError):
            call("car", 5)

    def test_list_star(self):
        value = call("list*", 1, 2, from_list([3, 4]))
        assert to_list(value) == [1, 2, 3, 4]

    def test_append_empty(self):
        assert call("append") is NIL

    def test_append_shares_last(self):
        tail = from_list([3, 4])
        result = call("append", from_list([1, 2]), tail)
        assert result.cdr.cdr is tail  # classic append sharing

    def test_nth_beyond_end(self):
        assert call("nth", 10, from_list([1, 2])) is NIL

    def test_nthcdr(self):
        assert to_list(call("nthcdr", 2, from_list([1, 2, 3, 4]))) == [3, 4]

    def test_last(self):
        assert call("last", from_list([1, 2, 3])).car == 3
        assert call("last", NIL) is NIL

    def test_member_not_found(self):
        assert call("member", 9, from_list([1, 2])) is NIL

    def test_assoc_skips_non_pairs(self):
        alist = from_list([sym("x"), from_list([sym("a"), 1])])
        assert to_list(call("assoc", sym("a"), alist)) == [sym("a"), 1]

    def test_length_of_nil(self):
        assert call("length", NIL) == 0

    def test_nreverse_destructive(self):
        lst = from_list([1, 2, 3])
        result = call("nreverse", lst)
        assert to_list(result) == [3, 2, 1]


class TestPredicates:
    def test_atom(self):
        assert call("atom", 5) is T
        assert call("atom", cons(1, 2)) is NIL
        assert call("atom", NIL) is T

    def test_listp(self):
        assert call("listp", NIL) is T
        assert call("listp", cons(1, NIL)) is T
        assert call("listp", 5) is NIL

    def test_type_predicates(self):
        assert call("symbolp", sym("q")) is T
        assert call("numberp", Fraction(1, 2)) is T
        assert call("integerp", 5) is T
        assert call("integerp", 5.0) is NIL
        assert call("floatp", 5.0) is T
        assert call("rationalp", Fraction(1, 2)) is T
        assert call("rationalp", 0.5) is NIL
        assert call("complexp", complex(1, 2)) is T
        assert call("stringp", "s") is T

    def test_not_vs_null_equivalent(self):
        for value in (NIL, T, 0, cons(1, 2)):
            assert call("not", value) is call("null", value)

    def test_zerop_on_float(self):
        assert call("zerop", 0.0) is T

    def test_oddp_requires_integer(self):
        with pytest.raises(WrongTypeError):
            call("oddp", 2.0)


class TestVectors:
    def test_make_and_length(self):
        vector = call("make-vector", 4, 0)
        assert call("vector-length", vector) == 4

    def test_set_and_ref(self):
        vector = call("make-vector", 3, NIL)
        call("vset", vector, 1, sym("hi"))
        assert call("vref", vector, 1) is sym("hi")

    def test_negative_index(self):
        with pytest.raises(LispError):
            call("vref", call("make-vector", 3, 0), -1)

    def test_vector_equality(self):
        a = LispVector([1, 2])
        b = LispVector([1, 2])
        c = LispVector([1, 3])
        assert a == b
        assert a != c

    def test_vector_repr(self):
        assert repr(LispVector([1, sym("x")])) == "#(1 x)"


class TestMisc:
    def test_identity(self):
        value = cons(1, 2)
        assert call("identity", value) is value

    def test_gensym_unique(self):
        a = call("gensym")
        b = call("gensym")
        assert a is not b
        assert not a.interned

    def test_symbol_name(self):
        assert call("symbol-name", sym("hello")) == "hello"

    def test_error_raises(self):
        with pytest.raises(LispError):
            call("error", "boom")

    def test_float_of_ratio(self):
        assert call("float", Fraction(1, 4)) == 0.25

    def test_fix_truncates(self):
        assert call("fix", 2.9) == 2
        assert call("fix", -2.9) == -2
