"""Tests for the reference interpreter (the semantics oracle)."""

from fractions import Fraction

import pytest

from repro.datum import NIL, T, sym, to_list
from repro.errors import (
    LispError,
    UnboundVariableError,
    UncaughtThrowError,
    UndefinedFunctionError,
    WrongNumberOfArgumentsError,
    WrongTypeError,
)
from repro.interp import Interpreter, evaluate


class TestSelfEvaluating:
    def test_number(self):
        assert evaluate("42") == 42

    def test_float(self):
        assert evaluate("3.5") == 3.5

    def test_string(self):
        assert evaluate('"hi"') == "hi"

    def test_quote(self):
        assert to_list(evaluate("'(1 2)")) == [1, 2]

    def test_nil_t(self):
        assert evaluate("nil") is NIL
        assert evaluate("t") is T


class TestArithmetic:
    def test_add(self):
        assert evaluate("(+ 1 2 3)") == 6

    def test_nested(self):
        assert evaluate("(* (+ 1 2) (- 10 4))") == 18

    def test_rational_division(self):
        assert evaluate("(/ 1 3)") == Fraction(1, 3)

    def test_unary_minus(self):
        assert evaluate("(- 5)") == -5

    def test_typed_float_ops(self):
        assert evaluate("(+$f 1.0 2.0 3.0)") == 6.0

    def test_fixnum_ops(self):
        assert evaluate("(*& 6 7)") == 42

    def test_comparison_chain(self):
        assert evaluate("(< 1 2 3)") is T
        assert evaluate("(< 1 3 2)") is NIL

    def test_type_error(self):
        with pytest.raises(WrongTypeError):
            evaluate("(+ 1 'a)")

    def test_sqrt_negative_goes_complex(self):
        value = evaluate("(sqrt -4)")
        assert value == complex(0.0, 2.0)

    def test_expt_negative_power_is_exact(self):
        assert evaluate("(expt 2 -3)") == Fraction(1, 8)


class TestSpecialForms:
    def test_if(self):
        assert evaluate("(if (< 1 2) 'yes 'no)") is sym("yes")

    def test_if_nil_arm(self):
        assert evaluate("(if nil 'yes)") is NIL

    def test_progn(self):
        assert evaluate("(progn 1 2 3)") == 3

    def test_let(self):
        assert evaluate("(let ((x 2) (y 3)) (* x y))") == 6

    def test_let_star(self):
        assert evaluate("(let* ((x 2) (y (* x x))) y)") == 4

    def test_let_shadowing(self):
        assert evaluate("(let ((x 1)) (let ((x 2)) x))") == 2

    def test_setq_lexical(self):
        assert evaluate("(let ((x 1)) (setq x 5) x)") == 5

    def test_cond(self):
        assert evaluate(
            "(let ((x 0)) (cond ((< x 0) 'neg) ((> x 0) 'pos) (t 'zero)))"
        ) is sym("zero")

    def test_and_or(self):
        assert evaluate("(and 1 2 3)") == 3
        assert evaluate("(and 1 nil 3)") is NIL
        assert evaluate("(or nil 2)") == 2
        assert evaluate("(or nil nil)") is NIL

    def test_or_evaluates_once(self):
        assert evaluate("""
            (defvar *count* 0)
            (defun bump () (setq *count* (+ *count* 1)) *count*)
            (or (bump) 99)
            *count*
        """) == 1

    def test_when_unless(self):
        assert evaluate("(when t 1 2)") == 2
        assert evaluate("(unless t 1)") is NIL

    def test_caseq(self):
        assert evaluate("(caseq 2 ((1) 'one) ((2 3) 'few) (t 'many))") is sym("few")

    def test_caseq_default(self):
        assert evaluate("(caseq 99 ((1) 'one))") is NIL


class TestFunctions:
    def test_defun_and_call(self):
        assert evaluate("(defun sq (x) (* x x)) (sq 7)") == 49

    def test_lambda_call_inline(self):
        assert evaluate("((lambda (x y) (+ x y)) 3 4)") == 7

    def test_closure_captures_environment(self):
        assert evaluate("""
            (defun make-adder (n) (lambda (x) (+ x n)))
            (funcall (make-adder 10) 5)
        """) == 15

    def test_closure_shares_mutable_cell(self):
        assert evaluate("""
            (defun make-counter ()
              (let ((n 0))
                (lambda () (setq n (+ n 1)) n)))
            (let ((c (make-counter)))
              (funcall c) (funcall c) (funcall c))
        """) == 3

    def test_function_value(self):
        assert evaluate("(funcall #'+ 1 2)") == 3

    def test_apply(self):
        assert evaluate("(apply #'+ 1 '(2 3))") == 6

    def test_optional_defaults(self):
        assert evaluate("""
            (defun f (a &optional (b 3.0) (c a)) (list a b c))
            (f 1)
        """).__class__.__name__ == "Cons"
        assert to_list(evaluate(
            "(defun f (a &optional (b 3.0) (c a)) (list a b c)) (f 1)")) \
            == [1, 3.0, 1]

    def test_optional_partially_supplied(self):
        assert to_list(evaluate(
            "(defun f (a &optional (b 3.0) (c a)) (list a b c)) (f 1 2)")) \
            == [1, 2, 1]

    def test_optional_fully_supplied(self):
        assert to_list(evaluate(
            "(defun f (a &optional (b 3.0) (c a)) (list a b c)) (f 1 2 9)")) \
            == [1, 2, 9]

    def test_rest_parameter(self):
        assert to_list(evaluate("(defun f (a &rest r) r) (f 1 2 3)")) == [2, 3]

    def test_wrong_arg_count(self):
        with pytest.raises(WrongNumberOfArgumentsError):
            evaluate("(defun f (a) a) (f 1 2)")

    def test_too_few_args(self):
        with pytest.raises(WrongNumberOfArgumentsError):
            evaluate("(defun f (a b) a) (f 1)")

    def test_undefined_function(self):
        with pytest.raises(UndefinedFunctionError):
            evaluate("(no-such-function 1)")

    def test_recursion(self):
        assert evaluate("""
            (defun fact (n) (if (zerop n) 1 (* n (fact (- n 1)))))
            (fact 10)
        """) == 3628800

    def test_mutual_recursion(self):
        assert evaluate("""
            (defun even? (n) (if (zerop n) t (odd? (- n 1))))
            (defun odd? (n) (if (zerop n) nil (even? (- n 1))))
            (even? 10)
        """) is T


class TestTailRecursion:
    """Section 2: tail calls 'cannot produce stack overflow no matter how
    large n is'."""

    def test_exptl_paper_example(self):
        assert evaluate("""
            (defun exptl (x n a)
              (cond ((zerop n) a)
                    ((oddp n) (exptl (* x x) (floor (/ n 2)) (* a x)))
                    (t (exptl (* x x) (floor (/ n 2)) a))))
            (exptl 2 10 1)
        """) == 1024

    def test_deep_tail_recursion_no_overflow(self):
        assert evaluate("""
            (defun countdown (n) (if (zerop n) 'done (countdown (- n 1))))
            (countdown 100000)
        """) is sym("done")

    def test_deep_mutual_tail_recursion(self):
        assert evaluate("""
            (defun even? (n) (if (zerop n) t (odd? (- n 1))))
            (defun odd? (n) (if (zerop n) nil (even? (- n 1))))
            (even? 50001)
        """) is NIL

    def test_tail_call_through_let(self):
        assert evaluate("""
            (defun loop2 (n acc)
              (if (zerop n)
                  acc
                  (let ((m (- n 1))) (loop2 m (+ acc 1)))))
            (loop2 30000 0)
        """) == 30000


class TestSpecialVariables:
    def test_defvar_global(self):
        assert evaluate("(defvar *x* 10) *x*") == 10

    def test_dynamic_binding_via_special_lambda(self):
        assert evaluate("""
            (defvar *depth* 0)
            (defun show () *depth*)
            (defun with-depth (*depth*) (show))
            (with-depth 42)
        """) == 42

    def test_dynamic_binding_unwinds(self):
        assert evaluate("""
            (defvar *x* 'global)
            (defun probe () *x*)
            (defun bind-and-probe (*x*) (probe))
            (bind-and-probe 'inner)
            (probe)
        """) is sym("global")

    def test_declare_special(self):
        assert evaluate("""
            (defun reader () my-special)
            (defun binder (x)
              ((lambda (my-special) (declare (special my-special)) (reader)) x))
            (binder 7)
        """) == 7

    def test_setq_special(self):
        assert evaluate("(defvar *y* 1) (setq *y* 99) *y*") == 99

    def test_unbound_special(self):
        with pytest.raises(UnboundVariableError):
            evaluate("completely-unbound-variable")


class TestProgAndGo:
    def test_prog_loop(self):
        assert evaluate("""
            (prog (n acc)
              (setq n 5)
              (setq acc 1)
              loop
              (if (zerop n) (return acc))
              (setq acc (* acc n))
              (setq n (- n 1))
              (go loop))
        """) == 120

    def test_prog_falls_off_end(self):
        assert evaluate("(prog (x) (setq x 1))") is NIL

    def test_do_loop(self):
        assert evaluate(
            "(do ((i 0 (1+ i)) (acc 0 (+ acc i))) ((= i 5) acc))") == 10

    def test_do_parallel_stepping(self):
        # Parallel stepping: b gets the *old* a.
        assert evaluate("""
            (do ((a 0 (1+ a)) (b 0 a)) ((= a 3) b))
        """) == 2

    def test_dotimes(self):
        assert evaluate("""
            (let ((sum 0))
              (dotimes (i 5 sum) (setq sum (+ sum i))))
        """) == 10

    def test_dolist(self):
        assert evaluate("""
            (let ((sum 0))
              (dolist (x '(1 2 3 4) sum) (setq sum (+ sum x))))
        """) == 10


class TestCatchThrow:
    def test_catch_returns_body_value(self):
        assert evaluate("(catch 'tag 42)") == 42

    def test_throw_unwinds(self):
        assert evaluate("""
            (defun inner () (throw 'out 99) 'unreached)
            (catch 'out (inner) 'also-unreached)
        """) == 99

    def test_nested_catch_matches_tag(self):
        assert evaluate("""
            (catch 'outer
              (catch 'inner
                (throw 'outer 'escaped))
              'not-this)
        """) is sym("escaped")

    def test_uncaught_throw_raises(self):
        with pytest.raises(LispError) as caught:
            evaluate("(throw 'nowhere 1)")
        assert type(caught.value) is UncaughtThrowError
        interp = Interpreter()
        interp.eval_source("(defun g () (throw 'nowhere 1))")
        with pytest.raises(LispError) as caught:
            interp.apply_function(interp.global_functions[sym("g")], [])
        assert type(caught.value) is UncaughtThrowError


class TestListPrimitives:
    def test_cons_car_cdr(self):
        assert evaluate("(car (cons 1 2))") == 1
        assert evaluate("(cdr (cons 1 2))") == 2

    def test_list(self):
        assert to_list(evaluate("(list 1 2 3)")) == [1, 2, 3]

    def test_append(self):
        assert to_list(evaluate("(append '(1) '(2 3))")) == [1, 2, 3]

    def test_reverse(self):
        assert to_list(evaluate("(reverse '(1 2 3))")) == [3, 2, 1]

    def test_length(self):
        assert evaluate("(length '(a b c))") == 3

    def test_member(self):
        assert to_list(evaluate("(member 2 '(1 2 3))")) == [2, 3]

    def test_assoc(self):
        assert to_list(evaluate("(assoc 'b '((a 1) (b 2)))")) == [sym("b"), 2]

    def test_rplaca(self):
        assert to_list(evaluate("(let ((p (list 1 2))) (rplaca p 9) p)")) == [9, 2]

    def test_eq_eql(self):
        assert evaluate("(eq 'a 'a)") is T
        assert evaluate("(eql 3 3)") is T
        assert evaluate("(eql 3 3.0)") is NIL

    def test_vectors(self):
        assert evaluate("""
            (let ((v (make-vector 3 0)))
              (vset v 0 10) (vset v 1 20)
              (+ (vref v 0) (vref v 1) (vref v 2)))
        """) == 30

    def test_vector_bounds(self):
        with pytest.raises(LispError):
            evaluate("(vref (make-vector 2 0) 5)")


class TestQuadraticEndToEnd:
    """The paper's quadratic example, executed by the interpreter."""

    SOURCE = """
        (defun quadratic (a b c)
          (let ((d (- (* b b) (* 4.0 a c))))
            (cond ((< d 0) '())
                  ((= d 0) (list (/ (- b) (* 2.0 a))))
                  (t (let ((two-a (* 2.0 a)) (sd (sqrt d)))
                       (list (/ (+ (- b) sd) two-a)
                             (/ (- (- b) sd) two-a)))))))
    """

    def test_two_roots(self):
        interp = Interpreter()
        interp.eval_source(self.SOURCE)
        roots = to_list(interp.eval_source("(quadratic 1.0 -3.0 2.0)"))
        assert roots == [2.0, 1.0]

    def test_one_root(self):
        interp = Interpreter()
        interp.eval_source(self.SOURCE)
        roots = to_list(interp.eval_source("(quadratic 1.0 -2.0 1.0)"))
        assert roots == [1.0]

    def test_no_roots(self):
        interp = Interpreter()
        interp.eval_source(self.SOURCE)
        assert interp.eval_source("(quadratic 1.0 0.0 1.0)") is NIL
