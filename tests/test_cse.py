"""Unit tests for the common-subexpression-elimination phase (Section 4.3).

The paper designed (but did not implement) this as a separate, optional
phase whose output is expressible as a source-level let.
"""

import pytest

from repro import Compiler, Interpreter
from repro.datum import T, lisp_equal, sym
from repro.ir import back_translate_to_string, convert_source
from repro.options import CompilerOptions
from repro.optimizer import Transcript, eliminate_common_subexpressions
from repro.optimizer import cse as cse_module


def cse(text):
    transcript = Transcript()
    result = eliminate_common_subexpressions(convert_source(text), transcript)
    return back_translate_to_string(result), transcript


class TestCse:
    def test_repeated_expression_hoisted(self):
        text, transcript = cse("(lambda (x) (+ (* x x) (* x x)))")
        assert "META-COMMON-SUBEXPRESSION" in transcript.rules_fired()
        # Only one (* x x) remains, bound to an introduced variable.
        assert text.count("(* x x)") == 1

    def test_result_is_a_let(self):
        text, _ = cse("(lambda (x) (+ (* x x) (* x x)))")
        # Expressed as a lambda-binding (source-level let), per the paper.
        assert "(lambda (" in text

    def test_impure_not_hoisted(self):
        text, transcript = cse("(progn (frotz 1) (frotz 1))")
        assert transcript.rules_fired() == []
        assert text.count("(frotz 1)") == 2

    def test_allocation_not_hoisted(self):
        # (cons 1 2) twice must remain two allocations (eq-distinct objects).
        text, transcript = cse("(lambda () (list (cons 1 2) (cons 1 2)))")
        assert text.count("(cons 1 2)") == 2

    def test_trivial_not_hoisted(self):
        text, transcript = cse("(lambda (x) (+ x x))")
        assert transcript.rules_fired() == []

    def test_different_expressions_not_merged(self):
        text, transcript = cse("(lambda (x y) (+ (* x x) (* y y)))")
        assert transcript.rules_fired() == []

    def test_conditional_arms_not_merged_across(self):
        # Hoisting above the if would evaluate eagerly on the wrong path.
        text, transcript = cse(
            "(lambda (p x) (if p (* x x) (* x x)))")
        assert transcript.rules_fired() == []

    def test_test_plus_arm_is_hoistable(self):
        # The occurrence in the test always evaluates; hoisting is safe.
        text, transcript = cse(
            "(lambda (x) (if (zerop (* x x)) (* x x) 0))")
        assert "META-COMMON-SUBEXPRESSION" in transcript.rules_fired()

    def test_three_occurrences(self):
        text, _ = cse("(lambda (x) (+ (* x x) (* x x) (* x x)))")
        assert text.count("(* x x)") == 1

    def test_nested_repeats_hoist_outermost(self):
        text, _ = cse(
            "(lambda (x) (+ (sqrt (* x x)) (sqrt (* x x))))")
        assert text.count("(sqrt") == 1

    def test_min_complexity_respected(self, monkeypatch):
        monkeypatch.setattr(cse_module, "MIN_COMPLEXITY", 50)
        text, transcript = cse("(lambda (x) (+ (1+ x) (1+ x)))")
        assert transcript.rules_fired() == []

    def test_semantics_preserved_simple(self):
        from repro.interp import Interpreter, LispClosure
        from repro.interp.environment import LexicalEnvironment
        from repro.ir import convert_source as conv

        tree = eliminate_common_subexpressions(
            conv("(lambda (x) (+ (* x x) (* x x)))"))
        interp = Interpreter()
        closure = LispClosure(tree, LexicalEnvironment())
        assert interp.apply_function(closure, [5]) == 50


class TestCseKeepsProgramMeaning:
    """CSE must not change what a program computes: a trap that appears
    only after optimization is a bug.  Each program below computes a value
    with CSE off and must compute the same one with it on, on every target
    and tier."""

    PROGRAMS = [
        # (1+ (car b)) sits only in the untaken else arms.
        ("(defun f (a b)"
         " (cons (if a 0 (1+ (car b))) (if a 1 (1+ (car b)))))",
         "f", [T, 5]),
        # The throw leaves before either (1+ (car b)) is evaluated.
        ("(defun g (b)"
         " (catch 'k (list (throw 'k 1) (1+ (car b)) (1+ (car b)))))",
         "g", [5]),
        # The setq changes x between the occurrences of (* x x).
        ("(defun h (x) (list (* x x) (setq x 5) (* x x)))", "h", [2]),
    ]

    @pytest.mark.parametrize("tier", ["simulate", "native"])
    @pytest.mark.parametrize("target", ["s1", "vax", "pdp10"])
    @pytest.mark.parametrize("source,fn,args", PROGRAMS,
                             ids=["untaken-arm", "after-throw",
                                  "across-setq"])
    def test_same_result_as_the_interpreter(self, source, fn, args, target,
                                            tier):
        interp = Interpreter()
        interp.eval_source(source)
        expected = interp.apply_function(interp.global_functions[sym(fn)],
                                         args)
        compiler = Compiler(CompilerOptions(enable_cse=True, target=target,
                                            tier=tier))
        compiler.compile_source(source)
        assert lisp_equal(compiler.run(fn, args), expected)
