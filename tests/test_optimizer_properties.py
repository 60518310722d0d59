"""Property-based tests: every optimizer transformation must preserve the
interpreted semantics of the program.

Random expression trees over a small vocabulary are generated with
hypothesis; each is evaluated by the reference interpreter before and after
source-level optimization (and, separately, CSE).  Any divergence is an
optimizer bug.
"""


from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.datum import NIL, T, from_list, lisp_equal, sym
from repro.errors import LispError
from repro.interp import Interpreter, LispClosure
from repro.interp.environment import LexicalEnvironment
from repro.ir import Converter
from repro.options import CompilerOptions
from repro.optimizer import SourceOptimizer, eliminate_common_subexpressions
from repro.optimizer import meta

VARS = [sym("a"), sym("b"), sym("c")]


def _leaf():
    return st.one_of(
        st.integers(min_value=-20, max_value=20),
        st.sampled_from(VARS),
        st.sampled_from([NIL, T]),
    )


def _combine(children):
    unary = st.sampled_from(["1+", "1-", "zerop", "not", "abs"])
    binary = st.sampled_from(["+", "-", "*", "max", "min", "<", "=", "cons"])

    def make_unary(op, x):
        return from_list([sym(op), x])

    def make_binary(op, x, y):
        return from_list([sym(op), x, y])

    def make_if(p, x, y):
        return from_list([sym("if"), p, x, y])

    def make_let(value, body):
        return from_list([
            from_list([sym("lambda"), from_list([sym("a")]), body]),
            value,
        ])

    def make_progn(x, y):
        return from_list([sym("progn"), x, y])

    def make_nary(op, x, y, z):
        return from_list([sym(op), x, y, z])

    return st.one_of(
        st.builds(make_unary, unary, children),
        st.builds(make_binary, binary, children, children),
        st.builds(make_if, children, children, children),
        st.builds(make_let, children, children),
        st.builds(make_progn, children, children),
        st.builds(make_nary, st.sampled_from(["+", "*"]),
                  children, children, children),
    )


expressions = st.recursive(_leaf(), _combine, max_leaves=20)


def run_with_inputs(tree, inputs):
    """Wrap the tree's free a/b/c in a lambda and apply to inputs."""
    interp = Interpreter()
    closure = LispClosure(tree, LexicalEnvironment())
    try:
        return ("ok", interp.apply_function(closure, inputs))
    except LispError as err:
        return ("error", type(err).__name__)


def build_lambda(form):
    converter = Converter()
    wrapped = from_list([sym("lambda"), from_list(VARS), form])
    return converter.convert(wrapped)


def results_agree(before, after):
    """Refinement: the optimizer may *remove* run-time errors (dead-code
    elimination drops an erroring dead argument, exactly as the paper's
    rule 2 licenses) but must never introduce one or change a value."""
    if before[0] == "error":
        return True
    if after[0] == "error":
        return False
    return lisp_equal(before[1], after[1])


@settings(max_examples=120, deadline=None)
@given(form=expressions,
       a=st.integers(min_value=-10, max_value=10),
       b=st.integers(min_value=-10, max_value=10),
       c=st.integers(min_value=-10, max_value=10))
def test_optimizer_preserves_semantics(form, a, b, c):
    tree = build_lambda(form)
    reference = run_with_inputs(tree, [a, b, c])

    tree2 = build_lambda(form)
    optimized = SourceOptimizer(CompilerOptions()).optimize(tree2)
    outcome = run_with_inputs(optimized, [a, b, c])

    assert results_agree(reference, outcome), (
        f"optimizer changed semantics: {reference} -> {outcome}")


@settings(max_examples=60, deadline=None)
@given(form=expressions,
       a=st.integers(min_value=-10, max_value=10),
       b=st.integers(min_value=-10, max_value=10),
       c=st.integers(min_value=-10, max_value=10))
def test_cse_preserves_semantics(form, a, b, c):
    tree = build_lambda(form)
    reference = run_with_inputs(tree, [a, b, c])

    tree2 = build_lambda(form)
    rewritten = eliminate_common_subexpressions(tree2)
    outcome = run_with_inputs(rewritten, [a, b, c])

    assert results_agree(reference, outcome), (
        f"CSE changed semantics: {reference} -> {outcome}")


@settings(max_examples=60, deadline=None)
@given(form=expressions,
       a=st.integers(min_value=-10, max_value=10),
       b=st.integers(min_value=-10, max_value=10),
       c=st.integers(min_value=-10, max_value=10))
def test_liberal_duplication_preserves_semantics(form, a, b, c):
    """Even with an aggressive duplication limit, semantics must hold (the
    effects discipline is what protects correctness, not the size limit)."""
    tree = build_lambda(form)
    reference = run_with_inputs(tree, [a, b, c])

    tree2 = build_lambda(form)
    with patch.object(meta, "SUBSTITUTION_SIZE_LIMIT", 50), \
            patch.object(meta, "INTEGRATION_SIZE_LIMIT", 200):
        optimized = SourceOptimizer(CompilerOptions()).optimize(tree2)
    outcome = run_with_inputs(optimized, [a, b, c])

    assert results_agree(reference, outcome)


@settings(max_examples=40, deadline=None)
@given(form=expressions)
def test_optimizer_is_idempotent_observationally(form):
    """Optimizing twice gives the same program as optimizing once."""
    from repro.ir import back_translate_to_string

    tree = build_lambda(form)
    once = SourceOptimizer(CompilerOptions()).optimize(tree)
    text_once = back_translate_to_string(once)
    twice = SourceOptimizer(CompilerOptions()).optimize(once)
    text_twice = back_translate_to_string(twice)
    assert text_once == text_twice
