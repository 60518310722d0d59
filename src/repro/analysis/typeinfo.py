"""Data-type analysis (Table 1, bracketed: "[Data-type analysis.  Processing
of optional user-specified type declarations, and deduction of types of
intermediate values.]").

The paper marks this phase as not yet implemented ("A system of optional
type declarations for variables will eventually allow the compiler to make
the usual type deductions ... but this has not yet been implemented").  We
implement it as the paper sketches it: declarations seed variable types,
and a simple forward deduction propagates types to intermediate values.
The optimizer can then (optionally) rewrite generic arithmetic into the
type-specific operators the paper's examples use explicitly.

Types here are the internal representation names of Table 3 (SWFIX, SWFLO,
...), plus ``POINTER`` for "unknown/boxed" -- deliberately the same domain
the representation analysis works over.
"""

from __future__ import annotations

from typing import Optional

from ..datum import T
from ..ir.nodes import (
    CallNode,
    CaseqNode,
    CatcherNode,
    FunctionRefNode,
    IfNode,
    LambdaNode,
    LiteralNode,
    Node,
    PrognNode,
    ProgbodyNode,
    SetqNode,
    VarRefNode,
)
from ..primitives import lookup_primitive

_FIXNUM_LIMIT = 2 ** 35  # 36-bit signed words on the S-1


def literal_type(value: object) -> str:
    if isinstance(value, bool):
        return "POINTER"
    if isinstance(value, int):
        return "SWFIX" if -_FIXNUM_LIMIT <= value < _FIXNUM_LIMIT else "POINTER"
    if isinstance(value, float):
        return "SWFLO"
    if isinstance(value, complex):
        return "SWCPLX"
    return "POINTER"


# Generic operators whose result type follows their argument types when all
# arguments are known floats or all known fixnums.
_GENERIC_NUMERIC = {"+", "-", "*", "max", "min", "abs", "1+", "1-"}


def analyze_types(root: Node) -> None:
    """Decorate nodes with ``inferred_type`` (a rep name or None).

    Inferred types of let-bound variables propagate through a *local* table
    rather than the Variable's ``declared_type`` slot: declarations are user
    promises, inferences are advisory (only the representation analysis may
    treat declarations as binding).

    Assigned let variables get an *optimistic greatest-fixpoint* treatment:
    seed each with its initializer's type, then repeatedly drop any whose
    setq values fail to deliver that type (under the current assumptions)
    until stable.  At the fixpoint every kept assumption is witnessed by
    every assignment, so downstream specialization is sound.

    A pass's decoration depends only on the tree and its assumptions, so
    the analysis stops at the first pass run under the final ones: the
    seeding pass when no assigned variable is a candidate (its assumptions
    are the empty set), else the pass that confirms the fixpoint.
    """
    state = _PassState({}, {})
    _run_pass(root, state)
    if not state.candidates:
        return
    assumptions = dict(state.candidates)
    for _ in range(4):
        state = _PassState(assumptions, {})
        _run_pass(root, state)
        kept = {}
        for variable, assumed in assumptions.items():
            observed = state.setq_types.get(variable, set())
            if all(t == assumed for t in observed):
                kept[variable] = assumed
        if kept == assumptions:
            return
        assumptions = kept
    # The bound ran out before the assumptions settled: decorate under the
    # last ones.
    state = _PassState(assumptions, {})
    _run_pass(root, state)


class _PassState:
    __slots__ = ("assumptions", "candidates", "setq_types")

    def __init__(self, assumptions, candidates):
        self.assumptions = assumptions      # Variable -> assumed type
        self.candidates = candidates        # Variable -> initializer type
        self.setq_types = {}                # Variable -> set of value types


def _run_pass(root: Node, state: "_PassState") -> None:
    for node in root.walk():
        node.inferred_type = node.asserted_type
    _visit(root, dict(state.assumptions), state)


def _visit(node: Node, inferred_vars: dict,
           state: Optional["_PassState"] = None) -> Optional[str]:
    inferred: Optional[str] = None
    if isinstance(node, LiteralNode):
        inferred = literal_type(node.value)
    elif isinstance(node, VarRefNode):
        inferred = (node.variable.declared_type
                    or inferred_vars.get(node.variable))
    elif isinstance(node, SetqNode):
        inferred = _visit(node.value, inferred_vars, state)
        if state is not None:
            state.setq_types.setdefault(node.variable, set()).add(inferred)
        declared = node.variable.declared_type
        if declared is not None:
            inferred = declared
    elif isinstance(node, IfNode):
        _visit(node.test, inferred_vars, state)
        then_type = _visit(node.then, inferred_vars, state)
        else_type = _visit(node.else_, inferred_vars, state)
        inferred = then_type if then_type == else_type else None
    elif isinstance(node, PrognNode):
        for form in node.forms[:-1]:
            _visit(form, inferred_vars, state)
        inferred = _visit(node.forms[-1], inferred_vars, state)
    elif isinstance(node, LambdaNode):
        for child in node.children():
            _visit(child, inferred_vars, state)
        inferred = "POINTER"  # a closure value
    elif isinstance(node, CallNode):
        inferred = _visit_call(node, inferred_vars, state)
    elif isinstance(node, CaseqNode):
        types = set()
        _visit(node.key, inferred_vars, state)
        for _, body in node.clauses:
            types.add(_visit(body, inferred_vars, state))
        types.add(_visit(node.default, inferred_vars, state))
        inferred = types.pop() if len(types) == 1 else None
    else:
        for child in node.children():
            _visit(child, inferred_vars, state)
    # A user `the` assertion wins; otherwise record what we deduced.
    if node.asserted_type is not None:
        node.inferred_type = node.asserted_type
    elif inferred is not None:
        node.inferred_type = inferred
    return node.inferred_type


def _visit_call(node: CallNode, inferred_vars: dict,
                state: Optional["_PassState"] = None) -> Optional[str]:
    arg_types = [_visit(arg, inferred_vars, state) for arg in node.args]
    if isinstance(node.fn, LambdaNode):
        # A let: propagate argument types onto parameters.  Unassigned ones
        # take the initializer's type directly; assigned ones only under a
        # validated fixpoint assumption (recorded as a candidate first).
        for variable, arg_type in zip(node.fn.required, arg_types):
            if variable.declared_type is not None or arg_type is None:
                continue
            if not variable.is_assigned():
                inferred_vars[variable] = arg_type
            elif state is not None:
                if variable in state.assumptions:
                    inferred_vars[variable] = state.assumptions[variable]
                else:
                    state.candidates[variable] = arg_type
        for child in node.fn.children():
            _visit(child, inferred_vars, state)
        body_type = node.fn.body.inferred_type
        return body_type
    _visit(node.fn, inferred_vars, state)
    if isinstance(node.fn, FunctionRefNode):
        primitive = lookup_primitive(node.fn.name)
        if primitive is None:
            return None
        if primitive.result_rep not in ("POINTER", "BIT"):
            return primitive.result_rep
        name = node.fn.name.name
        if name in _GENERIC_NUMERIC and arg_types:
            if all(t == "SWFLO" for t in arg_types):
                return "SWFLO"
            if all(t == "SWFIX" for t in arg_types):
                return "SWFIX"
    return None
