"""Side-effects analysis (Table 1).

"For each subtree, classify the possible side-effects produced by its
execution, and the side-effects that might adversely affect such execution."

Effects are represented as frozensets of flags:

========== =============================================================
``alloc``   heap allocation.  The paper singles this out: "a side effect
            that may be eliminated but must not be duplicated".
``read``    reads mutable state (heap cells, vectors, special variables)
``write``   writes mutable state (rplaca, vset, setq of a special, ...)
``control`` non-local control flow (go / return / throw)
``any``     calls an unknown function: assume everything
========== =============================================================

Writes to *lexical* variables are tracked separately through the
environment analysis (`repro.analysis.envinfo`) because they are visible in
the tree and the optimizer reasons about them per-variable -- "it cannot
affect the variable e because e is lexically scoped" (Section 7).
"""

from __future__ import annotations

from typing import FrozenSet

from ..ir.nodes import (
    CallNode,
    CaseqNode,
    CatcherNode,
    FunctionRefNode,
    GoNode,
    IfNode,
    LambdaNode,
    LiteralNode,
    Node,
    PrognNode,
    ProgbodyNode,
    ReturnNode,
    SetqNode,
    VarRefNode,
)
from ..primitives import lookup_primitive

NO_EFFECTS: FrozenSet[str] = frozenset()
ALLOC = frozenset({"alloc"})
READ = frozenset({"read"})
WRITE = frozenset({"write"})
CONTROL = frozenset({"control"})
ANY = frozenset({"alloc", "read", "write", "control", "any"})


def analyze_effects(root: Node) -> None:
    """Decorate every node with its ``effects`` set."""
    _visit(root)


def _visit(node: Node) -> FrozenSet[str]:
    if not node.needs_reanalysis and node.effects is not None:
        return node.effects
    effects: FrozenSet[str] = NO_EFFECTS

    if isinstance(node, LiteralNode):
        effects = NO_EFFECTS
    elif isinstance(node, VarRefNode):
        effects = READ if node.variable.special else NO_EFFECTS
    elif isinstance(node, FunctionRefNode):
        effects = NO_EFFECTS
    elif isinstance(node, SetqNode):
        effects = _visit(node.value)
        if node.variable.special:
            effects = effects | WRITE
    elif isinstance(node, LambdaNode):
        # Evaluating a lambda may build a closure (an allocation); the body's
        # effects happen at call time, not now -- but we must still analyze
        # the body so its own nodes are decorated.
        for child in node.children():
            _visit(child)
        effects = ALLOC
    elif isinstance(node, CallNode):
        effects = _call_effects(node)
    elif isinstance(node, (GoNode, ReturnNode)):
        for child in node.children():
            effects = effects | _visit(child)
        effects = effects | CONTROL
    elif isinstance(node, ProgbodyNode):
        for child in node.children():
            effects = effects | _visit(child)
        # go/return *within* this progbody are handled here, not outside:
        # remove 'control' contributed by inner exits that target this node.
        if "control" in effects and _all_control_local(node):
            effects = effects - CONTROL
    elif isinstance(node, CatcherNode):
        for child in node.children():
            effects = effects | _visit(child)
        # A catcher confines throws with a matching tag, but we cannot in
        # general prove which throws it stops; keep control conservative
        # unless there are no throws below (go/return are tree-resolved).
    else:
        for child in node.children():
            effects = effects | _visit(child)

    node.effects = effects
    return effects


def _call_effects(node: CallNode) -> FrozenSet[str]:
    effects: FrozenSet[str] = NO_EFFECTS
    for arg in node.args:
        effects = effects | _visit(arg)

    fn = node.fn
    if isinstance(fn, FunctionRefNode):
        _visit(fn)  # decorate it (a bare function reference has no effects)
        primitive = lookup_primitive(fn.name)
        if primitive is not None:
            if primitive.allocates:
                effects = effects | ALLOC
            if not primitive.pure:
                effects = effects | READ | WRITE
            if fn.name.name == "throw":
                effects = effects | CONTROL
            if fn.name.name == "error":
                effects = effects | CONTROL
            return effects
        # Unknown global function: anything can happen.
        return effects | ANY
    if isinstance(fn, LambdaNode):
        # ((lambda ...) args): the body executes now.
        for child in fn.children():
            effects = effects | _visit(child)
        # Building no closure: direct call.
        return effects
    # Computed function (variable or expression): unknown.
    effects = effects | _visit(fn)
    return effects | ANY


def _all_control_local(progbody: ProgbodyNode) -> bool:
    """True if every go/return below targets this progbody and no throw or
    unknown call occurs (those contribute 'any', kept conservative)."""
    for descendant in progbody.walk():
        if isinstance(descendant, GoNode) and descendant.target is not progbody:
            return False
        if isinstance(descendant, ReturnNode) and descendant.target is not progbody:
            return False
        if isinstance(descendant, CallNode):
            fn = descendant.fn
            if isinstance(fn, FunctionRefNode):
                if fn.name.name in ("throw", "error"):
                    return False
                if lookup_primitive(fn.name) is None:
                    return False
            elif not isinstance(fn, LambdaNode):
                return False
    return True


# -- queries used by the optimizer -------------------------------------------

def is_effect_free(node: Node) -> bool:
    """No observable effects at all (may still read immutable lexicals)."""
    return node.effects is not None and node.effects <= NO_EFFECTS


def may_be_eliminated(node: Node) -> bool:
    """Safe to drop entirely: at most heap allocation ("a side effect that
    may be eliminated") and reads (reading has no observable effect if the
    value is discarded)."""
    if node.effects is None:
        _visit(node)
    return node.effects <= (ALLOC | READ)


def may_be_duplicated(node: Node) -> bool:
    """Safe to evaluate more than once: pure and allocation-free ("must not
    be duplicated" applies to allocation)."""
    if node.effects is None:
        _visit(node)
    return node.effects == NO_EFFECTS


def may_exit_nonlocally(node: Node) -> bool:
    """May leave other than by returning a value: go, return, throw, or an
    unknown function that might do any of them."""
    if node.effects is None:
        _visit(node)
    return "control" in node.effects or "any" in node.effects


def reads_mutable_state(node: Node) -> bool:
    if node.effects is None:
        _visit(node)
    return "read" in node.effects or "any" in node.effects


def writes_mutable_state(node: Node) -> bool:
    if node.effects is None:
        _visit(node)
    return "write" in node.effects or "any" in node.effects
