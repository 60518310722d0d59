"""Common sub-expression elimination (Section 4.3).

The paper left this phase unimplemented ("Common sub-expression elimination
has not yet been implemented, because preliminary experiments indicate that
its contribution to program speed will be smaller than the other techniques
...  Like the source-level optimization phase, its use is completely
optional, for it only affects the efficiency of the resulting code and can
be expressed as a source-level transformation using lambda-expressions.")

We implement it exactly as the paper designed it: as a *separate phase*
(avoiding the introduction/elimination thrashing problem of Section 4.3)
whose output is a source-level ``let``: the repeated expression becomes a
lambda-binding wrapped around the smallest common ancestor.

Only pure, allocation-free expressions are eligible (duplicated evaluation
of those is what CSE removes; anything with effects must keep its
evaluation points).  Pure is not total: ``(car b)`` traps when ``b`` is not
a list.  The binding evaluates the expression before anything else in the
form it wraps, so a group is hoisted only when that form evaluates one of
its occurrences on every path and nothing evaluated ahead of that
occurrence can exit non-locally (:func:`_evaluated_on_every_path`).
Otherwise a trap that only an untaken arm, or a form after a ``throw``,
could raise would be raised unconditionally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis import analyze_light, may_be_duplicated, may_exit_nonlocally
from ..datum import gensym
from ..ir.nodes import (
    CallNode,
    FunctionRefNode,
    IfNode,
    LambdaNode,
    LiteralNode,
    Node,
    PrognNode,
    Variable,
    VarRefNode,
)
from .transcript import Transcript, capture, render_node
from .treeutil import RootHolder, fix_parents, refresh_variable_links, tree_equal

#: The least complexity an expression needs to be worth a binding: below
#: it, recomputing is as cheap as keeping the value.
MIN_COMPLEXITY = 3


def eliminate_common_subexpressions(
        root: Node, transcript: Optional[Transcript] = None) -> Node:
    """Hoist repeated pure subexpressions into introduced lambda bindings.
    No option tunes the phase: ``enable_cse`` decides whether it runs."""
    transcript = transcript or Transcript()
    holder = RootHolder(root)
    if transcript.trace_rewrites:
        transcript.begin_root(render_node(holder.child))
    # Iterate until no more profitable candidates (each round introduces one
    # binding, largest candidates first).
    for _round in range(50):
        refresh_variable_links(holder.child)
        fix_parents(holder.child)
        analyze_light(holder.child)
        if not _hoist_one(holder, transcript):
            break
    return holder.child


def _hoist_one(holder: RootHolder, transcript: Transcript) -> bool:
    groups = _candidate_groups(holder.child)
    if not groups:
        return False
    # Largest (most expensive) expression first.
    groups.sort(key=lambda group: -(group[0].complexity or 0))
    representative, occurrences = groups[0]
    ancestor = _common_ancestor(occurrences)
    if ancestor is None or ancestor.parent is None:
        return False
    if not any(_evaluated_on_every_path(n, ancestor) for n in occurrences):
        return False

    before = capture(ancestor)
    variable = Variable(gensym("cse"))
    parent = ancestor.parent  # capture before the wrapper re-parents ancestor
    for occurrence in occurrences:
        occurrence.parent.replace_child(occurrence, VarRefNode(variable))
    wrapper = LambdaNode([variable], [], None, ancestor)
    call = CallNode(wrapper, [representative])
    parent.replace_child(ancestor, call)
    fix_parents(call)
    transcript.record("META-COMMON-SUBEXPRESSION", before, call,
                      phase="cse")
    if transcript.trace_rewrites:
        transcript.attach_root(render_node(holder.child))
    return True


def _candidate_groups(root: Node) -> List[Tuple[Node, List[Node]]]:
    """Group structurally equal pure subexpressions occurring >= 2 times."""
    buckets: Dict[str, List[Node]] = {}
    for node in root.walk():
        if not isinstance(node, CallNode):
            continue
        if not isinstance(node.fn, FunctionRefNode):
            continue
        if (node.complexity or 0) < MIN_COMPLEXITY:
            continue
        if not may_be_duplicated(node):
            continue
        # A variable it reads is assigned somewhere: two occurrences need
        # not compute the same value.
        if any(variable.is_assigned() for variable in node.reads):
            continue
        key = render_node(node)
        buckets.setdefault(key, []).append(node)
    groups: List[Tuple[Node, List[Node]]] = []
    for nodes in buckets.values():
        if len(nodes) < 2:
            continue
        # Nested occurrences (one inside another) are the same computation;
        # keep only outermost-disjoint occurrences.
        disjoint = [n for n in nodes
                    if not any(other is not n and _is_under(n, other)
                               for other in nodes)]
        if len(disjoint) < 2:
            continue
        if not all(tree_equal(disjoint[0], other) for other in disjoint[1:]):
            continue
        groups.append((disjoint[0], disjoint))
    return groups


def _evaluated_on_every_path(node: Node, ancestor: Node) -> bool:
    """True when every evaluation of *ancestor* reaches *node*: each step
    up from *node* is a call's function or argument, an ``if`` test, a
    ``progn`` form or the body of an immediately-applied lambda, and no
    form evaluated before *node* may exit non-locally (``control`` or
    ``any`` in its effects)."""
    child = node
    while child is not ancestor:
        parent = child.parent
        if isinstance(parent, CallNode):
            if child is parent.fn:
                # The arguments are evaluated before the function runs.
                earlier = parent.args
            else:
                earlier = [parent.fn] + parent.args[:parent.args.index(child)]
        elif isinstance(parent, IfNode):
            if child is not parent.test:
                return False
            earlier = []
        elif isinstance(parent, PrognNode):
            earlier = parent.forms[:parent.forms.index(child)]
        elif isinstance(parent, LambdaNode):
            call = parent.parent
            if child is not parent.body or not (
                    isinstance(call, CallNode) and call.fn is parent):
                return False
            earlier = [optional.default for optional in parent.optionals]
        else:
            return False
        if any(may_exit_nonlocally(form) for form in earlier):
            return False
        child = parent
    return True


def _is_under(node: Node, ancestor: Node) -> bool:
    current: Optional[Node] = node
    while current is not None:
        if current is ancestor:
            return True
        current = current.parent
    return False


def _common_ancestor(nodes: List[Node]) -> Optional[Node]:
    paths: List[List[Node]] = []
    for node in nodes:
        path: List[Node] = []
        current: Optional[Node] = node
        while current is not None:
            path.append(current)
            current = current.parent
        paths.append(list(reversed(path)))
    shortest = min(len(p) for p in paths)
    ancestor: Optional[Node] = None
    for i in range(shortest):
        candidates = {id(p[i]) for p in paths}
        if len(candidates) == 1:
            ancestor = paths[0][i]
        else:
            break
    # Never choose one of the occurrences themselves.
    if ancestor in nodes:
        return ancestor.parent
    return ancestor
