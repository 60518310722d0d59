"""Tree utilities shared by the optimizer: link refreshing, structural
equality, and variable substitution."""

from __future__ import annotations

from typing import Optional, Sequence, Set

from ..datum import lisp_equal
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
    TagMarker,
    Variable,
    VarRefNode,
    copy_tree,
)


def refresh_variable_links(root: Node,
                           nodes: Optional[Sequence[Node]] = None) -> None:
    """Recompute every Variable's refs/setqs lists from the live tree.

    Tree surgery (substitution, argument dropping) leaves stale entries in
    the per-variable back-pointer lists; the optimizer refreshes them after
    every rewrite so reference counts are trustworthy.  *nodes*, when
    given, is ``list(root.walk())`` already taken by the caller; refs and
    setqs come out in that (preorder) order either way.
    """
    if nodes is None:
        nodes = list(root.walk())
    variables: Set[Variable] = set()
    for node in nodes:
        if isinstance(node, VarRefNode):
            variables.add(node.variable)
        elif isinstance(node, SetqNode):
            variables.add(node.variable)
        elif isinstance(node, LambdaNode):
            variables.update(node.all_variables())
    for variable in variables:
        variable.refs = []
        variable.setqs = []
    for node in nodes:
        if isinstance(node, VarRefNode):
            node.variable.refs.append(node)
        elif isinstance(node, SetqNode):
            node.variable.setqs.append(node)


def fix_parents(root: Node) -> None:
    """Re-establish parent pointers below *root* (after tree surgery)."""
    for node in root.walk():
        for child in node.children():
            child.parent = node


def tree_equal(a: Node, b: Node) -> bool:
    """Structural equality of two subtrees.

    Variables compare by identity (alpha-converted trees make this exact);
    literals compare with ``equal``.  Used for the same-test-if rule and for
    common-subexpression detection.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, LiteralNode):
        return lisp_equal(a.value, b.value)
    if isinstance(a, VarRefNode):
        return a.variable is b.variable
    if isinstance(a, FunctionRefNode):
        return a.name is b.name
    if isinstance(a, IfNode):
        return (tree_equal(a.test, b.test) and tree_equal(a.then, b.then)
                and tree_equal(a.else_, b.else_))
    if isinstance(a, CallNode):
        if len(a.args) != len(b.args):
            return False
        return tree_equal(a.fn, b.fn) and all(
            tree_equal(x, y) for x, y in zip(a.args, b.args))
    if isinstance(a, PrognNode):
        if len(a.forms) != len(b.forms):
            return False
        return all(tree_equal(x, y) for x, y in zip(a.forms, b.forms))
    if isinstance(a, SetqNode):
        return a.variable is b.variable and tree_equal(a.value, b.value)
    # Lambdas, progbodies, caseq, catchers: conservatively unequal unless
    # identical (renamed bound variables make structural comparison subtle).
    return False


def replace_node(old: Node, new: Node) -> None:
    """Splice *new* where *old* sits; *old*'s parent must exist."""
    parent = old.parent
    if parent is None:
        raise ValueError("cannot replace the root without a holder")
    parent.replace_child(old, new)


class RootHolder(Node):
    """Sentinel parent so rules can replace the tree's real root."""

    KIND = "root-holder"
    __slots__ = ("child",)

    def __init__(self, child: Node):
        super().__init__()
        self.child = child
        child.parent = self

    def children(self):
        yield self.child

    def replace_child(self, old: Node, new: Node) -> None:
        if self.child is not old:
            raise ValueError("holder does not own this child")
        self.child = new
        new.parent = self
