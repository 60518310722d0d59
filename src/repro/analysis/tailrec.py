"""Tail-recursion analysis (Table 1).

"For each node, make a list of other nodes that potentially generate its
value."

:func:`analyze_tail_positions` sets ``tail_position`` on every node: True
when the node's value is the value of the enclosing lambda body (so a call
there is "more akin to a parameter-passing goto than to a recursive call,
and can be implemented ... as a simple unconditional branch", Section 2).
It also sets ``CallNode.is_tail_call`` for calls in tail position.  Binding
and pdl-number annotation read both.

:func:`value_producers` answers the paper's question for one node: the
descendant nodes that can actually deliver its value (if arms, last progn
form, returns of a progbody, caseq bodies, ...).  It is a query; nothing
is stored on the tree.
"""

from __future__ import annotations

from typing import List

from ..ir.nodes import (
    CallNode,
    CaseqNode,
    CatcherNode,
    GoNode,
    IfNode,
    LambdaNode,
    LiteralNode,
    Node,
    PrognNode,
    ProgbodyNode,
    ReturnNode,
    SetqNode,
)


def analyze_tail_positions(root: Node) -> None:
    """Mark tail positions.  The root itself is treated as a tail position
    when it is a lambda (its body's value is the function's value)."""
    for node in root.walk():
        node.tail_position = False
        if isinstance(node, CallNode):
            node.is_tail_call = False
    if isinstance(root, LambdaNode):
        _mark(root.body, True)
        for opt in root.optionals:
            _mark(opt.default, False)
    else:
        _mark(root, False)
    # Lambdas nested anywhere: their bodies are tail positions of their own.
    for node in root.walk():
        if isinstance(node, LambdaNode) and node is not root:
            _mark(node.body, True)


def _mark(node: Node, tail: bool) -> None:
    node.tail_position = tail
    if isinstance(node, IfNode):
        _mark(node.test, False)
        _mark(node.then, tail)
        _mark(node.else_, tail)
    elif isinstance(node, PrognNode):
        for form in node.forms[:-1]:
            _mark(form, False)
        _mark(node.forms[-1], tail)
    elif isinstance(node, CallNode):
        node.is_tail_call = tail
        # A direct lambda call (let) passes tailness into the body.
        _mark(node.fn, False)
        if isinstance(node.fn, LambdaNode):
            _mark(node.fn.body, tail)
            node.fn.tail_position = False
            for opt in node.fn.optionals:
                _mark(opt.default, False)
        for arg in node.args:
            _mark(arg, False)
    elif isinstance(node, SetqNode):
        _mark(node.value, False)
    elif isinstance(node, CaseqNode):
        _mark(node.key, False)
        for _, body in node.clauses:
            _mark(body, tail)
        _mark(node.default, tail)
    elif isinstance(node, ProgbodyNode):
        # Statements in a progbody are not value positions; a return's value
        # becomes the progbody's value but a call inside `return` cannot be
        # a tail call of the *function* unless the progbody itself is in
        # tail position -- and even then the progbody's cleanup is nil, so
        # we can propagate tailness into return values.
        for item in node.children():
            if isinstance(item, ReturnNode) and item.target is node:
                item.tail_position = False
                _mark(item.value, tail)
            else:
                _mark(item, False)
    elif isinstance(node, ReturnNode):
        _mark(node.value, False)
    elif isinstance(node, CatcherNode):
        # The catch frame must be removed after the body: not a tail context.
        _mark(node.tag, False)
        _mark(node.body, False)
    elif isinstance(node, LambdaNode):
        # A lambda in value position: its body is a tail position of itself
        # (handled by the top-level sweep); defaults are not.
        pass


def value_producers(node: Node) -> List[Node]:
    """The nodes that can deliver *node*'s value (transitively through
    conditionals and sequencing)."""
    producers: List[Node] = []
    _collect_producers(node, producers)
    return producers


def _collect_producers(node: Node, out: List[Node]) -> None:
    if isinstance(node, IfNode):
        _collect_producers(node.then, out)
        _collect_producers(node.else_, out)
    elif isinstance(node, PrognNode):
        _collect_producers(node.forms[-1], out)
    elif isinstance(node, CaseqNode):
        for _, body in node.clauses:
            _collect_producers(body, out)
        _collect_producers(node.default, out)
    elif isinstance(node, ProgbodyNode):
        for descendant in node.walk():
            if isinstance(descendant, ReturnNode) and descendant.target is node:
                _collect_producers(descendant.value, out)
        out.append(node)  # falling off the end produces nil
    elif isinstance(node, CallNode) and isinstance(node.fn, LambdaNode):
        _collect_producers(node.fn.body, out)
    else:
        out.append(node)
