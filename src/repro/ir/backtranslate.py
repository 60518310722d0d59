"""Back-translation: internal tree -> valid source code.

"The internal tree can always be back-translated into valid source code,
equivalent to, though not necessarily identical to, the original source.
(Such a back-translation facility has been written as a debugging aid for
the compiler writers.)" -- Section 4.1.

Following the paper's printing conventions, constants are internally
explicitly quoted, "but for readability the back-translator actually omits
quote-forms around numbers" (and other self-evaluating data).
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..datum import NIL, T, Cons, from_list
from ..datum.symbols import Symbol, sym
from .nodes import (
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
)

_SELF_EVALUATING_TYPES = (int, float, complex, str)


class _Names:
    """Per-back-translation naming state: the Variable -> Symbol memo plus
    the set of names lexical variables must not be renamed into (every
    special's name -- a special *is* its name, so a lexical landing on one
    would shadow it in the re-read source)."""

    __slots__ = ("memo", "reserved")

    def __init__(self, reserved=()):
        self.memo: Dict[Variable, Symbol] = {}
        self.reserved = set(reserved)


def _variable_symbol(variable: Variable, names: _Names) -> Symbol:
    """Pick a printable name for a variable, disambiguating duplicates."""
    chosen = names.memo.get(variable)
    if chosen is not None:
        return chosen
    if variable.special:
        # A special variable's name is its identity: renaming it would
        # make the round-tripped source bind/read a *different* dynamic
        # variable.  Distinct Variable objects for the same special name
        # are the same variable, so no disambiguation is ever needed.
        names.memo[variable] = variable.name
        return variable.name
    base = variable.name.name
    taken = names.reserved | set(s.name for s in names.memo.values())
    candidate = base
    counter = 1
    while candidate in taken:
        counter += 1
        candidate = f"{base}.{counter}"
    if variable.name.interned:
        chosen = sym(candidate)
    elif candidate != base:
        # A renamed *gensym* must stay uninterned: interning the
        # disambiguated name would let the round-tripped source capture a
        # user symbol spelled the same way.
        chosen = Symbol(candidate, interned=False)
    else:
        chosen = variable.name
    names.memo[variable] = chosen
    return chosen


def _special_names(node: Node):
    """Names of every special variable in the subtree (reserved up front
    so lexical disambiguation cannot collide with them, regardless of
    printing order)."""
    reserved = set()
    for item in node.walk():
        if isinstance(item, (VarRefNode, SetqNode)) \
                and item.variable.special:
            reserved.add(item.variable.name.name)
        elif isinstance(item, LambdaNode):
            reserved.update(v.name.name for v in item.all_variables()
                            if v.special)
    return reserved


def back_translate(node: Node) -> Any:
    """Render a subtree as source data (a Lisp form)."""
    return _bt(node, _Names(_special_names(node)))


def _quote_literal(value: Any) -> Any:
    from fractions import Fraction

    if value is NIL or value is T:
        return value
    if isinstance(value, _SELF_EVALUATING_TYPES + (Fraction,)) and not isinstance(value, bool):
        return value
    return from_list([sym("quote"), _copy_conses(value, {})])


def _copy_conses(value: Any, copies: Dict[int, Cons]) -> Any:
    """*value* with its list structure copied.  Compiled code shares a
    quoted constant with the tree and may modify it (``rplaca``), and a
    back-translated form may be printed after it runs (a transcript entry
    prints when first read).  Shared and circular structure stay so."""
    if type(value) is not Cons:
        return value
    head = copies.get(id(value))
    if head is not None:
        return head
    head = last = None
    while type(value) is Cons and id(value) not in copies:
        cell = Cons(NIL, NIL)
        copies[id(value)] = cell
        cell.car = _copy_conses(value.car, copies)
        if last is None:
            head = cell
        else:
            last.cdr = cell
        last = cell
        value = value.cdr
    last.cdr = copies[id(value)] if type(value) is Cons else value
    return head


def _bt(node: Node, names: _Names) -> Any:
    if isinstance(node, LiteralNode):
        return _quote_literal(node.value)
    if isinstance(node, VarRefNode):
        return _variable_symbol(node.variable, names)
    if isinstance(node, FunctionRefNode):
        # In value position a bare name would re-read as a (special)
        # variable reference; only a call head may print unwrapped.
        return from_list([sym("function"), node.name])
    if isinstance(node, IfNode):
        return from_list([sym("if"), _bt(node.test, names),
                          _bt(node.then, names), _bt(node.else_, names)])
    if isinstance(node, LambdaNode):
        return _bt_lambda(node, names)
    if isinstance(node, CallNode):
        head = node.fn.name if isinstance(node.fn, FunctionRefNode) \
            else _bt(node.fn, names)
        return from_list([head] + [_bt(a, names) for a in node.args])
    if isinstance(node, PrognNode):
        return from_list([sym("progn")] + [_bt(f, names) for f in node.forms])
    if isinstance(node, SetqNode):
        return from_list([sym("setq"), _variable_symbol(node.variable, names),
                          _bt(node.value, names)])
    if isinstance(node, ProgbodyNode):
        items: List[Any] = []
        for item in node.items:
            if isinstance(item, TagMarker):
                items.append(item.name)
            else:
                items.append(_bt(item, names))
        return from_list([sym("progbody")] + items)
    if isinstance(node, GoNode):
        return from_list([sym("go"), node.tag])
    if isinstance(node, ReturnNode):
        return from_list([sym("return"), _bt(node.value, names)])
    if isinstance(node, CaseqNode):
        clauses: List[Any] = []
        for keys, body in node.clauses:
            clauses.append(from_list([from_list(list(keys)), _bt(body, names)]))
        clauses.append(from_list([T, _bt(node.default, names)]))
        return from_list([sym("caseq"), _bt(node.key, names)] + clauses)
    if isinstance(node, CatcherNode):
        return from_list([sym("catch"), _bt(node.tag, names),
                          _bt(node.body, names)])
    raise TypeError(f"cannot back-translate {node!r}")  # pragma: no cover


def _bt_lambda(node: LambdaNode, names: _Names) -> Any:
    lambda_list: List[Any] = [
        _variable_symbol(v, names) for v in node.required
    ]
    if node.optionals:
        lambda_list.append(sym("&optional"))
        for opt in node.optionals:
            name = _variable_symbol(opt.variable, names)
            if isinstance(opt.default, LiteralNode) and opt.default.value is NIL:
                lambda_list.append(name)
            else:
                lambda_list.append(from_list([name, _bt(opt.default, names)]))
    if node.rest is not None:
        lambda_list.append(sym("&rest"))
        lambda_list.append(_variable_symbol(node.rest, names))
    declarations = _bt_declarations(node, names)
    return from_list([sym("lambda"), from_list(lambda_list)]
                     + declarations + [_bt(node.body, names)])


#: Inverse of the converter's declarable-type table: the representation a
#: declaration assigns back to the declaration head that assigns it.
_REP_DECLARATIONS = {
    "SWFIX": "fixnum",
    "SWFLO": "single-float",
    "DWFLO": "double-float",
    "HWFLO": "short-float",
    "TWFLO": "long-float",
    "SWCPLX": "complex",
}


def _bt_declarations(node: LambdaNode,
                     names: _Names) -> List[Any]:
    """Reconstruct ``(declare ...)`` forms so locally declared specials and
    types survive the round trip (re-conversion reads them back)."""
    specials: List[Symbol] = []
    typed: List[Any] = []
    for variable in node.all_variables():
        if variable.special:
            specials.append(_variable_symbol(variable, names))
        head = _REP_DECLARATIONS.get(variable.declared_type or "")
        if head is not None:
            typed.append(from_list([sym(head),
                                    _variable_symbol(variable, names)]))
    clauses: List[Any] = []
    if specials:
        clauses.append(from_list([sym("special")] + specials))
    clauses.extend(typed)
    if not clauses:
        return []
    return [from_list([sym("declare")] + clauses)]


def back_translate_to_string(node: Node) -> str:
    from ..reader.printer import write_to_string

    return write_to_string(back_translate(node))
