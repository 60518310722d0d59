"""The internal tree: the paper's Table 2 node set.

Each node corresponds "quite directly to one of a small number of source-
level constructs": constants (``literal``), variable references, ``caseq``,
``catcher``, ``go``, ``if``, ``lambda``, ``progbody``, ``progn``, ``return``,
``setq``, and ``call``.  All other constructs are macro-expanded into this
set before any analysis runs, and the tree can always be back-translated to
valid source (`repro.ir.backtranslate`).

There is deliberately *no central symbol table*: "with every distinct
variable ... is associated a little data structure; the construct that binds
the variable and all references to the variable all point to the data
structure, which has back-pointers to the binding and all the references"
(Section 4.1).  That little data structure is :class:`Variable` here.

Every node also carries the "extra data slots ... filled in by successive
phases of the compiler": effect sets, representation annotations
(WANTREP/ISREP), pdl flags (PDLOKP/PDLNUMP), and TN links.  They start
``None`` and are populated by `repro.analysis`, `repro.annotate`, and
`repro.tnbind`.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..datum import NIL
from ..datum.symbols import Symbol

_NODE_IDS = itertools.count(1)
_VARIABLE_IDS = itertools.count(1)


class Variable:
    """Per-variable data structure (the distributed symbol table entry).

    Two variables with the same name are distinct objects when bound by
    different constructs; alpha-conversion happens implicitly because
    conversion allocates a fresh Variable per binding.
    """

    __slots__ = (
        "uid",
        "name",
        "binder",        # LambdaNode that binds it, or None for specials
        "refs",          # list of VarRefNode
        "setqs",         # list of SetqNode
        "special",       # dynamically scoped?
        "declared_type", # optional user type declaration (a rep name or None)
        "rep",           # representation chosen by representation analysis
        "heap_allocated",  # binding annotation: must live in a heap env
        "tn",            # TNBIND's temporary name for this variable
        "lookup_node",   # specials: node before which the binding is cached
    )

    def __init__(self, name: Symbol, binder: Optional["LambdaNode"] = None,
                 special: bool = False):
        self.uid = next(_VARIABLE_IDS)
        self.name = name
        self.binder = binder
        self.refs: List["VarRefNode"] = []
        self.setqs: List["SetqNode"] = []
        self.special = special
        self.declared_type: Optional[str] = None
        self.rep: Optional[str] = None
        self.heap_allocated = False
        self.tn = None
        self.lookup_node = None

    def __repr__(self) -> str:
        kind = "special " if self.special else ""
        return f"#<{kind}var {self.name}.{self.uid}>"

    def is_assigned(self) -> bool:
        return bool(self.setqs)


class Node:
    """Base class for internal tree nodes."""

    KIND = "node"

    __slots__ = (
        "uid",
        "parent",
        "source",
        # analysis annotations
        "reads", "writes", "effects", "affected_by", "complexity",
        "value_producers", "inferred_type", "asserted_type", "tail_position",
        # machine-dependent annotations
        "wantrep", "isrep", "pdlokp", "pdlnump",
        "want_tn", "is_tn", "pdl_tn",
        "needs_reanalysis",
    )

    def __init__(self) -> None:
        self.uid = next(_NODE_IDS)
        self.parent: Optional[Node] = None
        self.source: Any = None
        self.reads = None
        self.writes = None
        self.effects = None
        self.affected_by = None
        self.complexity = None
        self.value_producers = None
        self.inferred_type = None
        self.asserted_type = None  # user (the TYPE ...) assertion
        self.tail_position = False
        self.wantrep = None
        self.isrep = None
        self.pdlokp = None
        self.pdlnump = None
        self.want_tn = None
        self.is_tn = None
        self.pdl_tn = None
        self.needs_reanalysis = True

    # -- tree protocol -----------------------------------------------------

    def children(self) -> Iterator["Node"]:
        return iter(())

    def replace_child(self, old: "Node", new: "Node") -> None:
        raise ValueError(f"{self!r} has no child {old!r}")

    def adopt(self, *children: Optional["Node"]) -> None:
        for child in children:
            if child is not None:
                child.parent = self

    def walk(self) -> Iterator["Node"]:
        """Preorder traversal of the subtree rooted here.

        Iterative: a stack of ``children()`` iterators, each opened just
        after its node is yielded (as a recursive generator would), so a
        walk costs O(nodes) rather than O(nodes x depth) and a deep tree
        cannot exhaust the interpreter's recursion limit."""
        stack = [iter((self,))]
        while stack:
            for node in stack[-1]:
                yield node
                stack.append(node.children())
                break
            else:
                stack.pop()

    def mark_dirty(self) -> None:
        """Flag this node and its ancestors for incremental re-analysis."""
        node: Optional[Node] = self
        while node is not None and not node.needs_reanalysis:
            node.needs_reanalysis = True
            node = node.parent
        if node is not None:
            node.needs_reanalysis = True

    def __repr__(self) -> str:
        from .backtranslate import back_translate
        from ..reader.printer import write_to_string

        try:
            return f"#<{self.KIND} {write_to_string(back_translate(self))}>"
        except Exception:  # pragma: no cover - debugging robustness
            return f"#<{self.KIND} node {self.uid}>"


class LiteralNode(Node):
    """A constant (the LISP ``quote`` construct)."""

    KIND = "literal"
    __slots__ = ("value",)

    def __init__(self, value: Any):
        super().__init__()
        self.value = value


class VarRefNode(Node):
    """A variable reference; points at its Variable, which points back."""

    KIND = "variable"
    __slots__ = ("variable",)

    def __init__(self, variable: Variable):
        super().__init__()
        self.variable = variable
        variable.refs.append(self)


class FunctionRefNode(Node):
    """Reference to a named global function or primitive (``#'f`` or a call
    head that is not lexically bound)."""

    KIND = "function-ref"
    __slots__ = ("name",)

    def __init__(self, name: Symbol):
        super().__init__()
        self.name = name


class IfNode(Node):
    KIND = "if"
    __slots__ = ("test", "then", "else_")

    def __init__(self, test: Node, then: Node, else_: Node):
        super().__init__()
        self.test = test
        self.then = then
        self.else_ = else_
        self.adopt(test, then, else_)

    def children(self) -> Iterator[Node]:
        yield self.test
        yield self.then
        yield self.else_

    def replace_child(self, old: Node, new: Node) -> None:
        if self.test is old:
            self.test = new
        elif self.then is old:
            self.then = new
        elif self.else_ is old:
            self.else_ = new
        else:
            raise ValueError(f"{self!r} has no child {old!r}")
        new.parent = self
        self.mark_dirty()


class OptionalParam:
    """One &optional parameter: variable plus its default-value expression.

    The default "may perform any computation, and may refer to other
    parameters occurring earlier in the same formal parameter set"
    (Section 2) -- so the default is a full Node evaluated in scope.
    """

    __slots__ = ("variable", "default")

    def __init__(self, variable: Variable, default: Node):
        self.variable = variable
        self.default = default


# How a lambda will be compiled; set by the binding-annotation phase.
STRATEGY_UNKNOWN = "unknown"
STRATEGY_JUMP = "jump"            # all calls known & tail: parameter-passing goto
STRATEGY_FAST_CALL = "fast-call"  # all calls known: special fast linkage
STRATEGY_FULL_CLOSURE = "closure" # escapes: construct a closure object


class LambdaNode(Node):
    """A lambda-expression; its value is a function (a lexical closure)."""

    KIND = "lambda"
    __slots__ = ("required", "optionals", "rest", "body", "name_hint",
                 "strategy", "needs_heap_env", "known_calls", "escapes")

    def __init__(self, required: Sequence[Variable],
                 optionals: Sequence[OptionalParam],
                 rest: Optional[Variable], body: Node,
                 name_hint: Optional[str] = None):
        super().__init__()
        self.required = list(required)
        self.optionals = list(optionals)
        self.rest = rest
        self.body = body
        self.name_hint = name_hint
        self.strategy = STRATEGY_UNKNOWN
        self.needs_heap_env = False
        self.known_calls: List["CallNode"] = []
        self.escapes = False
        for variable in self.required:
            variable.binder = self
        for opt in self.optionals:
            opt.variable.binder = self
            self.adopt(opt.default)
        if rest is not None:
            rest.binder = self
        self.adopt(body)

    def children(self) -> Iterator[Node]:
        for opt in self.optionals:
            yield opt.default
        yield self.body

    def replace_child(self, old: Node, new: Node) -> None:
        for opt in self.optionals:
            if opt.default is old:
                opt.default = new
                new.parent = self
                self.mark_dirty()
                return
        if self.body is old:
            self.body = new
            new.parent = self
            self.mark_dirty()
            return
        raise ValueError(f"{self!r} has no child {old!r}")

    def all_variables(self) -> List[Variable]:
        variables = list(self.required)
        variables.extend(opt.variable for opt in self.optionals)
        if self.rest is not None:
            variables.append(self.rest)
        return variables

    def min_args(self) -> int:
        return len(self.required)

    def max_args(self) -> Optional[int]:
        if self.rest is not None:
            return None
        return len(self.required) + len(self.optionals)

    def is_simple(self) -> bool:
        """True when there are no optionals and no rest parameter."""
        return not self.optionals and self.rest is None


class CallNode(Node):
    """Function invocation.  Three special cases of interest (Table 2):
    calling a lambda-expression (a ``let``), calling a known primitive
    (in-line), and calling a user/system function (by name or value)."""

    KIND = "call"
    __slots__ = ("fn", "args", "is_tail_call")

    def __init__(self, fn: Node, args: Sequence[Node]):
        super().__init__()
        self.fn = fn
        self.args = list(args)
        self.is_tail_call = False
        self.adopt(fn, *self.args)

    def children(self) -> Iterator[Node]:
        yield self.fn
        yield from self.args

    def replace_child(self, old: Node, new: Node) -> None:
        if self.fn is old:
            self.fn = new
        else:
            for i, arg in enumerate(self.args):
                if arg is old:
                    self.args[i] = new
                    break
            else:
                raise ValueError(f"{self!r} has no child {old!r}")
        new.parent = self
        self.mark_dirty()

    def is_let(self) -> bool:
        return isinstance(self.fn, LambdaNode)

    def primitive_name(self) -> Optional[Symbol]:
        from ..primitives import is_primitive

        if isinstance(self.fn, FunctionRefNode) and is_primitive(self.fn.name):
            return self.fn.name
        return None


class PrognNode(Node):
    """Sequential execution; value of the last form."""

    KIND = "progn"
    __slots__ = ("forms",)

    def __init__(self, forms: Sequence[Node]):
        super().__init__()
        self.forms = list(forms)
        if not self.forms:
            self.forms = [LiteralNode(NIL)]
        self.adopt(*self.forms)

    def children(self) -> Iterator[Node]:
        yield from self.forms

    def replace_child(self, old: Node, new: Node) -> None:
        for i, form in enumerate(self.forms):
            if form is old:
                self.forms[i] = new
                new.parent = self
                self.mark_dirty()
                return
        raise ValueError(f"{self!r} has no child {old!r}")


class SetqNode(Node):
    KIND = "setq"
    __slots__ = ("variable", "value")

    def __init__(self, variable: Variable, value: Node):
        super().__init__()
        self.variable = variable
        self.value = value
        variable.setqs.append(self)
        self.adopt(value)

    def children(self) -> Iterator[Node]:
        yield self.value

    def replace_child(self, old: Node, new: Node) -> None:
        if self.value is not old:
            raise ValueError(f"{self!r} has no child {old!r}")
        self.value = new
        new.parent = self
        self.mark_dirty()


class TagMarker:
    """A go-tag inside a progbody.  Not a Node: tags are control artifacts,
    not expressions."""

    __slots__ = ("name", "uses")

    def __init__(self, name: Symbol):
        self.name = name
        self.uses: List["GoNode"] = []

    def __repr__(self) -> str:
        return f"#<tag {self.name}>"


class ProgbodyNode(Node):
    """Tagged statement sequence: ``go`` jumps to a tag, ``return`` exits.

    The usual LISP ``prog`` translates into a ``let`` (a lambda call) whose
    body is a progbody.  Items are Nodes interleaved with TagMarkers.
    The progbody's value, if control falls off the end, is nil.
    """

    KIND = "progbody"
    __slots__ = ("items",)

    def __init__(self, items: Sequence[Any]):
        super().__init__()
        self.items = list(items)
        self.adopt(*[item for item in self.items if isinstance(item, Node)])

    def children(self) -> Iterator[Node]:
        for item in self.items:
            if isinstance(item, Node):
                yield item

    def replace_child(self, old: Node, new: Node) -> None:
        for i, item in enumerate(self.items):
            if item is old:
                self.items[i] = new
                new.parent = self
                self.mark_dirty()
                return
        raise ValueError(f"{self!r} has no child {old!r}")

    def find_tag(self, name: Symbol) -> Optional[TagMarker]:
        for item in self.items:
            if isinstance(item, TagMarker) and item.name is name:
                return item
        return None


class GoNode(Node):
    """Goto statement; may only target a tag of a lexically visible
    progbody."""

    KIND = "go"
    __slots__ = ("tag", "target")

    def __init__(self, tag: Symbol, target: ProgbodyNode):
        super().__init__()
        self.tag = tag
        self.target = target


class ReturnNode(Node):
    """Exit from the (innermost lexically visible) progbody with a value."""

    KIND = "return"
    __slots__ = ("value", "target")

    def __init__(self, value: Node, target: ProgbodyNode):
        super().__init__()
        self.value = value
        self.target = target
        self.adopt(value)

    def children(self) -> Iterator[Node]:
        yield self.value

    def replace_child(self, old: Node, new: Node) -> None:
        if self.value is not old:
            raise ValueError(f"{self!r} has no child {old!r}")
        self.value = new
        new.parent = self
        self.mark_dirty()


class CaseqNode(Node):
    """A case statement dispatching on eql-comparable keys.

    ``clauses`` is a list of (keys, body) where keys is a tuple of constants;
    ``default`` runs when nothing matches (the ``t`` clause or implicit nil).
    """

    KIND = "caseq"
    __slots__ = ("key", "clauses", "default")

    def __init__(self, key: Node, clauses: Sequence[Tuple[Tuple[Any, ...], Node]],
                 default: Node):
        super().__init__()
        self.key = key
        self.clauses = [(tuple(keys), body) for keys, body in clauses]
        self.default = default
        self.adopt(key, default, *[body for _, body in self.clauses])

    def children(self) -> Iterator[Node]:
        yield self.key
        for _, body in self.clauses:
            yield body
        yield self.default

    def replace_child(self, old: Node, new: Node) -> None:
        if self.key is old:
            self.key = new
        elif self.default is old:
            self.default = new
        else:
            for i, (keys, body) in enumerate(self.clauses):
                if body is old:
                    self.clauses[i] = (keys, new)
                    break
            else:
                raise ValueError(f"{self!r} has no child {old!r}")
        new.parent = self
        self.mark_dirty()


class CatcherNode(Node):
    """Analogous to the MACLISP catch construct: a target for non-local
    exits.  ``(catch tag-expr body...)``; throw is an ordinary call."""

    KIND = "catcher"
    __slots__ = ("tag", "body")

    def __init__(self, tag: Node, body: Node):
        super().__init__()
        self.tag = tag
        self.body = body
        self.adopt(tag, body)

    def children(self) -> Iterator[Node]:
        yield self.tag
        yield self.body

    def replace_child(self, old: Node, new: Node) -> None:
        if self.tag is old:
            self.tag = new
        elif self.body is old:
            self.body = new
        else:
            raise ValueError(f"{self!r} has no child {old!r}")
        new.parent = self
        self.mark_dirty()


def copy_tree(node: Node, variable_map: Optional[Dict[Variable, Variable]] = None) -> Node:
    """Deep-copy a subtree, freshly renaming all variables bound inside it.

    Used by procedure integration (substituting a lambda-expression for a
    variable duplicates its body) -- "all variables ... have effectively been
    uniformly renamed to prevent scoping problems" (Section 5).
    Free variables (bound outside the copied subtree) keep their identity.
    """
    if variable_map is None:
        variable_map = {}

    def fresh(variable: Variable) -> Variable:
        clone = Variable(variable.name, special=variable.special)
        clone.declared_type = variable.declared_type
        variable_map[variable] = clone
        return clone

    def copy(node: Node) -> Node:
        if isinstance(node, LiteralNode):
            return LiteralNode(node.value)
        if isinstance(node, VarRefNode):
            return VarRefNode(variable_map.get(node.variable, node.variable))
        if isinstance(node, FunctionRefNode):
            return FunctionRefNode(node.name)
        if isinstance(node, IfNode):
            return IfNode(copy(node.test), copy(node.then), copy(node.else_))
        if isinstance(node, LambdaNode):
            required = [fresh(v) for v in node.required]
            optionals = []
            for opt in node.optionals:
                # Default expressions may refer to earlier params; the param
                # variable must be fresh *before* we copy the default of
                # later params, so order matters here.
                new_var = fresh(opt.variable)
                optionals.append(OptionalParam(new_var, copy(opt.default)))
            rest = fresh(node.rest) if node.rest is not None else None
            clone = LambdaNode(required, optionals, rest, copy(node.body),
                               name_hint=node.name_hint)
            return clone
        if isinstance(node, CallNode):
            return CallNode(copy(node.fn), [copy(a) for a in node.args])
        if isinstance(node, PrognNode):
            return PrognNode([copy(f) for f in node.forms])
        if isinstance(node, SetqNode):
            return SetqNode(variable_map.get(node.variable, node.variable),
                            copy(node.value))
        if isinstance(node, ProgbodyNode):
            clone = ProgbodyNode([])
            clone.items = []
            # Register the mapping first so nested go/return retarget to the
            # clone while their subtrees are being copied.
            nonlocal_progbody_map[node] = clone
            for item in node.items:
                if isinstance(item, TagMarker):
                    clone.items.append(TagMarker(item.name))
                else:
                    copied = copy(item)
                    clone.items.append(copied)
                    copied.parent = clone
            del nonlocal_progbody_map[node]
            return clone
        if isinstance(node, GoNode):
            target = nonlocal_progbody_map.get(node.target, node.target)
            return GoNode(node.tag, target)
        if isinstance(node, ReturnNode):
            target = nonlocal_progbody_map.get(node.target, node.target)
            return ReturnNode(copy(node.value), target)
        if isinstance(node, CaseqNode):
            return CaseqNode(copy(node.key),
                             [(keys, copy(body)) for keys, body in node.clauses],
                             copy(node.default))
        if isinstance(node, CatcherNode):
            return CatcherNode(copy(node.tag), copy(node.body))
        raise TypeError(f"cannot copy node {node!r}")  # pragma: no cover

    nonlocal_progbody_map: Dict[ProgbodyNode, ProgbodyNode] = {}
    return copy(node)
