"""The source-level optimizer ("meta-evaluator").

Implements Section 5 of the paper.  The three most important transformations
are the three partial beta-conversion rules:

1. ``((lambda () body))  =>  body``
2. drop an unused parameter whose argument's only effect is (at most)
   heap allocation -- "a side effect that may be eliminated but must not be
   duplicated",
3. substitute an argument expression for occurrences of its parameter,
   "provided that certain complicated conditions regarding side effects are
   satisfied".

"Together the three rules constitute the lambda-calculus rule of
beta-conversion"; constant propagation and procedure integration fall out as
special cases, and boolean short-circuiting falls out of the nested-``if``
distribution rule plus simplification.

Each fired rule records a transcript entry in the style of the paper's
Section 7 compiler listing (``;**** Optimizing this form ... courtesy of
META-...``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis import (
    analyze_light,
    analyze_types,
    may_be_duplicated,
    may_be_eliminated,
)
from ..datum import NIL, T, gensym, lisp_equal, sym
from ..diagnostics import Diagnostics
from ..errors import LispError
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
from ..options import CompilerOptions, DEFAULT_OPTIONS
from ..primitives import Primitive, lookup_primitive
from .transcript import Form, Transcript, capture, render_node
from .treeutil import (
    RootHolder,
    fix_parents,
    refresh_variable_links,
    tree_equal,
)

# 1/(2*pi) rounded to the paper's printed precision: the conversion factor
# for the machine-inspired sin$f -> sinc$f rewrite (Section 7).
SINC_FACTOR = 0.159154942

_SIN_TO_CYCLES = {
    "sin$f": "sinc$f",
    "cos$f": "cosc$f",
}

_TYPE_SPECIALIZATIONS = {
    ("+", "SWFLO"): "+$f", ("-", "SWFLO"): "-$f",
    ("*", "SWFLO"): "*$f", ("/", "SWFLO"): "/$f",
    ("max", "SWFLO"): "max$f", ("min", "SWFLO"): "min$f",
    ("abs", "SWFLO"): "abs$f", ("sqrt", "SWFLO"): "sqrt$f",
    ("sin", "SWFLO"): "sin$f", ("cos", "SWFLO"): "cos$f",
    ("=", "SWFLO"): "=$f", ("<", "SWFLO"): "<$f", (">", "SWFLO"): ">$f",
    ("+", "SWFIX"): "+&", ("-", "SWFIX"): "-&", ("*", "SWFIX"): "*&",
    ("=", "SWFIX"): "=&", ("<", "SWFIX"): "<&", (">", "SWFIX"): ">&",
    ("<=", "SWFIX"): "<=&", (">=", "SWFIX"): ">=&",
}


# "Right now the heuristics for introduction are relatively conservative"
# (Section 5).  Complexity bounds on the code a rule may copy:
#: META-SUBSTITUTE duplicates a pure argument into its several use sites
#: only while the copies cost at most this much in total.
SUBSTITUTION_SIZE_LIMIT = 2
#: META-SUBSTITUTE moves a lambda argument with more than one use only
#: when the lambda is at most this complex.
INTEGRATION_SIZE_LIMIT = 40
#: META-INTEGRATE-GLOBAL inlines a known defun at most this complex.
GLOBAL_INTEGRATION_LIMIT = 30

# Bounds on the whole fixpoint, against rule-interaction cycles
# (self-expanding forms); running out of either records a warning.
#: Scans of the tree before the optimizer stops looking for a fixpoint.
MAX_PASSES = 20
#: Rule firings one optimize() call may make in total.
OPTIMIZER_FUEL = 2000


Rule = Callable[[Node], Optional[Node]]


class SourceOptimizer:
    """Fixpoint-driven source-to-source transformer."""

    def __init__(self, options: Optional[CompilerOptions] = None,
                 transcript: Optional[Transcript] = None,
                 global_functions: Optional[dict] = None,
                 diagnostics: Optional["Diagnostics"] = None):
        self.options = options or DEFAULT_OPTIONS
        self.transcript = transcript if transcript is not None else Transcript(
            trace_rewrites=self.options.trace_rewrites)
        # Known defuns available for integration (block compilation).
        self.global_functions = global_functions or {}
        self.diagnostics = diagnostics
        #: True when the last optimize() ended without observing a fixpoint
        #: (pass budget or fuel ran out while rules were still firing).
        self.hit_pass_limit = False
        self._integration_counts: dict = {}
        self._fired = 0
        from ..target.machines import get_target

        #: META-SIN-TO-SINC's precondition: the target's sine takes cycles.
        self._sin_in_cycles = get_target(self.options.target).sin_in_cycles
        #: The whole table as ``(name, rule, gate)``, gates unapplied: the
        #: rule inventory, enabled or not, for tests and tools to enumerate.
        #: ``gate`` names the option that switches an opt-in rule on; it
        #: is None for a rule that runs whenever the optimizer runs.
        self._rules: List[Tuple[str, Rule, Optional[str]]] = []
        #: The engine's resolved table: node class -> the enabled rules
        #: that match it, in table order.
        self._rules_by_class: Dict[type, List[Rule]] = {}
        self._build_rule_table()

    # -- public entry ---------------------------------------------------------

    def optimize(self, root: Node) -> Node:
        if not self.options.optimize:
            return root
        holder = RootHolder(root)
        if self.transcript.trace_rewrites:
            self.transcript.begin_root(render_node(holder.child))
        self._fuel = OPTIMIZER_FUEL
        self.hit_pass_limit = False
        changed = False
        for _pass in range(MAX_PASSES):
            nodes = list(holder.child.walk())
            refresh_variable_links(holder.child, nodes)
            fix_parents(holder.child)
            self.analyze_pass(holder.child, nodes)
            changed = self._run_pass(holder, nodes)
            if not changed:
                break
            if self._fuel <= 0:
                break
        if changed:
            # The loop never saw a no-progress pass: the tree may still be
            # self-expanding.  Stop (bounded) and say so instead of silently
            # looping or over-firing.
            self.hit_pass_limit = True
            if self.diagnostics is not None:
                if self._fuel <= 0:
                    detail = (f"fuel exhausted after {OPTIMIZER_FUEL} rule "
                              f"firings")
                else:
                    detail = f"stopped at max_passes={MAX_PASSES}"
                self.diagnostics.warn(
                    f"optimizer did not reach a fixpoint ({detail})",
                    phase="optimizer")
        return holder.child

    def rules_fired(self) -> List[str]:
        return self.transcript.rules_fired()

    def analyze_pass(self, root: Node,
                     nodes: Optional[List[Node]] = None) -> None:
        """What a pass start analyses: the bottom-up analyses every rule
        reads, and types only while META-TYPE-SPECIALIZE, their one reader,
        is enabled.  Within a pass each firing re-runs only the bottom-up
        analyses, so types stay as the pass start left them.  *nodes* is
        ``list(root.walk())`` when the caller has it."""
        analyze_light(root, nodes)
        if self.options.enable_type_specialization:
            analyze_types(root)

    # -- engine ---------------------------------------------------------------

    def _run_pass(self, holder: RootHolder, nodes: List[Node]) -> bool:
        """Fire rules until a whole scan finds nothing or fuel runs out.

        The firing discipline is the specification: scan the tree in
        preorder from the root, fire the first enabled rule (in table
        order) at the first node where one matches, and after every firing
        restart the scan from the root.  *nodes* is the tree's preorder
        list; one is taken after each firing and shared by the link
        refresh, the dirty-flag reset and the next scan."""
        changed_any = False
        while self._fuel > 0:
            found = self._scan(nodes)
            if found is None:
                return changed_any
            node, replacement = found
            self._fuel -= 1
            if replacement is not node:
                node.parent.replace_child(node, replacement)
                fix_parents(replacement)
            else:
                fix_parents(node)
            nodes = list(holder.child.walk())
            refresh_variable_links(holder.child, nodes)
            analyze_light(holder.child, nodes)
            if self.transcript.trace_rewrites:
                # The tree has settled: stamp the whole-function snapshot
                # onto the entry _fire just recorded.
                self.transcript.attach_root(render_node(holder.child))
            changed_any = True
        return changed_any

    def _scan(self, nodes: List[Node]) -> Optional[Tuple[Node, Node]]:
        """``(node, replacement)`` for the first node, in *nodes* order,
        where an enabled rule fires (the first such rule in table order);
        None when no rule fires anywhere."""
        by_class = self._rules_by_class
        for node in nodes:
            for rule in by_class.get(type(node), ()):
                replacement = rule(node)
                if replacement is not None:
                    return node, replacement
        return None

    def _fire(self, rule: str, before: Form, after: Node) -> Node:
        self._fired += 1
        self.transcript.record(rule, before, after)
        return after

    def _build_rule_table(self) -> None:
        # Order matters: cheap structural simplifications first, the
        # expensive substitution machinery last.  The third column names
        # the option that switches an opt-in rule on (None: the rule runs
        # whenever the optimizer does); the last is the node class each
        # rule matches (its first test is that isinstance check).
        table = [
            ("META-IF-CONSTANT", self._rule_if_constant, None, IfNode),
            ("META-PROGN-SIMPLIFY", self._rule_progn_simplify, None,
             PrognNode),
            ("META-DEAD-CASEQ", self._rule_dead_caseq, None, CaseqNode),
            ("META-PROGBODY-SIMPLIFY", self._rule_progbody_simplify, None,
             ProgbodyNode),
            ("META-EVALUATE-CONSTANT-CALL", self._rule_constant_fold, None,
             CallNode),
            ("META-EVALUATE-ASSOC-COMMUT-CALL", self._rule_assoc_commut,
             None, CallNode),
            ("CONSIDER-REVERSING-ARGUMENTS", self._rule_reverse_arguments,
             None, CallNode),
            ("META-SIN-TO-SINC", self._rule_sin_to_sinc, None, CallNode),
            ("META-TYPE-SPECIALIZE", self._rule_type_specialize,
             "enable_type_specialization", CallNode),
            ("META-IF-SAME-TEST", self._rule_if_same_test, None, IfNode),
            ("META-IF-PROGN-TEST", self._rule_if_progn_test, None, IfNode),
            ("META-IF-LET-TEST", self._rule_if_let_test, None, IfNode),
            ("META-IF-IF", self._rule_if_if, None, IfNode),
            ("META-INTEGRATE-GLOBAL", self._rule_integrate_global,
             "enable_global_integration", CallNode),
            ("META-CALL-LAMBDA", self._rule_call_lambda, None, CallNode),
            ("META-DROP-UNUSED-ARGUMENT", self._rule_drop_unused, None,
             CallNode),
            ("META-SUBSTITUTE", self._rule_substitute, None, CallNode),
        ]
        self._rules = [(name, rule, gate) for name, rule, gate, _ in table]
        # Gates are read once: options do not change during a compilation.
        # The index is by exact class, which is sound because no node class
        # of repro.ir.nodes subclasses another.
        self._rules_by_class = {}
        for _, rule, gate, node_class in table:
            if gate is None or getattr(self.options, gate):
                self._rules_by_class.setdefault(node_class, []).append(rule)

    # -- simple conditional rules ----------------------------------------------

    def _rule_if_constant(self, node: Node) -> Optional[Node]:
        """(if 'const x y) => x or y  (dead-code elimination)."""
        if not isinstance(node, IfNode) or not isinstance(node.test, LiteralNode):
            return None
        chosen = node.else_ if node.test.value is NIL else node.then
        before = capture(node)
        return self._fire("META-IF-CONSTANT", before, chosen)

    def _rule_progn_simplify(self, node: Node) -> Optional[Node]:
        """Flatten nested progn; drop effect-free non-final forms."""
        if not isinstance(node, PrognNode):
            return None
        forms: List[Node] = []
        changed = False
        for i, form in enumerate(node.forms):
            is_last = i == len(node.forms) - 1
            if isinstance(form, PrognNode):
                forms.extend(form.forms)
                changed = True
            elif not is_last and may_be_eliminated(form) and not form.writes:
                # Effect-free AND writes no lexical variable (a setq of a
                # lexical is invisible to the effects lattice but not dead).
                changed = True  # dropped
            else:
                forms.append(form)
        if len(forms) == 1:
            before = capture(node)
            return self._fire("META-PROGN-SIMPLIFY", before, forms[0])
        if not changed:
            return None
        before = capture(node)
        return self._fire("META-PROGN-SIMPLIFY", before, PrognNode(forms))

    def _rule_dead_caseq(self, node: Node) -> Optional[Node]:
        """caseq with a constant key selects its clause at compile time."""
        if not isinstance(node, CaseqNode) or not isinstance(node.key, LiteralNode):
            return None
        from ..datum.numbers import lisp_eql

        key = node.key.value
        before = capture(node)
        for keys, body in node.clauses:
            if any(lisp_eql(key, k) for k in keys):
                return self._fire("META-DEAD-CASEQ", before, body)
        return self._fire("META-DEAD-CASEQ", before, node.default)

    def _rule_progbody_simplify(self, node: Node) -> Optional[Node]:
        """A progbody with no tags and no local go/return is a progn (value
        nil); also drops statements made unreachable by an unconditional go."""
        if not isinstance(node, ProgbodyNode):
            return None
        has_tags = any(isinstance(item, TagMarker) for item in node.items)
        has_exits = any(
            (isinstance(n, GoNode) or isinstance(n, ReturnNode))
            and n.target is node
            for n in node.walk()
        )
        if not has_tags and not has_exits:
            before = capture(node)
            forms = [item for item in node.items if isinstance(item, Node)]
            forms.append(LiteralNode(NIL))
            return self._fire("META-PROGBODY-SIMPLIFY", before,
                              PrognNode(forms))
        # Unreachable statement removal: anything between a top-level go /
        # return and the next tag can never run.
        items: List[Any] = []
        dropping = False
        changed = False
        for item in node.items:
            if isinstance(item, TagMarker):
                dropping = False
                items.append(item)
                continue
            if dropping:
                changed = True
                continue
            items.append(item)
            if isinstance(item, GoNode) or isinstance(item, ReturnNode):
                dropping = True
        if not changed:
            return None
        before = capture(node)
        replacement = ProgbodyNode([])
        replacement.items = items
        for item in items:
            if isinstance(item, Node):
                item.parent = replacement
        # Retarget surviving local gos/returns at the replacement node.
        for descendant in replacement.walk():
            if isinstance(descendant, (GoNode, ReturnNode)) \
                    and descendant.target is node:
                descendant.target = replacement
        return self._fire("META-PROGBODY-SIMPLIFY", before, replacement)

    # -- constant folding and algebraic rules -----------------------------------

    def _primitive_of(self, node: Node) -> Optional[Primitive]:
        if isinstance(node, CallNode) and isinstance(node.fn, FunctionRefNode):
            return lookup_primitive(node.fn.name)
        return None

    def _rule_constant_fold(self, node: Node) -> Optional[Node]:
        """Compile-time expression evaluation: "invoking primitive functions
        known to be free of side effects on constant operands, a very
        convenient thing to do in LISP with the apply operator!"."""
        primitive = self._primitive_of(node)
        if primitive is None or not primitive.pure or primitive.allocates:
            return None
        assert isinstance(node, CallNode)
        if not all(isinstance(arg, LiteralNode) for arg in node.args):
            return None
        try:
            value = primitive.apply([arg.value for arg in node.args])
        except LispError:
            return None  # fold would signal at run time; leave it alone
        before = capture(node)
        return self._fire("META-EVALUATE-CONSTANT-CALL", before,
                          LiteralNode(value))

    def _rule_assoc_commut(self, node: Node) -> Optional[Node]:
        """Table-driven handling of associative/commutative operators:
        identity-operand elimination, constant merging, and reduction of
        n-ary calls to compositions of two-argument calls."""
        primitive = self._primitive_of(node)
        if primitive is None or not primitive.associative:
            return None
        assert isinstance(node, CallNode)
        args = list(node.args)

        # Identity elimination (only with a known identity element).
        if primitive.identity is not None and len(args) >= 1:
            kept = [a for a in args
                    if not (isinstance(a, LiteralNode)
                            and lisp_equal(a.value, primitive.identity))]
            if len(kept) != len(args) and kept:
                before = capture(node)
                if len(kept) == 1:
                    return self._fire("META-EVALUATE-ASSOC-COMMUT-CALL",
                                      before, kept[0])
                return self._fire(
                    "META-EVALUATE-ASSOC-COMMUT-CALL", before,
                    CallNode(FunctionRefNode(node.fn.name), kept))
            if not kept and args:
                before = capture(node)
                return self._fire("META-EVALUATE-ASSOC-COMMUT-CALL", before,
                                  LiteralNode(primitive.identity))

        # Constant merging for commutative operators.
        if primitive.commutative and primitive.pure:
            literals = [a for a in args if isinstance(a, LiteralNode)]
            others = [a for a in args if not isinstance(a, LiteralNode)]
            if len(literals) >= 2 and others:
                try:
                    merged = primitive.apply([l.value for l in literals])
                except LispError:
                    merged = None
                if merged is not None:
                    before = capture(node)
                    new_args = [LiteralNode(merged)] + others
                    return self._fire(
                        "META-EVALUATE-ASSOC-COMMUT-CALL", before,
                        CallNode(FunctionRefNode(node.fn.name), new_args))

        # Reduce n-ary (n > 2) to nested binary calls.  The paper's example:
        # (+$f a b c) => (+$f (+$f c b) a).
        if len(args) > 2:
            before = capture(node)
            acc: Node = args[-1]
            for arg in args[-2::-1]:
                acc = CallNode(FunctionRefNode(node.fn.name), [acc, arg])
            return self._fire("META-EVALUATE-ASSOC-COMMUT-CALL", before, acc)
        return None

    def _rule_reverse_arguments(self, node: Node) -> Optional[Node]:
        """"By convention constant arguments are put first where possible"
        to promote compile-time expression evaluation."""
        primitive = self._primitive_of(node)
        if primitive is None or not primitive.commutative:
            return None
        assert isinstance(node, CallNode)
        if len(node.args) != 2:
            return None
        first, second = node.args
        if isinstance(second, LiteralNode) and not isinstance(first, LiteralNode):
            before = capture(node)
            return self._fire(
                "CONSIDER-REVERSING-ARGUMENTS", before,
                CallNode(FunctionRefNode(node.fn.name), [second, first]))
        return None

    def _rule_sin_to_sinc(self, node: Node) -> Optional[Node]:
        """sin$f (radians) -> sinc$f (cycles): "machine-independent but
        machine-inspired: the S-1 SIN instruction assumes its argument to be
        in cycles.  The conversion factor is a floating-point approximation
        to 1/2pi".  On targets whose sine takes radians the rewrite is
        "benign but useless", so it is switched off (Section 4.4's remark
        about transformations slanted toward the S-1)."""
        if not self._sin_in_cycles:
            return None
        if not isinstance(node, CallNode) or len(node.args) != 1:
            return None
        if not isinstance(node.fn, FunctionRefNode):
            return None
        target = _SIN_TO_CYCLES.get(node.fn.name.name)
        if target is None:
            return None
        before = capture(node)
        product = CallNode(FunctionRefNode(sym("*$f")),
                           [node.args[0], LiteralNode(SINC_FACTOR)])
        return self._fire("META-SIN-TO-SINC", before,
                          CallNode(FunctionRefNode(sym(target)), [product]))

    def _rule_type_specialize(self, node: Node) -> Optional[Node]:
        """Extension (the paper marks it future work): rewrite generic
        arithmetic to type-specific operators when argument types are known."""
        if not isinstance(node, CallNode) or not isinstance(node.fn, FunctionRefNode):
            return None
        if not node.args:
            return None
        arg_types = {arg.inferred_type for arg in node.args}
        if len(arg_types) != 1 or None in arg_types:
            return None
        target = _TYPE_SPECIALIZATIONS.get((node.fn.name.name, arg_types.pop()))
        if target is None:
            return None
        target_primitive = lookup_primitive(sym(target))
        if target_primitive is None:
            return None
        count = len(node.args)
        if count < target_primitive.min_args or (
                target_primitive.max_args is not None
                and count > target_primitive.max_args):
            return None
        before = capture(node)
        return self._fire("META-TYPE-SPECIALIZE", before,
                          CallNode(FunctionRefNode(sym(target)),
                                   list(node.args)))

    # -- conditional distribution ------------------------------------------------

    def _rule_if_same_test(self, node: Node) -> Optional[Node]:
        """Within (if v ...) where v is an immutable variable, an inner
        (if v x y) is decided: x in the then-arm, y in the else-arm --
        "realizing that b is true in the inner if by virtue of the test in
        the outer one"."""
        if not isinstance(node, IfNode) or not isinstance(node.test, VarRefNode):
            return None
        variable = node.test.variable
        if variable.is_assigned() or variable.special:
            return None
        for arm, truth in ((node.then, True), (node.else_, False)):
            for inner in arm.walk():
                if (isinstance(inner, IfNode)
                        and isinstance(inner.test, VarRefNode)
                        and inner.test.variable is variable):
                    before = capture(node)
                    chosen = inner.then if truth else inner.else_
                    inner.parent.replace_child(inner, chosen)
                    return self._fire("META-IF-SAME-TEST", before, node)
        # Also: (if v v y) in the then position collapses the then arm when
        # the *whole arm* is the same variable -- nothing to do; and in the
        # else arm, a bare v is known nil.
        if (isinstance(node.else_, VarRefNode)
                and node.else_.variable is variable):
            before = capture(node)
            replacement = IfNode(node.test, node.then, LiteralNode(NIL))
            return self._fire("META-IF-SAME-TEST", before, replacement)
        return None

    def _rule_if_progn_test(self, node: Node) -> Optional[Node]:
        """(if (progn a... p) x y) => (progn a... (if p x y)) -- one of the
        semi-canonicalizing transformations."""
        if not isinstance(node, IfNode) or not isinstance(node.test, PrognNode):
            return None
        before = capture(node)
        progn = node.test
        inner_if = IfNode(progn.forms[-1], node.then, node.else_)
        replacement = PrognNode(progn.forms[:-1] + [inner_if])
        return self._fire("META-IF-PROGN-TEST", before, replacement)

    def _rule_if_let_test(self, node: Node) -> Optional[Node]:
        """(if ((lambda (v...) p) a...) x y) =>
        ((lambda (v...) (if p x y)) a...)

        "valid only because all variables ... have effectively been uniformly
        renamed to prevent scoping problems" -- our Variable objects make
        capture impossible by construction."""
        if not isinstance(node, IfNode):
            return None
        test = node.test
        if not (isinstance(test, CallNode) and isinstance(test.fn, LambdaNode)
                and test.fn.is_simple()
                and len(test.args) == len(test.fn.required)):
            return None
        before = capture(node)
        inner_lambda = test.fn
        new_body = IfNode(inner_lambda.body, node.then, node.else_)
        new_lambda = LambdaNode(inner_lambda.required, [], None, new_body,
                                name_hint=inner_lambda.name_hint)
        return self._fire("META-IF-LET-TEST", before,
                          CallNode(new_lambda, list(test.args)))

    def _rule_if_if(self, node: Node) -> Optional[Node]:
        """The nested-if distribution (Section 5):

        (if (if x y z) v w) =>
        ((lambda (f g) (if x (if y (f) (g)) (if z (f) (g))))
         (lambda () v) (lambda () w))

        "The functions f and g are introduced to avoid space-wasting
        duplication of the code for v and w."  When v and w are cheap and
        duplicable we skip the thunks and duplicate directly.
        """
        if not isinstance(node, IfNode) or not isinstance(node.test, IfNode):
            return None
        before = capture(node)
        inner = node.test
        x, y, z = inner.test, inner.then, inner.else_
        v, w = node.then, node.else_

        cheap = (may_be_duplicated(v) and may_be_duplicated(w)
                 and (v.complexity or 99) <= 2 and (w.complexity or 99) <= 2)
        if cheap:
            replacement: Node = IfNode(
                x,
                IfNode(y, copy_tree(v), copy_tree(w)),
                IfNode(z, copy_tree(v), copy_tree(w)),
            )
            return self._fire("META-IF-IF", before, replacement)

        f_var = Variable(gensym("f"))
        g_var = Variable(gensym("g"))

        def call_thunk(variable: Variable) -> Node:
            return CallNode(VarRefNode(variable), [])

        body = IfNode(
            x,
            IfNode(y, call_thunk(f_var), call_thunk(g_var)),
            IfNode(z, call_thunk(f_var), call_thunk(g_var)),
        )
        wrapper = LambdaNode([f_var, g_var], [], None, body)
        replacement = CallNode(wrapper, [
            LambdaNode([], [], None, v),
            LambdaNode([], [], None, w),
        ])
        return self._fire("META-IF-IF", before, replacement)

    def _rule_integrate_global(self, node: Node) -> Optional[Node]:
        """Procedure integration across defuns (block compilation).

        "Another [special case of beta-conversion] is procedure integration
        ... If a (tail-)recursive procedure definition is used to achieve
        iteration, then integration of the procedure within itself achieves
        loop unrolling."  The paper's heuristics were "so conservative as to
        avoid loop unrolling completely"; ours are gated by
        ``self_unroll_depth`` (the "more discriminating decision procedure"
        the paper says is all that is needed).

        Integration freezes the callee's current definition into the caller
        (the standard block-compilation trade-off).
        """
        if not (isinstance(node, CallNode)
                and isinstance(node.fn, FunctionRefNode)):
            return None
        name = node.fn.name
        if lookup_primitive(name) is not None:
            return None
        target = self.global_functions.get(name)
        if target is None or not isinstance(target, LambdaNode):
            return None
        if not target.is_simple() or len(node.args) != len(target.required):
            return None
        if target.complexity is None:
            analyze_light(target)
        if (target.complexity or 999) > GLOBAL_INTEGRATION_LIMIT:
            return None
        # Per-name fuel: every call site may integrate once; a function may
        # additionally integrate *itself* self_unroll_depth times.
        used = self._integration_counts.get(name, 0)
        budget = 4 + self.options.self_unroll_depth * 4
        if used >= budget:
            return None
        self._integration_counts[name] = used + 1
        before = capture(node)
        clone = copy_tree(target)
        assert isinstance(clone, LambdaNode)
        return self._fire("META-INTEGRATE-GLOBAL", before,
                          CallNode(clone, list(node.args)))

    # -- the three beta rules ------------------------------------------------------

    def _rule_call_lambda(self, node: Node) -> Optional[Node]:
        """Rule 1: ((lambda () body)) => body."""
        if not (isinstance(node, CallNode) and isinstance(node.fn, LambdaNode)):
            return None
        fn = node.fn
        if fn.required or fn.optionals or fn.rest is not None or node.args:
            return None
        before = capture(node)
        return self._fire("META-CALL-LAMBDA", before, fn.body)

    def _rule_drop_unused(self, node: Node) -> Optional[Node]:
        """Rule 2: drop parameter vj and argument aj when vj is unreferenced
        in the body and aj's execution has no side effects "(except possibly
        heap-allocation, which ... may be eliminated but must not be
        duplicated)"."""
        let = self._simple_let(node)
        if let is None:
            return None
        fn, args = let
        keep_vars: List[Variable] = []
        keep_args: List[Node] = []
        dropped = False
        for variable, arg in zip(fn.required, args):
            # A special parameter's *binding* is itself an observable
            # effect (dynamic scope): never dropped, referenced or not.
            unused = (not variable.refs and not variable.setqs
                      and not variable.special)
            if unused and may_be_eliminated(arg) and not arg.writes:
                dropped = True
                continue
            keep_vars.append(variable)
            keep_args.append(arg)
        if not dropped:
            return None
        before = capture(node)
        new_lambda = LambdaNode(keep_vars, [], None, fn.body,
                                name_hint=fn.name_hint)
        return self._fire("META-DROP-UNUSED-ARGUMENT", before,
                          CallNode(new_lambda, keep_args))

    def _rule_substitute(self, node: Node) -> Optional[Node]:
        """Rule 3: replace occurrences of vj in the body with aj.

        Permissible when vj is never assigned and one of:

        * aj is a constant or function reference (constant propagation),
        * aj is an immutable variable reference (renaming),
        * aj is a lambda-expression and vj has one reference or the lambda
          is small (procedure integration),
        * aj is pure and either vj has a single reference or aj is small
          enough to duplicate.

        The argument stays in place; rule 2 eliminates it on a later
        iteration once the references are gone ("This requires some
        collusion").
        """
        let = self._simple_let(node)
        if let is None:
            return None
        fn, args = let
        plan: Optional[Tuple[Variable, Node]] = None
        for variable, arg in zip(fn.required, args):
            if variable.is_assigned() or variable.special or not variable.refs:
                continue
            refcount = len(variable.refs)
            substitutable = False
            if isinstance(arg, (LiteralNode, FunctionRefNode)):
                substitutable = True
            elif isinstance(arg, VarRefNode) and not arg.variable.is_assigned() \
                    and not arg.variable.special:
                substitutable = True
            elif isinstance(arg, LambdaNode):
                # Lambdas close over variables (not values), so moving the
                # lambda-expression past assignments is safe.
                if refcount == 1 \
                        or (arg.complexity or 999) <= INTEGRATION_SIZE_LIMIT:
                    substitutable = True
            elif may_be_duplicated(arg) and not arg.writes \
                    and all(not v.is_assigned() for v in (arg.reads or ())):
                # Moving the expression to its use sites changes *when* it
                # reads its variables; any of them being assigned anywhere
                # makes that reordering observable (the "complicated
                # conditions regarding side effects").
                # "Right now the heuristics for introduction are relatively
                # conservative": a non-trivial pure expression moves to its
                # single use site, but is only *duplicated* into several
                # sites when the total copied code stays under the limit.
                copies_cost = (refcount - 1) * (arg.complexity or 999)
                if refcount == 1 or copies_cost <= SUBSTITUTION_SIZE_LIMIT:
                    substitutable = True
            if substitutable:
                plan = (variable, arg)
                break
        if plan is None:
            return None
        variable, arg = plan
        count = len(variable.refs)
        for ref in list(variable.refs):
            if ref.parent is None:
                continue
            ref.parent.replace_child(ref, copy_tree(arg))
        self.transcript.record(
            "META-SUBSTITUTE",
            capture(arg, f"{count} substitution{'s' if count != 1 else ''}"
                         f" for the variable {variable.name} by "),
            node)
        self._fired += 1
        return node

    def _simple_let(self, node: Node) -> Optional[Tuple[LambdaNode, List[Node]]]:
        """Match ((lambda (v1..vn) body) a1..an) with a simple lambda list."""
        if not (isinstance(node, CallNode) and isinstance(node.fn, LambdaNode)):
            return None
        fn = node.fn
        if not fn.is_simple() or len(node.args) != len(fn.required):
            return None
        return fn, list(node.args)


def optimize_tree(root: Node, options: Optional[CompilerOptions] = None,
                  transcript: Optional[Transcript] = None) -> Node:
    """Convenience wrapper: run the source optimizer over a tree."""
    optimizer = SourceOptimizer(options, transcript)
    return optimizer.optimize(root)
