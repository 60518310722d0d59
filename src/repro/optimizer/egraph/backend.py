"""The equality-saturation optimizer backend.

Where the ordered backend (:class:`~repro.optimizer.meta.SourceOptimizer`)
commits to each rewrite destructively -- so phase ordering decides what it
finds -- this backend applies the *same* rule inventory non-destructively
over an e-graph and lets the per-target cycle cost model pick the winner
afterwards ("Sketch-Guided Equality Saturation", PAPERS.md).

The saturation is *seeded*: the ordered backend runs first and its result
is inserted into the e-graph before the original tree, then the two roots
are unioned.  Insertion order is the extraction tie-breaker, so the
ordered result is the floor -- the e-graph either returns it verbatim or
finds something strictly cheaper on this target's cycle tables.  Combined
with the blanket fallback (any internal error returns the ordered tree,
with a diagnostic), the backend is never worse than ordered and never
raises.

Rule adaptation works per e-class: the class's current best term is
reconstructed as a standalone scratch tree (binders freshened, links
refreshed, analyses run), each enabled meta rule is offered the root, and
a firing's result is converted back to a term and unioned with the class
-- an equivalence added, nothing mutated.  Scratch trees are rebuilt for
every rule because several meta rules mutate in place.

Bounds: ``optimizer_fuel`` charges one unit per equivalence-producing
firing (on top of whatever the seeding ordered run spent),
``egraph_max_classes`` / ``egraph_max_nodes`` cap graph growth, and
``egraph_max_iterations`` caps saturation rounds.  Exhausting any bound
warns via diagnostics and extracts from the graph as it stands.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ...analysis import analyze
from ...ir.nodes import LambdaNode, Node, copy_tree
from ..meta import SourceOptimizer
from ..transcript import Transcript, render_node
from ..treeutil import RootHolder, fix_parents, refresh_variable_links
from .core import EGraph, ENode, extract_costs
from .cost import CycleCostModel
from .term import Term, TermContext, term_to_tree, tree_to_term

#: Term roots that any meta rule can possibly fire on.  Leaf classes and
#: lambda classes are skipped during saturation (the rule inventory
#: rewrites call/if/progn/caseq/progbody/setq forms only), which keeps the
#: per-iteration scratch-tree count proportional to interesting classes.
_REWRITABLE_ROOTS = frozenset(
    ["call", "if", "progn", "caseq", "progbody", "setq"])


class _EquivalenceTranscript:
    """Transcript proxy for the rule engine used inside saturation: every
    firing is recorded as a non-destructive ``equivalence`` entry, and the
    root-snapshot protocol is disabled (nothing mutates, so there is no
    whole-function "after" image to stamp)."""

    def __init__(self, inner: Transcript):
        self._inner = inner
        self.trace_rewrites = False

    def record(self, rule: str, before: Any, after: Any,
               phase: str = "optimizer", kind: str = "rewrite") -> None:
        self._inner.record(rule, before, after, phase=phase,
                           kind="equivalence")

    def begin_root(self, source: str) -> None:  # pragma: no cover - unused
        pass

    def attach_root(self, source: str) -> None:  # pragma: no cover - unused
        pass


def add_term(graph: EGraph, term: Term) -> int:
    """Insert a whole term bottom-up; returns its root e-class id."""
    children = tuple(add_term(graph, child) for child in term[1:])
    return graph.add(ENode(term[0], children))


def build_term(graph: EGraph, class_id: int,
               costs: Dict[int, Tuple[float, ENode]]) -> Term:
    """Reconstruct the extracted (cheapest) term of a class.  Terminates
    because the cost model is strictly monotone: every chosen child is
    strictly cheaper than its parent, so the chosen-node graph is acyclic.
    """
    _cost, node = costs[graph.find(class_id)]
    return (node.op, *[build_term(graph, child, costs)
                       for child in node.children])


class EGraphOptimizer:
    """Drop-in replacement for :class:`SourceOptimizer` selected by
    ``CompilerOptions.optimizer_backend = "egraph"``."""

    def __init__(self, options=None, transcript: Optional[Transcript] = None,
                 global_functions=None, diagnostics=None):
        self.ordered = SourceOptimizer(options, transcript,
                                       global_functions=global_functions,
                                       diagnostics=diagnostics)
        self.options = self.ordered.options
        self.transcript = self.ordered.transcript
        self.global_functions = self.ordered.global_functions
        self.diagnostics = diagnostics
        #: Mirrors SourceOptimizer's non-fixpoint flag (the seeding run's
        #: value, OR'd with saturation hitting a bound).
        self.hit_pass_limit = False
        #: Saturation statistics from the last optimize() call.
        self.stats: Dict[str, Any] = {}

    # -- public entry ---------------------------------------------------------

    def optimize(self, root: Node) -> Node:
        if not self.options.optimize:
            return root
        original = copy_tree(root)
        ordered_tree = self.ordered.optimize(root)
        self.hit_pass_limit = self.ordered.hit_pass_limit
        try:
            result = self._saturate_and_extract(original, ordered_tree)
        except Exception as err:
            self._warn(f"e-graph backend fell back to the ordered result "
                       f"({type(err).__name__}: {err})")
            self._bump("egraph_fallbacks")
            result = None
        if result is None:
            result = ordered_tree
        # Saturation's scratch trees share *free* variables with the
        # ordered tree, and each scratch refresh rewrote those variables'
        # back-pointer lists -- recompute them on whichever tree we return.
        refresh_variable_links(result)
        fix_parents(result)
        analyze(result)
        return result

    def rules_fired(self) -> List[str]:
        return self.ordered.rules_fired()

    # -- the saturation loop --------------------------------------------------

    def _saturate_and_extract(self, original: Node,
                              ordered_tree: Node) -> Optional[Node]:
        ctx = TermContext()
        graph = EGraph(max_nodes=self.options.egraph_max_nodes,
                       max_classes=self.options.egraph_max_classes)
        # Seed the ordered result FIRST: its e-nodes get the earliest
        # stamps, so extraction ties resolve toward it.
        ordered_term = tree_to_term(ordered_tree, ctx)
        root_class = add_term(graph, ordered_term)
        original_class = add_term(graph, tree_to_term(original, ctx))
        graph.merge(root_class, original_class)
        graph.rebuild()

        engine = SourceOptimizer(
            self.options, _EquivalenceTranscript(self.transcript),
            global_functions=self.global_functions, diagnostics=None)
        cost_model = CycleCostModel(self.options.target)
        cost_model.graph = graph

        fuel = self.options.optimizer_fuel
        tried: Set[Tuple[str, Term]] = set()
        iterations = 0
        equivalences = 0
        stop_reason = None
        while iterations < self.options.egraph_max_iterations:
            if graph.over_limits():
                stop_reason = (f"size limit reached "
                               f"({graph.n_nodes} e-nodes, "
                               f"{graph.n_classes} e-classes)")
                break
            if fuel <= 0:
                stop_reason = (f"fuel exhausted after "
                               f"{self.options.optimizer_fuel} firings")
                break
            iterations += 1
            costs = extract_costs(graph, cost_model)
            progress = False
            for class_id in graph.class_ids():
                if fuel <= 0 or graph.over_limits():
                    break
                if graph.find(class_id) != class_id:
                    continue
                entry = costs.get(class_id)
                if entry is None:
                    continue
                term = build_term(graph, class_id, costs)
                if term[0][0] not in _REWRITABLE_ROOTS:
                    continue
                for new_term in self._apply_rules(engine, term, ctx, tried):
                    fuel -= 1
                    equivalences += 1
                    new_class = add_term(graph, new_term)
                    if graph.find(new_class) != graph.find(class_id):
                        graph.merge(class_id, new_class)
                        progress = True
                    if fuel <= 0 or graph.over_limits():
                        break
            graph.rebuild()
            if not progress:
                break
        else:
            stop_reason = (f"stopped at egraph_max_iterations="
                           f"{self.options.egraph_max_iterations}")

        if stop_reason is not None:
            self.hit_pass_limit = True
            self._warn(f"e-graph saturation did not complete "
                       f"({stop_reason}); extracting from the graph "
                       f"as it stands")

        costs = extract_costs(graph, cost_model)
        root = graph.find(root_class)
        ordered_cost = self._term_cost(graph, ordered_term, cost_model)
        extracted_cost, _node = costs[root]
        self._record_stats(graph, iterations, equivalences,
                           extracted_cost, ordered_cost)
        if extracted_cost > ordered_cost:  # pragma: no cover - tie-break
            # guarantees <=; defensive only
            return None
        best = build_term(graph, root, costs)
        if best == ordered_term:
            # Saturation found nothing cheaper; keep the ordered tree
            # object itself (no reconstruction wobble).
            return ordered_tree
        tree = term_to_tree(best, ctx)
        if not isinstance(tree, LambdaNode) and \
                isinstance(ordered_tree, LambdaNode):
            return None
        refresh_variable_links(tree)
        fix_parents(tree)
        render_node(tree)  # round-trip sanity: must back-translate
        self._bump("egraph_extraction_wins")
        return tree

    def _apply_rules(self, engine: SourceOptimizer, term: Term,
                     ctx: TermContext,
                     tried: Set[Tuple[str, Term]]) -> List[Term]:
        """Offer every enabled meta rule the root of this class's term;
        return the distinct result terms.  Each rule gets a freshly built
        scratch tree (several rules mutate in place)."""
        results: List[Term] = []
        for name, rule, gate in engine._rules:
            if gate and not getattr(engine.options, gate):
                continue
            key = (name, term)
            if key in tried:
                continue
            tried.add(key)
            try:
                scratch = term_to_tree(term, ctx)
                holder = RootHolder(scratch)
                refresh_variable_links(holder.child)
                fix_parents(holder.child)
                analyze(holder.child)
                out = rule(holder.child)
                if out is None:
                    continue
                fix_parents(out)
                refresh_variable_links(out)
                new_term = tree_to_term(out, ctx)
            except Exception:
                # A rule that cannot handle a free-variable fragment (or
                # any other scratch-tree wrinkle) simply does not fire
                # here; the ordered seeding already gave it its chance in
                # full context.
                self._bump("egraph_rule_errors")
                continue
            if new_term != term:
                results.append(new_term)
        return results

    # -- bookkeeping ----------------------------------------------------------

    def _term_cost(self, graph: EGraph, term: Term,
                   cost_model: CycleCostModel) -> float:
        """Cost of one concrete term under the model (children costed
        structurally, not via extraction -- this is the seeded tree's own
        cost, used as the never-regress floor)."""
        child_costs = [self._term_cost(graph, child, cost_model)
                       for child in term[1:]]
        children = tuple(add_term(graph, child) for child in term[1:])
        return cost_model(ENode(term[0], children), child_costs)

    def _record_stats(self, graph: EGraph, iterations: int,
                      equivalences: int, extracted_cost: float,
                      ordered_cost: float) -> None:
        self.stats = {
            "e_classes": graph.n_classes,
            "e_nodes": graph.n_nodes,
            "iterations": iterations,
            "equivalences": equivalences,
            "extracted_cost": extracted_cost,
            "ordered_cost": ordered_cost,
        }
        if self.diagnostics is None:
            return
        self.diagnostics.bump("egraph_classes", graph.n_classes)
        self.diagnostics.bump("egraph_nodes", graph.n_nodes)
        self.diagnostics.bump("egraph_iterations", iterations)
        self.diagnostics.bump("egraph_equivalences", equivalences)
        self.diagnostics.bump("egraph_extraction_cost",
                              int(extracted_cost))

    def _warn(self, message: str) -> None:
        if self.diagnostics is not None:
            self.diagnostics.warn(message, phase="optimizer")

    def _bump(self, counter: str) -> None:
        if self.diagnostics is not None:
            self.diagnostics.bump(counter)
