"""Equality-saturation optimizer backend (``optimizer_backend="egraph"``).

Layout:

* :mod:`.core` -- the e-graph itself (union-find, hashcons, congruence
  closure, cost-based extraction), IR-agnostic;
* :mod:`.term` -- Table 2 tree <-> hashable term conversion with
  capture-safe binder freshening;
* :mod:`.cost` -- per-target cycle cost model over ``repro.target``'s
  cycle tables;
* :mod:`.backend` -- the saturation loop: seed with the ordered result,
  apply the meta.py rule inventory non-destructively, extract the
  cheapest program for the selected target.
"""

from .backend import EGraphOptimizer, add_term, build_term
from .core import EClass, EGraph, ENode, extract_costs
from .cost import CycleCostModel
from .term import Term, TermContext, term_to_tree, tree_to_term

__all__ = [
    "CycleCostModel",
    "EClass",
    "EGraph",
    "EGraphOptimizer",
    "ENode",
    "Term",
    "TermContext",
    "add_term",
    "build_term",
    "extract_costs",
    "term_to_tree",
    "tree_to_term",
]
