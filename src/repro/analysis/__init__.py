"""Source-program analysis phases (Table 1).

The driver :func:`analyze` runs the four analyses in the paper's order:
environment, side-effects, complexity, tail-recursion -- plus the
(paper-optional) data-type analysis.  The source-level optimizer re-runs
:func:`analyze` at the start of each pass and :func:`analyze_light` after
every rewrite.  The ``needs_reanalysis`` flags implement Section 4.2's
co-routining scheme: tree surgery dirties the spliced node and its
ancestors, the three bottom-up analyses recompute only dirty nodes and
reuse every clean subtree's cached result, and both functions clear the
flags when they finish.  Tail positions and types are recomputed whole.
"""

from typing import Optional, Sequence

from .complexity import analyze_complexity
from .effects import (
    analyze_effects,
    is_effect_free,
    may_be_duplicated,
    may_be_eliminated,
    may_exit_nonlocally,
    reads_mutable_state,
    writes_mutable_state,
)
from .envinfo import analyze_environment, free_variables, variables_closed_over
from .tailrec import analyze_tail_positions, analyze_tailrec, value_producers
from .typeinfo import analyze_types, literal_type

from ..ir.nodes import Node


def analyze(root: Node, nodes: Optional[Sequence[Node]] = None) -> None:
    """Run all source-program analyses over the tree.  *nodes*, when
    given, is ``list(root.walk())`` already taken by the caller."""
    analyze_environment(root)
    analyze_effects(root)
    analyze_complexity(root)
    analyze_tailrec(root)
    analyze_types(root)
    _clear_flags(root, nodes)


def analyze_light(root: Node, nodes: Optional[Sequence[Node]] = None) -> None:
    """The incremental subset the optimizer re-runs after each
    transformation (Section 4.2's flag-driven re-analysis): the bottom-up
    analyses, which cache per-subtree results under the dirty flags.
    Tail positions and types are refreshed once per optimizer pass by the
    full :func:`analyze`.  *nodes* is as for :func:`analyze`."""
    analyze_environment(root)
    analyze_effects(root)
    analyze_complexity(root)
    _clear_flags(root, nodes)


def _clear_flags(root: Node, nodes: Optional[Sequence[Node]]) -> None:
    for node in root.walk() if nodes is None else nodes:
        node.needs_reanalysis = False


__all__ = [
    "analyze",
    "analyze_light",
    "analyze_complexity",
    "analyze_effects",
    "analyze_environment",
    "analyze_tail_positions",
    "analyze_tailrec",
    "analyze_types",
    "free_variables",
    "is_effect_free",
    "literal_type",
    "may_be_duplicated",
    "may_be_eliminated",
    "may_exit_nonlocally",
    "reads_mutable_state",
    "value_producers",
    "variables_closed_over",
    "writes_mutable_state",
]
