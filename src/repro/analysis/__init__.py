"""Source-program analysis phases (Table 1).

Each analysis runs where its result is read:

* :func:`analyze` leaves a tree ready for the annotators.  It runs
  environment, side-effects and complexity, then marks tail positions,
  which only binding and pdl annotation read.  The compiler calls it in
  its analysis phase and again before annotating.
* :func:`analyze_light` is the subset the source optimizer needs: the
  three bottom-up analyses.  A pass start runs it, and so does every
  rewrite.
* :func:`analyze_types` feeds META-TYPE-SPECIALIZE alone, so the
  optimizer runs it at a pass start only while that rule is enabled.

The ``needs_reanalysis`` flags implement Section 4.2's co-routining
scheme: tree surgery dirties the spliced node and its ancestors, the three
bottom-up analyses recompute only dirty nodes and reuse every clean
subtree's cached result, and both drivers clear the flags when they
finish.  Tail positions and types are recomputed whole.
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
from .tailrec import analyze_tail_positions, value_producers
from .typeinfo import analyze_types, literal_type

from ..ir.nodes import Node


def analyze(root: Node, nodes: Optional[Sequence[Node]] = None) -> None:
    """The bottom-up analyses, then tail positions: everything the
    annotators read.  *nodes*, when given, is ``list(root.walk())``
    already taken by the caller."""
    analyze_environment(root)
    analyze_effects(root)
    analyze_complexity(root)
    analyze_tail_positions(root)
    _clear_flags(root, nodes)


def analyze_light(root: Node, nodes: Optional[Sequence[Node]] = None) -> None:
    """The incremental subset the optimizer runs at a pass start and after
    each transformation (Section 4.2's flag-driven re-analysis): the
    bottom-up analyses, which cache per-subtree results under the dirty
    flags.  *nodes* is as for :func:`analyze`."""
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
