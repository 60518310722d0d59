"""Source-level optimization: the meta-evaluator and the optional CSE phase."""

from .._lazy import lazy_attributes
from .meta import SINC_FACTOR, SourceOptimizer, optimize_tree
from .transcript import Transcript, TranscriptEntry, render_node
from .treeutil import (
    RootHolder,
    fix_parents,
    refresh_variable_links,
    tree_equal,
)


# The optional CSE phase (off by default, like the paper) loads on first
# use (PEP 562).
__getattr__, __dir__ = lazy_attributes(
    globals(), {"eliminate_common_subexpressions": ".cse"}, ("cse",))


__all__ = [
    "RootHolder",
    "SINC_FACTOR",
    "SourceOptimizer",
    "Transcript",
    "TranscriptEntry",
    "eliminate_common_subexpressions",
    "fix_parents",
    "optimize_tree",
    "refresh_variable_links",
    "render_node",
    "tree_equal",
]
