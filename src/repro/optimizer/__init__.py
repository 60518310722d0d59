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


# The optional CSE phase (off by default, like the paper) and the e-graph
# backend load on first use (PEP 562).
__getattr__, __dir__ = lazy_attributes(
    globals(), {"eliminate_common_subexpressions": ".cse"}, ("cse", "egraph"))


def make_optimizer(options, transcript, global_functions=None,
                   diagnostics=None):
    """Factory used by the compiler: pick the optimizer implementation for
    ``options.optimizer_backend``.  The e-graph backend is imported only
    when it is selected."""
    if getattr(options, "optimizer_backend", "ordered") == "egraph":
        from .egraph.backend import EGraphOptimizer as backend
    else:
        backend = SourceOptimizer
    return backend(options, transcript, global_functions=global_functions,
                   diagnostics=diagnostics)


__all__ = [
    "RootHolder",
    "SINC_FACTOR",
    "SourceOptimizer",
    "Transcript",
    "TranscriptEntry",
    "eliminate_common_subexpressions",
    "fix_parents",
    "make_optimizer",
    "optimize_tree",
    "refresh_variable_links",
    "render_node",
    "tree_equal",
]
