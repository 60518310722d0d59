"""Code generation: annotated tree -> parenthesized assembly (CodeObject)."""

from .._lazy import lazy_attributes

#: Resolved on first use (PEP 562): the optional peephole pass is not
#: imported unless ``enable_peephole`` asks for it.
_EXPORTS = {
    "FrameInfo": ".generator",
    "FunctionCodegen": ".generator",
    "PeepholeStats": ".peephole",
    "optimize_code": ".peephole",
}

__getattr__, __dir__ = lazy_attributes(globals(), _EXPORTS,
                                       ("generator", "peephole"))

__all__ = sorted(_EXPORTS)
