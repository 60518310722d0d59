"""PEP 562 lazy attributes for package ``__init__`` modules.

A package declares which submodule defines each public name.  Nothing is
imported until a name is first looked up; the value is then stored in the
package namespace, so later lookups are plain global reads.  This keeps a
cold ``python -m repro batch`` from paying for the daemon, the client, the
fuzzer or the machine when all it runs is the Table 1 pipeline.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_attributes(namespace: Dict[str, Any], exports: Mapping[str, str],
                    submodules: Iterable[str] = ()
                    ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    *namespace*.  *exports* maps a public name to the relative module that
    defines it (``"Compiler": ".compiler"``); *submodules* are names that
    resolve to the submodule itself (``repro.serve``)."""
    package = namespace["__name__"]
    submodules = frozenset(submodules)

    def __getattr__(name: str) -> Any:
        if name in submodules:
            value = import_module("." + name, package)
        elif name in exports:
            value = getattr(import_module(exports[name], package), name)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports) | submodules)

    return __getattr__, __dir__
