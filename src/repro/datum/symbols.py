"""Symbols and the symbol table (package) for the reproduction dialect.

The paper's dialect is a Common Lisp ancestor: symbols are interned objects
with identity, and ``nil`` doubles as the empty list and boolean false while
``t`` is the canonical truth value.  We keep one global intern table, which
is all the paper's compiler needs (it has *no* central symbol table for
variables -- scoping information lives in the IR, see `repro.ir.nodes`).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional


class Symbol:
    """An interned Lisp symbol.

    Symbols compare by identity; two symbols with the same name read at
    different times are the *same* object.  Construct via :func:`intern_symbol`
    (or the convenience :func:`sym`), never directly, except for uninterned
    gensyms produced by :func:`gensym`.
    """

    __slots__ = ("name", "interned")

    def __init__(self, name: str, interned: bool = True):
        self.name = name
        self.interned = interned

    def __repr__(self) -> str:
        if self.interned:
            return self.name
        return "#:" + self.name

    def __str__(self) -> str:
        return repr(self)

    # No __eq__ or __hash__ here: object's identity semantics are the
    # ones a symbol needs, and they run in C on every symbol-keyed lookup.

    def __reduce__(self):
        # Pickling must preserve identity semantics: an interned symbol
        # unpickles through the intern table (so ``loads(dumps(sym("f")))
        # is sym("f")``, even in another process -- the compilation cache
        # depends on this).  Uninterned gensyms unpickle as fresh
        # uninterned symbols; pickle's memo still keeps every occurrence
        # within one pickled graph identical.
        if self.interned:
            return (intern_symbol, (self.name,))
        return (Symbol, (self.name, False))


_INTERN_LOCK = threading.Lock()
_INTERN_TABLE: Dict[str, Symbol] = {}
_GENSYM_COUNTER = [0]


def intern_symbol(name: str) -> Symbol:
    """Return the unique symbol with this (case-sensitive) name."""
    with _INTERN_LOCK:
        symbol = _INTERN_TABLE.get(name)
        if symbol is None:
            symbol = Symbol(name)
            _INTERN_TABLE[name] = symbol
        return symbol


def sym(name: str) -> Symbol:
    """Shorthand for :func:`intern_symbol`, used pervasively in tests."""
    return intern_symbol(name)


def gensym(prefix: str = "g") -> Symbol:
    """Return a fresh uninterned symbol (used for introduced variables).

    The source-level optimizer introduces helper functions (``f1``, ``f2`` ...
    in the paper's Section 5 derivation); those variables must be unable to
    capture user identifiers, hence uninterned symbols.
    """
    with _INTERN_LOCK:
        _GENSYM_COUNTER[0] += 1
        return Symbol(f"{prefix}{_GENSYM_COUNTER[0]}", interned=False)


def is_interned(symbol: Symbol) -> bool:
    return symbol.interned


def find_symbol(name: str) -> Optional[Symbol]:
    """Return the symbol with this name if it has been interned, else None."""
    with _INTERN_LOCK:
        return _INTERN_TABLE.get(name)


# The two distinguished constants of the dialect.
NIL = intern_symbol("nil")
T = intern_symbol("t")
