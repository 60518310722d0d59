"""Run-time environments for the reference interpreter.

Lexical environments are chains of frames mapping :class:`Variable` objects
to mutable cells.  Because conversion alpha-renames (each binding construct
allocates a fresh Variable), a flat per-frame dict suffices and shadowing
needs no special handling.

Special (dynamically scoped) variables use the *deep binding* technique the
paper's implementation uses (Section 4.4 of the paper, "Special variable
lookups"): binding pushes (name, cell) onto a binding stack; lookup searches
the stack linearly, falling back to a global value table.  The interpreter
counts lookups so the special-variable caching experiment (P4) can compare
against the compiled scheme.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..datum.symbols import Symbol
from ..errors import UnboundVariableError
from ..ir.nodes import Variable


class Cell:
    """A mutable binding cell (so closures share assignments)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


class LexicalEnvironment:
    __slots__ = ("bindings", "parent")

    def __init__(self, parent: Optional["LexicalEnvironment"] = None):
        self.bindings: Dict[Variable, Cell] = {}
        self.parent = parent

    def bind(self, variable: Variable, value: Any) -> Cell:
        cell = Cell(value)
        self.bindings[variable] = cell
        return cell

    def cell(self, variable: Variable) -> Optional[Cell]:
        env: Optional[LexicalEnvironment] = self
        while env is not None:
            found = env.bindings.get(variable)
            if found is not None:
                return found
            env = env.parent
        return None

    def lookup(self, variable: Variable) -> Any:
        cell = self.cell(variable)
        if cell is None:
            raise UnboundVariableError(repr(variable), "lexical")
        return cell.value

    def assign(self, variable: Variable, value: Any) -> Any:
        cell = self.cell(variable)
        if cell is None:
            raise UnboundVariableError(repr(variable), "lexical")
        cell.value = value
        return value


class DeepBindingStack:
    """Deep-bound dynamic variables: a stack of (name, cell) pairs.

    "Deep binding calls for binding a variable by pushing its name and new
    value onto a stack ... in general requires a linear search when accessing
    a variable."  The search cost is instrumented via ``search_steps`` and
    ``lookups`` so experiments can observe the cost the compiler's caching
    avoids.
    """

    def __init__(self) -> None:
        self._stack: List[Tuple[Symbol, Cell]] = []
        self.globals: Dict[Symbol, Cell] = {}
        self.lookups = 0
        self.search_steps = 0

    def depth(self) -> int:
        return len(self._stack)

    def all_cells(self):
        """Every live binding cell (stack and globals) -- GC roots."""
        for _, cell in self._stack:
            yield cell
        yield from self.globals.values()

    def push(self, name: Symbol, value: Any) -> None:
        self._stack.append((name, Cell(value)))

    def pop_to(self, depth: int) -> None:
        del self._stack[depth:]

    def find_cell(self, name: Symbol) -> Optional[Cell]:
        """Linear search from the top of the stack; counts work done."""
        self.lookups += 1
        for i in range(len(self._stack) - 1, -1, -1):
            self.search_steps += 1
            if self._stack[i][0] is name:
                return self._stack[i][1]
        cell = self.globals.get(name)
        return cell

    def lookup(self, name: Symbol) -> Any:
        cell = self.find_cell(name)
        if cell is None:
            raise UnboundVariableError(name)
        return cell.value

    def assign(self, name: Symbol, value: Any) -> Any:
        cell = self.find_cell(name)
        if cell is None:
            # setq on an unbound special creates a global (MACLISP behavior).
            self.globals[name] = Cell(value)
        else:
            cell.value = value
        return value

    def set_global(self, name: Symbol, value: Any) -> None:
        cell = self.globals.get(name)
        if cell is None:
            self.globals[name] = Cell(value)
        else:
            cell.value = value

    def context_switch(self, other: "DeepBindingStack") -> int:
        """Deep binding's headline strength: "fast context switching among
        processes with different sets of bindings (all that is required is
        to switch stack pointers)".  Returns the work units spent (O(1))."""
        self.search_steps += 1
        return 1


class ShallowBindingStack:
    """The alternative the paper contrasts (and INTERLISP later adopted):
    "the current value of a variable is maintained in a fixed location, and
    a variable is bound by pushing its name and *old* value onto a stack and
    then installing its new value in the fixed location.  This allows
    constant-time access, but for a context switch an arbitrarily large
    number of variables may have to be changed."

    Same interface as :class:`DeepBindingStack`; the instrumentation counts
    the work units each model spends so the E9 experiment can reproduce the
    trade-off quantitatively.
    """

    def __init__(self) -> None:
        # name -> the fixed value cell
        self._value_cells: Dict[Symbol, Cell] = {}
        # save stack of (name, old_value, had_binding)
        self._saves: List[Tuple[Symbol, Any, bool]] = []
        self.globals = self._value_cells  # fixed cells double as globals
        self.lookups = 0
        self.search_steps = 0

    def depth(self) -> int:
        return len(self._saves)

    def push(self, name: Symbol, value: Any) -> None:
        cell = self._value_cells.get(name)
        if cell is None:
            self._saves.append((name, None, False))
            self._value_cells[name] = Cell(value)
        else:
            self._saves.append((name, cell.value, True))
            cell.value = value
        self.search_steps += 1  # one install per bind

    def pop_to(self, depth: int) -> None:
        while len(self._saves) > depth:
            name, old_value, had_binding = self._saves.pop()
            self.search_steps += 1  # one restore per unbind
            if had_binding:
                self._value_cells[name].value = old_value
            else:
                del self._value_cells[name]

    def find_cell(self, name: Symbol) -> Optional[Cell]:
        """Constant time: the fixed location."""
        self.lookups += 1
        self.search_steps += 1
        return self._value_cells.get(name)

    def lookup(self, name: Symbol) -> Any:
        cell = self.find_cell(name)
        if cell is None:
            raise UnboundVariableError(name)
        return cell.value

    def assign(self, name: Symbol, value: Any) -> Any:
        cell = self.find_cell(name)
        if cell is None:
            self._value_cells[name] = Cell(value)
        else:
            cell.value = value
        return value

    def set_global(self, name: Symbol, value: Any) -> None:
        cell = self._value_cells.get(name)
        if cell is None:
            self._value_cells[name] = Cell(value)
        else:
            cell.value = value

    def all_cells(self):
        yield from self._value_cells.values()

    def context_switch(self, other: "ShallowBindingStack") -> int:
        """Unwind this process's bindings and rewind the other's: work
        proportional to both binding depths."""
        work = len(self._saves) + len(other._saves)
        self.search_steps += work
        return max(1, work)
