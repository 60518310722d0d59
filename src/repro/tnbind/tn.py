"""TNs: "temporary names" (Section 6.1).

"In the TNBIND technique a TN ... is assigned to every computational
quantity in the program, both user variables and intermediate results.
Each TN is annotated on the basis of the context of its use as to the costs
associated with allocating it to one or another kind of storage location
(memory, stack slot, register, ...) and the costs associated with
maintaining or failing to maintain certain relationships between it and
other TNs."

The code generator emits a linear virtual-instruction stream whose operands
are TNs; each TN records its live interval over that stream (first write to
last read), whether it is live across a full procedure call (all allocatable
registers are caller-saved, so such TNs must live in the frame), whether it
prefers an RT register (it feeds or receives 2 1/2-address arithmetic), and
whether it *must* live in the scratch area of the stack (pdl-number TNs,
Section 6.3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional

_TN_IDS = itertools.count(1)

KIND_VAR = "var"
KIND_TEMP = "temp"
KIND_PDL = "pdl"


@dataclass
class Location:
    """Where a TN ended up after packing."""

    kind: str  # "reg" | "temp-slot" | "frame-arg"
    index: int

    def __repr__(self) -> str:
        if self.kind == "reg":
            from ..target.registers import register_name

            return register_name(self.index)
        if self.kind == "temp-slot":
            return f"(TP {self.index})"
        return f"(FP {self.index})"


class TN:
    __slots__ = ("uid", "kind", "rep", "name_hint", "first", "last",
                 "crosses_call", "must_stack", "prefer_rt", "preferences",
                 "location", "write_ticks", "read_ticks")

    def __init__(self, kind: str = KIND_TEMP, rep: str = "POINTER",
                 name_hint: Optional[str] = None):
        self.uid = next(_TN_IDS)
        self.kind = kind
        self.rep = rep
        self.name_hint = name_hint
        self.first: Optional[int] = None
        self.last: Optional[int] = None
        self.crosses_call = False
        self.must_stack = kind == KIND_PDL
        self.prefer_rt = False
        self.preferences: List["TN"] = []
        self.location: Optional[Location] = None
        self.write_ticks: List[int] = []
        self.read_ticks: List[int] = []

    def touch(self, tick: int, write: bool = False) -> None:
        if self.first is None or tick < self.first:
            self.first = tick
        if self.last is None or tick > self.last:
            self.last = tick
        (self.write_ticks if write else self.read_ticks).append(tick)

    def overlaps(self, other: "TN") -> bool:
        if self.first is None or other.first is None:
            return False
        assert self.last is not None and other.last is not None
        return not (self.last <= other.first or other.last <= self.first)

    def prefer(self, other: "TN") -> None:
        """Record that self and other would like the same location ("one is
        logically copied to the other at some point")."""
        if other not in self.preferences:
            self.preferences.append(other)
        if self not in other.preferences:
            other.preferences.append(self)

    def span(self) -> int:
        if self.first is None or self.last is None:
            return 0
        return self.last - self.first

    def __repr__(self) -> str:
        hint = self.name_hint or self.kind
        loc = f" @{self.location}" if self.location else ""
        return f"#<TN{self.uid} {hint} {self.rep} [{self.first},{self.last}]{loc}>"
