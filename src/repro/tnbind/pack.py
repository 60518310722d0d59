"""The global packing process (Section 6.1).

"After all TNs have been annotated, a global packing process assigns each
TN to a specific run-time storage location.  Compilation time can be traded
for run-time efficiency here by making the packing process more or less
clever."

This packer is the straightforward greedy variant (the paper notes a
backtracking packer could do better):

1. TNs that *must* live on the stack (pdl numbers, call-crossing values)
   get temp slots.
2. Remaining TNs are sorted by priority (RT-preferring first, then by
   shortness of lifetime -- short intervals fit registers best).
3. Preference edges are honored when the preferred partner's location is
   free over this TN's lifetime.
4. RT-preferring TNs try RTA then RTB first; everything falls back through
   the general register pool to a fresh temp slot.
"""

from __future__ import annotations

from typing import Dict, List

from ..options import CompilerOptions, DEFAULT_OPTIONS
from ..target.registers import RTA, RTB, allocatable_registers
from .tn import Location, TN


class Packing:
    """The result: TN -> Location, plus frame-size bookkeeping."""

    def __init__(self) -> None:
        self.assignments: Dict[TN, Location] = {}
        self.temp_slots_used = 0
        self.registers_used: set = set()


def pack_tns(tns: List[TN], options: CompilerOptions = DEFAULT_OPTIONS
             ) -> Packing:
    packing = Packing()
    live = [tn for tn in tns if tn.first is not None]

    if not options.enable_tnbind:
        # Ablation: every TN gets its own stack slot (no register allocation
        # at all) -- the "naive" configuration.
        for tn in live:
            _assign_temp_slot(tn, packing)
        return packing

    register_pool = [r for r in allocatable_registers()
                     if r < options.registers_available or r >= 32]
    if not register_pool:
        register_pool = allocatable_registers()[:1]
    # reg -> list of TNs already packed there (disjoint lifetimes)
    occupancy: Dict[int, List[TN]] = {}

    def register_free(reg: int, tn: TN) -> bool:
        return all(not tn.overlaps(other) for other in occupancy.get(reg, []))

    def preference_allowed(reg: int, tn: TN) -> bool:
        """May *tn* follow a preference partner into *reg*?  Only into a
        register it could have been given directly: the general pool, or
        RTA/RTB via its own RT preference."""
        if reg in register_pool:
            return True
        return tn.prefer_rt and reg in (RTA, RTB)

    def take_register(reg: int, tn: TN) -> None:
        occupancy.setdefault(reg, []).append(tn)
        location = Location("reg", reg)
        tn.location = location
        packing.assignments[tn] = location
        packing.registers_used.add(reg)

    # -- stage 1: forced-to-stack TNs ---------------------------------------
    for tn in live:
        if tn.must_stack or tn.crosses_call:
            _assign_temp_slot(tn, packing)

    # -- stage 2: everything else, prioritized ------------------------------
    def priority(tn: TN):
        return (0 if tn.prefer_rt else 1, tn.span(), tn.uid)

    for tn in sorted(live, key=priority):
        if tn.location is not None:
            continue
        # Preference: land where a partner already lives, if free -- but
        # only in a register this TN could have been given directly
        # (partners in RTA/RTB must not pull non-RT TNs into the
        # bottleneck registers, nor past the configured pool).
        placed = False
        for partner in tn.preferences:
            loc = partner.location
            if loc is not None and loc.kind == "reg" \
                    and preference_allowed(loc.index, tn) \
                    and register_free(loc.index, tn):
                take_register(loc.index, tn)
                placed = True
                break
        if placed:
            continue
        candidates: List[int] = []
        if tn.prefer_rt:
            candidates.extend([RTA, RTB])
        candidates.extend(register_pool)
        for reg in candidates:
            if register_free(reg, tn):
                take_register(reg, tn)
                placed = True
                break
        if not placed:
            _assign_temp_slot(tn, packing)
    return packing


def _assign_temp_slot(tn: TN, packing: Packing) -> None:
    from ..target.reps import REP_WORDS

    width = max(1, REP_WORDS.get(tn.rep, 1))
    location = Location("temp-slot", packing.temp_slots_used)
    packing.temp_slots_used += width
    tn.location = location
    packing.assignments[tn] = location
