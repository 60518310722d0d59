"""Allocation checks over TNBIND/PACK output (Section 6.1).

The packing contract: every live TN gets exactly one storage location; two
TNs may share a register only when their live intervals are disjoint;
registers come from the target's pool (RTA/RTB are "allocated only
through the packer's explicit RT-preference path, never from the general
pool"); values live across a call -- and pdl numbers -- must be in the
frame ("all allocatable registers are caller-saved"); and a temp slot is
as wide as its representation (``REP_WORDS``), so slots must not overlap.
"""

from __future__ import annotations

from typing import Dict, List

from ..target.registers import RTA, RTB, allocatable_registers
from ..target.reps import REP_WORDS
from . import Violation


def check_allocation(tns, packing, registers: int,
                     phase: str) -> List[Violation]:
    """Check *packing* of *tns* against the pool of a *registers*-register
    file (the count the packer was given)."""
    violations: List[Violation] = []
    live = [tn for tn in tns if tn.first is not None]
    pool = set(allocatable_registers(registers))

    by_register: Dict[int, list] = {}
    for tn in live:
        location = tn.location
        if location is None:
            violations.append(Violation(
                "allocation", phase, f"live TN {tn!r} has no location",
                subject=repr(tn)))
            continue
        if location.kind == "reg":
            by_register.setdefault(location.index, []).append(tn)
            if tn.must_stack or tn.crosses_call:
                why = "is a pdl number" if tn.must_stack \
                    else "is live across a call (registers are caller-saved)"
                violations.append(Violation(
                    "register-pool", phase,
                    f"{tn!r} {why} but was packed into a register",
                    subject=repr(tn)))
            allowed = location.index in pool \
                or (tn.prefer_rt and location.index in (RTA, RTB))
            if not allowed:
                violations.append(Violation(
                    "register-pool", phase,
                    f"{tn!r} packed into register {location.index}, "
                    f"outside the pool of a {registers}-register file",
                    subject=repr(tn)))

    for register, holders in by_register.items():
        holders = sorted(holders, key=lambda tn: (tn.first, tn.uid))
        for first, second in zip(holders, holders[1:]):
            if first.overlaps(second):
                violations.append(Violation(
                    "register-overlap", phase,
                    f"{first!r} and {second!r} share register {register} "
                    f"with overlapping lifetimes",
                    subject=repr(second)))

    # Temp slots: each slot run [index, index+width) must be disjoint and
    # inside the frame's temp area.
    slotted = sorted(
        (tn for tn in live
         if tn.location is not None and tn.location.kind == "temp-slot"),
        key=lambda tn: (tn.location.index, tn.uid))
    previous = None
    for tn in slotted:
        width = max(1, REP_WORDS.get(tn.rep, 1))
        start = tn.location.index
        if start + width > packing.temp_slots_used:
            violations.append(Violation(
                "temp-widths", phase,
                f"{tn!r} ({tn.rep}, {width} word(s)) overruns the temp "
                f"area of {packing.temp_slots_used} slot(s)",
                subject=repr(tn)))
        if previous is not None:
            prev_width = max(1, REP_WORDS.get(previous.rep, 1))
            if previous.location.index + prev_width > start:
                violations.append(Violation(
                    "temp-widths", phase,
                    f"{previous!r} ({previous.rep}, {prev_width} word(s)) "
                    f"overlaps the slot of {tn!r} at {start}",
                    subject=repr(tn)))
        previous = tn
    return violations
