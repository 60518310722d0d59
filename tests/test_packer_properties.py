"""Property-based tests for the TNBIND packer and the representation
lattice: allocator validity under arbitrary interval sets, and coherence of
the conversion tables."""

from hypothesis import given, settings, strategies as st

from repro.options import naive_options
from repro.target.registers import RESERVED, RTA, RTB
from repro.target.reps import (
    ALL_REPS,
    JUMP,
    NONE,
    POINTER,
    can_convert,
    conversion_cost,
    is_numeric,
)
from repro.tnbind import KIND_PDL, TN, pack_tns


@st.composite
def tn_sets(draw):
    count = draw(st.integers(min_value=1, max_value=60))
    tns = []
    for _ in range(count):
        start = draw(st.integers(min_value=0, max_value=200))
        length = draw(st.integers(min_value=1, max_value=80))
        tn = TN()
        tn.touch(start, write=True)
        tn.touch(start + length)
        tn.prefer_rt = draw(st.booleans())
        tn.crosses_call = draw(st.booleans())
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            tn.kind = KIND_PDL
            tn.must_stack = True
        tns.append(tn)
    # Sprinkle preference edges.
    for _ in range(min(5, count // 2)):
        a = tns[draw(st.integers(min_value=0, max_value=count - 1))]
        b = tns[draw(st.integers(min_value=0, max_value=count - 1))]
        if a is not b:
            a.prefer(b)
    return tns


@settings(max_examples=150, deadline=None)
@given(tns=tn_sets())
def test_packing_is_valid(tns):
    """No two simultaneously-live TNs share a register; every TN gets a
    location; stack-forced TNs are on the stack; temp slots never overlap."""
    packing = pack_tns(tns)
    for tn in tns:
        assert tn.location is not None
        if tn.must_stack or tn.crosses_call:
            assert tn.location.kind == "temp-slot"
        if tn.location.kind == "reg":
            index = tn.location.index
            assert index not in RESERVED or index in (RTA, RTB)
    # Register conflict check.
    by_register = {}
    for tn in tns:
        if tn.location.kind == "reg":
            by_register.setdefault(tn.location.index, []).append(tn)
    for occupants in by_register.values():
        for i, a in enumerate(occupants):
            for b in occupants[i + 1:]:
                assert not a.overlaps(b), (a, b)
    # Temp slots are uniquely assigned (per width).
    slots = [tn.location.index for tn in tns
             if tn.location.kind == "temp-slot"]
    assert len(slots) == len(set(slots))
    assert packing.temp_slots_used >= len(slots)


@settings(max_examples=80, deadline=None)
@given(tns=tn_sets())
def test_naive_packing_all_stack(tns):
    packing = pack_tns(tns, naive_options())
    assert all(tn.location.kind == "temp-slot" for tn in tns)
    assert packing.registers_used == set()


@settings(max_examples=80, deadline=None)
@given(tns=tn_sets(),
       registers=st.integers(min_value=1, max_value=32))
def test_packing_respects_register_budget(tns, registers):
    pack_tns(tns, registers=registers)
    used = {tn.location.index for tn in tns if tn.location.kind == "reg"}
    # Beyond the budget, only the RT registers may appear (for prefer_rt).
    over_budget = {r for r in used if r >= registers}
    assert over_budget <= {RTA, RTB}


class TestRepresentationLattice:
    def test_every_rep_converts_to_itself(self):
        for rep in ALL_REPS:
            assert can_convert(rep, rep)

    def test_none_absorbs_everything(self):
        for rep in ALL_REPS:
            assert can_convert(rep, NONE)

    def test_jump_reachable_from_values(self):
        for rep in ALL_REPS:
            if rep != NONE:
                assert can_convert(rep, JUMP)

    def test_jump_and_none_produce_nothing(self):
        for rep in ALL_REPS:
            if rep not in (JUMP, NONE):
                assert not can_convert(JUMP, rep)
                assert not can_convert(NONE, rep)

    def test_pointer_bridges_all_numerics(self):
        for rep in ALL_REPS:
            if is_numeric(rep):
                assert can_convert(POINTER, rep)
                assert can_convert(rep, POINTER)

    def test_costs_defined_exactly_for_convertible_pairs(self):
        for source in ALL_REPS:
            for target in ALL_REPS:
                cost = conversion_cost(source, target)
                if can_convert(source, target):
                    assert cost is not None and cost >= 0
                else:
                    assert cost is None

    def test_boxing_costs_more_than_unboxing(self):
        # Section 6.2: raw -> pointer "is more to be avoided".
        assert conversion_cost("SWFLO", POINTER) > \
            conversion_cost(POINTER, "SWFLO")
