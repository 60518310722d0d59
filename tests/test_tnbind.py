"""Tests for the TNBIND packer."""

from repro.options import naive_options
from repro.target.registers import RTA, RTB, RESERVED
from repro.tnbind import KIND_PDL, TN, pack_tns


def make_tn(first, last, **attrs):
    tn = TN()
    tn.touch(first, write=True)
    tn.touch(last)
    for key, value in attrs.items():
        setattr(tn, key, value)
    return tn


class TestIntervals:
    def test_touch_grows_interval(self):
        tn = TN()
        tn.touch(5, write=True)
        tn.touch(2)
        tn.touch(9)
        assert tn.first == 2 and tn.last == 9

    def test_overlap(self):
        a = make_tn(0, 5)
        b = make_tn(3, 8)
        c = make_tn(5, 9)
        assert a.overlaps(b)
        assert not a.overlaps(c)  # half-open at the boundary
        assert b.overlaps(c)

    def test_unused_tn_never_overlaps(self):
        a = TN()
        b = make_tn(0, 10)
        assert not a.overlaps(b)


class TestPacking:
    def test_disjoint_tns_share_a_register(self):
        a = make_tn(0, 3)
        b = make_tn(3, 6)
        pack_tns([a, b])
        assert a.location.kind == "reg"
        assert b.location.kind == "reg"
        assert a.location.index == b.location.index

    def test_overlapping_tns_get_distinct_registers(self):
        a = make_tn(0, 5)
        b = make_tn(1, 6)
        pack_tns([a, b])
        assert a.location.index != b.location.index or \
            a.location.kind != b.location.kind

    def test_pdl_tn_must_be_on_stack(self):
        tn = make_tn(0, 4)
        tn.kind = KIND_PDL
        tn.must_stack = True
        pack_tns([tn])
        assert tn.location.kind == "temp-slot"

    def test_call_crossing_tn_on_stack(self):
        # All allocatable registers are caller-saved.
        tn = make_tn(0, 10, crosses_call=True)
        pack_tns([tn])
        assert tn.location.kind == "temp-slot"

    def test_rt_preference_honored(self):
        tn = make_tn(0, 2, prefer_rt=True)
        pack_tns([tn])
        assert tn.location.kind == "reg"
        assert tn.location.index in (RTA, RTB)

    def test_rt_conflict_falls_to_rtb_then_pool(self):
        a = make_tn(0, 5, prefer_rt=True)
        b = make_tn(0, 5, prefer_rt=True)
        c = make_tn(0, 5, prefer_rt=True)
        pack_tns([a, b, c])
        locations = {tn.location.index for tn in (a, b, c)
                     if tn.location.kind == "reg"}
        assert RTA in locations and RTB in locations
        assert len(locations) == 3  # third spilled into the general pool

    def test_preference_edges_join_locations(self):
        a = make_tn(0, 3)
        b = make_tn(4, 8)
        a.prefer(b)
        pack_tns([a, b])
        assert a.location.kind == "reg" and b.location.kind == "reg"
        assert a.location.index == b.location.index

    def test_preference_not_honored_when_conflicting(self):
        a = make_tn(0, 5)
        b = make_tn(2, 8)  # overlaps a
        a.prefer(b)
        pack_tns([a, b])
        assert (a.location.kind, a.location.index) != \
            (b.location.kind, b.location.index)

    def test_many_tns_spill_to_stack(self):
        tns = [make_tn(0, 100) for _ in range(40)]
        packing = pack_tns(tns)
        kinds = {tn.location.kind for tn in tns}
        assert "temp-slot" in kinds  # more live TNs than registers
        assert packing.temp_slots_used > 0

    def test_reserved_registers_never_allocated(self):
        tns = [make_tn(0, 100) for _ in range(40)]
        pack_tns(tns)
        for tn in tns:
            if tn.location.kind == "reg":
                assert tn.location.index not in RESERVED or \
                    tn.location.index in (RTA, RTB)

    def test_wide_rep_takes_two_slots(self):
        a = make_tn(0, 2, must_stack=True)
        a.rep = "DWFLO"
        b = make_tn(0, 2, must_stack=True)
        packing = pack_tns([a, b])
        assert packing.temp_slots_used == 3

    def test_naive_options_all_stack(self):
        tns = [make_tn(0, 2), make_tn(3, 4)]
        packing = pack_tns(tns, naive_options())
        assert all(tn.location.kind == "temp-slot" for tn in tns)
        assert packing.registers_used == set()


class TestPreferencePoolGate:
    """Preference placement may only land a TN in a register it could have
    been given directly: partners in RTA/RTB must not pull non-RT TNs into
    the bottleneck registers, nor past the configured pool."""

    def test_preference_cannot_pull_non_rt_into_rt(self):
        a = make_tn(0, 3, prefer_rt=True)
        b = make_tn(4, 8)  # non-RT, disjoint, preference-linked to a
        b.prefer(a)
        pack_tns([a, b])
        assert a.location.index in (RTA, RTB)
        assert b.location.kind == "reg"
        assert b.location.index not in (RTA, RTB)

    def test_preference_does_not_follow_partner_out_of_pool(self):
        from repro.target.registers import allocatable_registers
        from repro.tnbind import Location

        pool = set(allocatable_registers(8))
        a = make_tn(0, 3)
        a.location = Location("reg", 20)  # outside the configured pool
        assert 20 not in pool
        b = make_tn(4, 8)
        b.prefer(a)
        pack_tns([a, b], registers=8)
        assert b.location.kind == "reg"
        assert b.location.index in pool
