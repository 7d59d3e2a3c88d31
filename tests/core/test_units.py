"""Tests for overlap units and the slice taxonomy."""

import pytest

from repro.errors import IdentificationError
from repro.core.synopsis import SliceSynopsis
from repro.core.units import (
    SliceKind,
    build_units,
    classify_slice,
    unit_statistics,
)


def synopsis(first, last, count=10, node_id=1, index=0, total=10):
    return SliceSynopsis(
        first_key=(float(first), node_id, 0),
        last_key=(float(last), node_id, 999_999),
        count=count,
        node_id=node_id,
        slice_index=index,
        n_slices=total,
    )


class TestBuildUnits:
    def test_disjoint_slices_form_singleton_units(self):
        slices = [synopsis(0, 1), synopsis(2, 3, index=1), synopsis(4, 5, index=2)]
        units = build_units(slices)
        assert [len(u.members) for u in units] == [1, 1, 1]

    def test_overlapping_slices_merge(self):
        slices = [synopsis(0, 5), synopsis(4, 9, node_id=2)]
        units = build_units(slices)
        assert len(units) == 1
        assert len(units[0].members) == 2

    def test_transitive_chain_merges(self):
        slices = [
            synopsis(0, 5),
            synopsis(4, 9, node_id=2),
            synopsis(8, 12, node_id=3),
        ]
        assert len(build_units(slices)) == 1

    def test_offsets_are_cumulative_counts(self):
        slices = [
            synopsis(0, 1, count=5),
            synopsis(2, 3, count=7, index=1),
            synopsis(10, 20, count=3, index=2),
        ]
        units = build_units(slices)
        assert [u.offset for u in units] == [0, 5, 12]
        assert [u.pos_start for u in units] == [1, 6, 13]
        assert [u.pos_end for u in units] == [5, 12, 15]

    def test_rank_intervals_partition(self):
        slices = [
            synopsis(0, 5, count=4),
            synopsis(4, 9, count=6, node_id=2),
            synopsis(20, 30, count=5, index=1),
        ]
        units = build_units(slices)
        total = sum(u.size for u in units)
        covered = []
        for unit in units:
            covered.extend(range(unit.pos_start, unit.pos_end + 1))
        assert covered == list(range(1, total + 1))

    def test_input_order_irrelevant(self):
        slices = [synopsis(4, 9, node_id=2), synopsis(0, 5), synopsis(20, 21, index=1)]
        units_a = build_units(slices)
        units_b = build_units(list(reversed(slices)))
        assert [u.members for u in units_a] == [u.members for u in units_b]

    def test_empty_input(self):
        assert build_units([]) == []

    def test_contains_rank(self):
        units = build_units([synopsis(0, 1, count=5), synopsis(2, 3, count=5, index=1)])
        assert units[0].contains_rank(1)
        assert units[0].contains_rank(5)
        assert not units[0].contains_rank(6)
        assert units[1].contains_rank(6)


class TestRankBounds:
    def test_disjoint_members_have_exact_ranks(self):
        # Members overlap pairwise via a bridge but a & c are disjoint.
        a = synopsis(0, 4, count=10)
        bridge = synopsis(3, 8, count=10, node_id=2)
        c = synopsis(7, 12, count=10, index=1)
        unit = build_units([a, bridge, c])[0]
        assert unit.min_rank(a) == 1
        assert unit.max_rank(a) == 20  # c certainly above, bridge unknown
        assert unit.min_rank(c) == 11  # a certainly below
        assert unit.max_rank(c) == 30

    def test_identical_ranges_fully_ambiguous(self):
        a = synopsis(0, 10, count=5)
        b = synopsis(0, 10, count=5, node_id=2)
        unit = build_units([a, b])[0]
        for member in (a, b):
            assert unit.min_rank(member) == 1
            assert unit.max_rank(member) == 10

    def test_bounds_contain_true_ranks(self):
        # Construct events, slice them, and verify the true rank interval of
        # every slice lies within [min_rank, max_rank].
        from repro.core.slicing import slice_sorted_events
        from repro.streaming.columns import EventColumns
        from repro.streaming.events import event_key, make_events
        import random

        rng = random.Random(5)
        node_events = {
            1: sorted(make_events([rng.gauss(0, 1) for _ in range(200)],
                                  node_id=1), key=event_key),
            2: sorted(make_events([rng.gauss(0.5, 1.2) for _ in range(150)],
                                  node_id=2), key=event_key),
        }
        synopses = []
        for node_id, events in node_events.items():
            synopses.extend(slice_sorted_events(
                EventColumns.from_events(events).values, 20, node_id
            ).synopses)
        all_events = sorted(
            (e for events in node_events.values() for e in events),
            key=event_key,
        )
        # A synopsis key is (value, owner, row in the owner's sorted window).
        global_rank = {}
        for rank, e in enumerate(all_events, start=1):
            position = node_events[e.node_id].index(e)
            global_rank[(e.value, e.node_id, position)] = rank
        for unit in build_units(synopses):
            for member in unit.members:
                true_first = global_rank[member.first_key]
                # A last key bounds the slice; its true last event sits at
                # the key's position.
                _, node_id, last = member.last_key
                true_last = global_rank[
                    (node_events[node_id][last].value, node_id, last)
                ]
                assert unit.min_rank(member) <= true_first
                assert unit.max_rank(member) >= true_last


class TestTaxonomy:
    def test_separate_slice(self):
        unit = build_units([synopsis(0, 1)])[0]
        assert classify_slice(unit, unit.members[0]) is SliceKind.SEPARATE

    def test_compound_slices(self):
        a = synopsis(0, 5)
        b = synopsis(4, 9, node_id=2)
        unit = build_units([a, b])[0]
        assert classify_slice(unit, a) is SliceKind.COMPOUND
        assert classify_slice(unit, b) is SliceKind.COMPOUND

    def test_cover_slice(self):
        outer = synopsis(0, 10)
        inner = synopsis(3, 7, node_id=2)
        unit = build_units([outer, inner])[0]
        assert classify_slice(unit, inner) is SliceKind.COVER
        assert classify_slice(unit, outer) is SliceKind.COMPOUND

    def test_non_member_rejected(self):
        unit = build_units([synopsis(0, 1)])[0]
        with pytest.raises(IdentificationError):
            classify_slice(unit, synopsis(5, 6, node_id=9))

    def test_unit_statistics_census(self):
        slices = [
            synopsis(0, 1),                      # separate
            synopsis(10, 20),                    # compound with next
            synopsis(15, 25, node_id=2),         # compound
            synopsis(16, 18, node_id=3),         # cover inside both
        ]
        stats = unit_statistics(build_units(slices))
        assert stats["separate"] == 1
        assert stats["compound"] == 2
        assert stats["cover"] == 1
