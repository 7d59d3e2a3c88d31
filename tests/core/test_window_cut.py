"""Tests for the window-cut algorithm: the frame sweep (``cut_frame``) on
one window, held to the reference and to the true ranks."""

import random

import numpy as np
import pytest

from repro.errors import IdentificationError
from repro.core.identification import identify_frame
from repro.core.slicing import slice_sorted_events
from repro.core.synopsis import SYNOPSIS_DTYPE, SliceSynopsis, SynopsisColumns
from repro.core.window_cut import cut_frame, rank_bound_candidates
from repro.streaming.columns import EventColumns
from repro.streaming.events import event_key, make_events
from tests.property.test_window_cut_properties import sweep


def cut_one(synopses, rank):
    """The sweep's cut of one rank of one window of rows."""
    return sweep(synopses, [rank])[rank]


def synopsis(first, last, count=10, node_id=1, index=0, total=10):
    return SliceSynopsis(
        first_key=(float(first), node_id, 0),
        last_key=(float(last), node_id, 999_999),
        count=count,
        node_id=node_id,
        slice_index=index,
        n_slices=total,
    )


def sliced_workload(node_values, gamma):
    """Slice per-node value lists; return (synopses, runs_by_id, all_events)."""
    synopses = []
    runs = {}
    all_events = []
    for node_id, values in node_values.items():
        events = sorted(make_events(values, node_id=node_id), key=event_key)
        sliced = slice_sorted_events(
            EventColumns.from_events(events).values, gamma, node_id
        )
        synopses.extend(sliced.synopses)
        # The events behind each slice (the wire ships only their values).
        bounds = sliced.bounds
        for index in range(sliced.n_slices):
            runs[(node_id, index)] = events[
                bounds[index]:bounds[index + 1]
            ]
        all_events.extend(events)
    all_events.sort(key=event_key)
    return synopses, runs, all_events


class TestDisjointSlices:
    def test_single_candidate_when_disjoint(self):
        slices = [
            synopsis(0, 1, count=10),
            synopsis(2, 3, count=10, index=1),
            synopsis(4, 5, count=10, index=2),
        ]
        cut = cut_one(slices, rank=15)
        assert [s.slice_id for s in cut.candidates] == [(1, 1)]
        assert cut.n_below == 10
        assert cut.local_rank == 5

    def test_rank_at_unit_boundaries(self):
        slices = [synopsis(0, 1, count=10), synopsis(2, 3, count=10, index=1)]
        low = cut_one(slices, rank=10)
        assert [s.slice_id for s in low.candidates] == [(1, 0)]
        high = cut_one(slices, rank=11)
        assert [s.slice_id for s in high.candidates] == [(1, 1)]

    def test_first_and_last_rank(self):
        slices = [synopsis(0, 1, count=5), synopsis(2, 3, count=5, index=1)]
        assert cut_one(slices, rank=1).n_below == 0
        last = cut_one(slices, rank=10)
        assert last.local_rank == 5


class TestOverlaps:
    def test_fully_overlapping_slices_all_candidates(self):
        slices = [
            synopsis(0, 10, count=10),
            synopsis(0, 10, count=10, node_id=2),
        ]
        cut = cut_one(slices, rank=10)
        assert len(cut.candidates) == 2
        assert cut.n_below == 0

    def test_cover_slice_kept_when_it_may_reach_rank(self):
        outer = synopsis(0, 100, count=10)
        inner = synopsis(40, 60, count=10, node_id=2)
        cut = cut_one([outer, inner], rank=10)
        assert {s.slice_id for s in cut.candidates} == {(1, 0), (2, 0)}

    def test_distant_member_pruned(self):
        # A chain a--b--c where a and c are value-disjoint; rank deep in c's
        # region excludes a.
        a = synopsis(0, 4, count=10)
        b = synopsis(3, 8, count=2, node_id=2)
        c = synopsis(7, 12, count=10, index=1)
        cut = cut_one([a, b, c], rank=21)
        ids = {s.slice_id for s in cut.candidates}
        assert (1, 1) in ids
        assert (1, 0) not in ids
        assert cut.n_below >= 10


class TestValidation:
    def test_empty_synopses_rejected(self):
        with pytest.raises(IdentificationError):
            cut_one([], rank=1)

    def test_out_of_range_rank_rejected(self):
        slices = [synopsis(0, 1, count=5)]
        with pytest.raises(IdentificationError):
            cut_one(slices, rank=0)
        with pytest.raises(IdentificationError):
            cut_one(slices, rank=6)

    def test_size_cross_check(self):
        slices = [synopsis(0, 1, count=5, total=1)]
        with pytest.raises(IdentificationError, match="reports window size 6"):
            identify_frame([({1: slices}, {1: 6}, [0.2])])
        (plan,) = identify_frame([({1: slices}, {1: 5}, [0.2])])
        assert plan.picks == ((None, 1),)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_unordered_keys_are_a_named_error(self, rank):
        """A batch built straight from records skips ``validated``: a NaN
        first value ranks above its row's last key, and the cut refuses
        the whole batch for every rank instead of answering some."""
        records = np.array(
            [
                (float("nan"), 2.0, 2, 0, 1, 0, 1, 1),
                (1.0, 1.0, 1, 0, 0, 0, 1, 2),
            ],
            dtype=SYNOPSIS_DTYPE,
        )
        with pytest.raises(IdentificationError, match="not totally ordered"):
            cut_frame(SynopsisColumns(records), [0], [rank])


class TestEquivalenceWithReference:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("gamma", [2, 7, 25])
    def test_window_cut_matches_rank_bounds(self, seed, gamma):
        rng = random.Random(seed)
        node_values = {
            1: [rng.gauss(0, 1) for _ in range(rng.randint(1, 120))],
            2: [rng.gauss(rng.uniform(-1, 1), 1.5) for _ in range(rng.randint(1, 120))],
            3: [rng.gauss(2, 0.3) for _ in range(rng.randint(1, 60))],
        }
        synopses, _, all_events = sliced_workload(node_values, gamma)
        total = len(all_events)
        for rank in {1, total // 4 + 1, total // 2 + 1, total}:
            fast = cut_one(synopses, rank)
            slow = rank_bound_candidates(synopses, rank)
            assert fast.candidate_ids == slow.candidate_ids
            assert fast.n_below == slow.n_below


class TestCorrectSelection:
    @pytest.mark.parametrize("seed", range(8))
    def test_candidates_always_contain_true_rank_event(self, seed):
        rng = random.Random(100 + seed)
        node_values = {
            1: [rng.uniform(0, 100) for _ in range(80)],
            2: [rng.uniform(30, 70) for _ in range(50)],
        }
        gamma = rng.choice([2, 5, 11])
        synopses, runs, all_events = sliced_workload(node_values, gamma)
        for rank in (1, len(all_events) // 3, len(all_events)):
            rank = max(rank, 1)
            cut = cut_one(synopses, rank)
            candidate_events = []
            for s in cut.candidates:
                candidate_events.extend(runs[s.slice_id])
            candidate_events.sort(key=event_key)
            truth = all_events[rank - 1]
            assert truth in candidate_events
            assert candidate_events[cut.local_rank - 1] == truth

    def test_candidate_metrics(self):
        slices = [synopsis(0, 1, count=6), synopsis(2, 3, count=4, index=1)]
        cut = cut_one(slices, rank=8)
        assert cut.candidate_events == 4
