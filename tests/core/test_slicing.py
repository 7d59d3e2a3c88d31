"""Tests for γ-slicing of sorted windows: a sealed window is its sorted
value column."""

import numpy as np
import pytest

from repro.errors import SliceError
from repro.core.slicing import MIN_GAMMA, slice_sorted_events
from repro.core.synopsis import SynopsisColumns


def sorted_values(n):
    """A sealed window of ``n`` events valued ``0 .. n - 1``."""
    return np.array(sorted(map(float, range(n))))


class TestSliceSizes:
    def test_paper_example_1000_events_gamma_150(self):
        # Section 3.1: l=1000, gamma=150 -> 7 slices; 6 of 150 and one of 100.
        sliced = slice_sorted_events(sorted_values(1000), 150, 1)
        sizes = [len(run) for run in sliced.runs]
        assert sizes == [150] * 6 + [100]

    def test_exact_division(self):
        sliced = slice_sorted_events(sorted_values(100), 25, 1)
        assert [len(run) for run in sliced.runs] == [25] * 4

    def test_trailing_single_event_folded_into_previous(self):
        # Every slice needs two events for a synopsis (Section 3.1).
        sliced = slice_sorted_events(sorted_values(7), 3, 1)
        assert [len(run) for run in sliced.runs] == [3, 4]

    def test_single_event_window(self):
        sliced = slice_sorted_events(sorted_values(1), 10, 1)
        assert sliced.n_slices == 1
        assert sliced.synopses[0].count == 1

    def test_empty_window(self):
        empty = np.empty(0)
        sliced = slice_sorted_events(empty, 10, 1)
        assert sliced.n_slices == 0
        assert sliced.window_size == 0
        assert sliced.values is empty

    def test_gamma_larger_than_window(self):
        sliced = slice_sorted_events(sorted_values(5), 100, 1)
        assert sliced.n_slices == 1
        assert len(sliced.runs[0]) == 5

    def test_minimum_gamma_enforced(self):
        with pytest.raises(SliceError):
            slice_sorted_events(sorted_values(10), MIN_GAMMA - 1, 1)

    def test_no_slice_smaller_than_two_when_window_allows(self):
        for n in range(2, 40):
            for gamma in range(2, 12):
                sliced = slice_sorted_events(sorted_values(n), gamma, 1)
                assert all(len(run) >= 2 for run in sliced.runs), (n, gamma)


class TestSynopses:
    def test_synopsis_boundaries_match_runs(self):
        sliced = slice_sorted_events(sorted_values(10), 3, 7)
        assert isinstance(sliced.synopses, SynopsisColumns)
        assert sliced.synopses.validated(7, SliceError) is sliced.synopses
        for i, synopsis in enumerate(sliced.synopses):
            lo, hi = sliced.bounds[i], sliced.bounds[i + 1]
            values = sliced.values[lo:hi].tolist()
            # A key is (value, owner, row in the owner's sorted window),
            # whatever node id the events carry.  A non-final last key
            # bounds the slice with the next slice's first value.
            assert synopsis.first_key == (values[0], 7, lo)
            bound = float(sliced.values[hi]) if hi < 10 else values[-1]
            assert synopsis.last_key == (bound, 7, hi - 1)
            assert synopsis.last_key >= (values[-1], 7, hi - 1)
            assert synopsis.count == len(values) == len(sliced.runs[i])
            assert synopsis.node_id == 7

    def test_synopses_indexed_in_order(self):
        sliced = slice_sorted_events(sorted_values(10), 3, 1)
        assert [s.slice_index for s in sliced.synopses] == list(
            range(sliced.n_slices)
        )
        assert all(s.n_slices == sliced.n_slices for s in sliced.synopses)

    def test_counts_cover_window(self):
        sliced = slice_sorted_events(sorted_values(997), 31, 1)
        assert sum(s.count for s in sliced.synopses) == 997
        assert sliced.window_size == 997

    def test_slices_value_disjoint_within_node(self):
        sliced = slice_sorted_events(sorted_values(100), 9, 1)
        for left, right in zip(sliced.synopses, sliced.synopses[1:]):
            assert left.last_key < right.first_key
            # The boundary: the same value, one row lower.
            assert left.last_key[0] == right.first_key[0]

    def test_ties_across_a_boundary_stay_disjoint(self):
        # Slice 0 ends on 1.0 and slice 1 starts on it: the bound (1.0,
        # owner, 2) sorts between the tied events' keys.
        values = np.array([0.0, 1.0, 1.0, 1.0])
        first, second = slice_sorted_events(values, 2, 1).synopses
        assert first.last_key == (1.0, 1, 1) < second.first_key == (1.0, 1, 2)
        assert second.last_key == (1.0, 1, 3)


class TestRunAccess:
    def test_run_for_valid_index(self):
        sliced = slice_sorted_events(sorted_values(10), 5, 1)
        assert len(sliced.run_for(1)) == 5

    def test_run_for_invalid_index(self):
        sliced = slice_sorted_events(sorted_values(10), 5, 1)
        with pytest.raises(SliceError):
            sliced.run_for(2)
        with pytest.raises(SliceError):
            sliced.run_for(-1)

    def test_runs_is_a_lazy_read_only_sequence(self):
        values = sorted_values(10)
        sliced = slice_sorted_events(values, 4, 1)
        runs = sliced.runs
        assert len(runs) == 3
        assert [run.tolist() for run in runs] == [
            values[a:b].tolist() for a, b in ((0, 4), (4, 8), (8, 10))
        ]
        assert np.array_equal(runs[-1], sliced.run_for(2))
        with pytest.raises(IndexError):
            runs[3]
        with pytest.raises(TypeError):
            runs[0] = ()

    def test_columnar_runs_are_views_cut_on_request(self):
        # The window is its sealed value column; a run is a zero-copy f64
        # view of it, cut on request (encode makes the one copy).
        values = sorted_values(10)
        sliced = slice_sorted_events(values, 4, 1)
        assert sliced.values is values
        run = sliced.run_for(1)
        assert run.dtype == np.dtype("<f8")
        assert np.shares_memory(run, values)
        assert run.tolist() == values[4:8].tolist()

    def test_runs_for_concatenates_in_index_order(self):
        # Adjacent slices are one view of the column; others are stacked.
        values = sorted_values(20)
        sliced = slice_sorted_events(values, 4, 1)
        adjacent = sliced.runs_for((1, 2, 3))
        assert np.shares_memory(adjacent, values)
        assert adjacent.tolist() == values[4:16].tolist()
        assert sliced.runs_for((0, 2, 4)).tolist() == (
            values[0:4].tolist() + values[8:12].tolist() + values[16:20].tolist()
        )
        assert sliced.runs_for(()).tolist() == []
        for indices in ((4, 5), (-1, 0), (3, 5)):
            with pytest.raises(SliceError, match="out of range"):
                sliced.runs_for(indices)
        # Indices that do not ascend are refused, also when their ends
        # would pass for an adjacent range.
        for indices in ((0, 5, 2, 3), (0, 7, 2, 3, 4), (2, 1), (1, 1)):
            with pytest.raises(SliceError, match="do not strictly ascend"):
                sliced.runs_for(indices)


class TestBatch:
    @pytest.mark.parametrize("columnar", [True])  # keeps the recorded id
    def test_unordered_run_is_a_slice_error(self, columnar):
        # A "sorted" run that is not: its first slice descends.
        values = np.array([3.0, 2.0, 1.0, 5.0, 6.0])
        with pytest.raises(SliceError, match="synopsis 0 of 2.*first_key"):
            slice_sorted_events(values, 3, 1)
