"""Tests for the calculation step."""

import dataclasses

import pytest

from repro.errors import CalculationError
from repro.core.calculation import calculate_quantile, merge_candidate_runs
from repro.core.slicing import slice_sorted_events
from repro.core.synopsis import SliceSynopsis
from repro.core.window_cut import CutResult, window_cut
from repro.streaming.columns import EventColumns, select_rank
from repro.streaming.events import event_key, make_events


class TestMergeCandidateRuns:
    def test_merges_sorted_runs(self):
        run_a = make_events([1, 3, 5], node_id=1)
        run_b = make_events([2, 4, 6], node_id=2)
        merged = merge_candidate_runs([run_a, run_b])
        assert [e.value for e in merged] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_empty_runs(self):
        assert merge_candidate_runs([]) == []
        assert merge_candidate_runs([[], []]) == []

    def test_unsorted_run_rejected(self):
        bad = make_events([3, 1], node_id=1)
        with pytest.raises(CalculationError):
            merge_candidate_runs([bad])

    def test_duplicate_values_keep_key_order(self):
        run_a = make_events([2.0, 2.0], node_id=1)
        run_b = make_events([2.0], node_id=2)
        merged = merge_candidate_runs([run_a, run_b])
        assert [e.key for e in merged] == sorted(e.key for e in merged)


def _cut(local_rank, candidate_events):
    """A cut that expects ``candidate_events`` rows and wants ``local_rank``."""
    synopsis = SliceSynopsis(
        first_key=(0.0, 1, 0), last_key=(9.0, 1, 9),
        count=candidate_events, node_id=1, slice_index=0, n_slices=1,
    )
    return CutResult(rank=local_rank, candidates=(synopsis,), n_below=0)


class TestCalculateQuantile:
    #: How a run of events reaches the door: as ``Event`` objects here,
    #: as columns in the subclass below.
    as_run = staticmethod(list)

    def make_cut_and_runs(self, values, gamma, rank):
        events = sorted(make_events(values, node_id=1), key=event_key)
        sliced = slice_sorted_events(
            EventColumns.from_events(events), gamma, 1
        )
        cut = window_cut(sliced.synopses, rank)
        runs = [
            self.as_run(sliced.run_for(s.slice_index)) for s in cut.candidates
        ]
        return cut, runs, events

    def test_selects_exact_rank(self):
        cut, runs, events = self.make_cut_and_runs(range(100), gamma=10, rank=42)
        assert calculate_quantile(cut, runs) == events[41]

    def test_wrong_event_count_rejected(self):
        cut, runs, _ = self.make_cut_and_runs(range(100), gamma=10, rank=42)
        with pytest.raises(CalculationError, match="expected .* candidate"):
            calculate_quantile(cut, runs[:-1] if len(runs) > 1 else [])

    def test_rank_one(self):
        cut, runs, events = self.make_cut_and_runs(range(50), gamma=7, rank=1)
        assert calculate_quantile(cut, runs) == events[0]

    def test_rank_last(self):
        cut, runs, events = self.make_cut_and_runs(range(50), gamma=7, rank=50)
        assert calculate_quantile(cut, runs) == events[-1]

    def test_tampered_run_rejected(self):
        cut, runs, _ = self.make_cut_and_runs(range(100), gamma=10, rank=42)
        tampered = [self.as_run(reversed(list(run))) for run in runs]
        with pytest.raises(CalculationError, match="not sorted"):
            calculate_quantile(cut, tampered)

    def test_single_run(self):
        cut, runs, events = self.make_cut_and_runs(range(30), gamma=64, rank=17)
        assert len(runs) == 1
        assert calculate_quantile(cut, runs) == events[16]

    def test_empty_runs_among_non_empty(self):
        cut, runs, events = self.make_cut_and_runs(range(100), gamma=10, rank=42)
        empty = self.as_run([])
        padded = [empty, *runs, empty, empty]
        assert calculate_quantile(cut, padded) == events[41]

    def test_interleaved_runs_with_cross_run_ties(self):
        per_node = {1: [1, 4, 4, 7], 2: [2, 4, 5, 8], 3: [3, 4, 6, 9]}
        runs = [make_events(vals, node_id=n) for n, vals in per_node.items()]
        merged = sorted((e for run in runs for e in run), key=event_key)
        for rank, expected in enumerate(merged, 1):
            shipped = [self.as_run(run) for run in reversed(runs)]
            assert calculate_quantile(_cut(rank, 12), shipped) == expected

    def test_rank_outside_fetched_events_rejected(self):
        cut, runs, _ = self.make_cut_and_runs(range(100), gamma=10, rank=42)
        for n_below in (cut.rank, cut.rank - cut.candidate_events - 1):
            broken = dataclasses.replace(cut, n_below=n_below)
            with pytest.raises(CalculationError, match="local rank"):
                calculate_quantile(broken, runs)


class TestCalculateQuantileColumns(TestCalculateQuantile):
    """Every case again on columns, the form the select itself takes."""

    as_run = staticmethod(EventColumns.from_events)

    def test_runs_take_the_select(self):
        cut, runs, events = self.make_cut_and_runs(range(100), gamma=10, rank=42)
        assert select_rank(runs, cut.local_rank) == events[41]


class TestPathSelection:
    """Which inputs the select answers; the merge takes the rest."""

    def runs(self):
        return [make_events([1, 4, 7], node_id=1), make_events([2, 5], node_id=2)]

    def test_mixed_columns_and_lists_convert_at_the_door(self):
        first, second = self.runs()
        mixed = [EventColumns.from_events(first), second]
        assert calculate_quantile(_cut(3, 5), mixed) == first[1]

    def test_nan_takes_the_merge(self):
        first = self.runs()[0]
        second = make_events([2, float("nan")], node_id=2)
        columns = [EventColumns.from_events(run) for run in (first, second)]
        assert select_rank(columns, 3) is None
        assert calculate_quantile(_cut(3, 5), columns) == calculate_quantile(
            _cut(3, 5), [first, second]
        )

    def test_strided_columns_select(self):
        first, second = self.runs()
        padded = EventColumns.from_events(
            [event for event in first for _ in range(2)]
        )
        columns = [padded[::2], EventColumns.from_events(second)]
        assert select_rank(columns, 3) == first[1]


class TestErrorParity:
    """The select reports protocol violations exactly as the merge does."""

    def runs(self):
        # Slices of one sorted window: sorted, disjoint, with tied values.
        events = sorted(
            make_events([5, 1, 4, 1, 3, 3, 2, 8, 9, 7], node_id=1),
            key=event_key,
        )
        return [events[0:4], events[4:7], events[7:10]]

    def message(self, cut, runs):
        with pytest.raises(CalculationError) as info:
            calculate_quantile(
                cut, [EventColumns.from_events(run) for run in runs]
            )
        return str(info.value)

    def test_unsorted_run_names_the_same_event(self):
        runs = self.runs()
        # Tied values out of (node_id, seq) order in the second run and a
        # plain descent in the third: the first violation is the one named.
        runs[1] = [runs[1][1], runs[1][0], runs[1][2]]
        runs[2] = list(reversed(runs[2]))
        with pytest.raises(CalculationError) as merge_error:
            merge_candidate_runs(runs)
        message = self.message(_cut(5, 10), runs)
        assert message == str(merge_error.value)
        assert repr(runs[1][1]) in message

    def test_unsorted_beats_wrong_count_beats_rank(self):
        runs = self.runs()
        tampered = [runs[0], list(reversed(runs[1])), runs[2]]
        assert "not sorted" in self.message(_cut(0, 99), tampered)
        assert "expected 99 candidate events, received 10" in self.message(
            _cut(0, 99), runs
        )
        for rank in (0, 11):
            assert (
                f"local rank {rank} outside the 10 fetched"
                in self.message(_cut(rank, 10), runs)
            )

    def test_seam_between_runs_is_not_a_violation(self):
        runs = self.runs()
        expected = calculate_quantile(_cut(5, 10), runs)
        descending_seams = [runs[2], runs[0], runs[1]]
        columns = [EventColumns.from_events(run) for run in descending_seams]
        assert calculate_quantile(_cut(5, 10), columns) == expected
