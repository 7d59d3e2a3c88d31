"""Tests for the window-cut algorithm: the frame sweep (``cut_frame``) on
one window, held to the reference and to the true ranks."""

import random

import numpy as np
import pytest

from repro.errors import IdentificationError
from repro.core.identification import identify_frame
from repro.core.slicing import slice_sorted_events
from repro.core import window_cut
from repro.core.synopsis import (
    SYNOPSIS_DTYPE,
    SliceSynopsis,
    SynopsisColumns,
    concat_synopses,
)
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


def sliced_frame(rng, windows, n_locals, size, gamma, values=None):
    """A frame of ``windows`` windows of ``n_locals`` locals of ``size``
    events each at ``gamma``, as :func:`cut_frame` takes it, with each
    window's batches."""
    batches, segments = [], []
    for window in range(windows):
        for node_id in range(1, n_locals + 1):
            drawn = rng.normal(size=size) if values is None else values(rng, size)
            batch = slice_sorted_events(np.sort(drawn), gamma, node_id).synopses
            batches.append(batch)
            segments += [window] * len(batch)
    return batches, (None if windows == 1 else np.array(segments))


class TestSearch:
    """The cut by search: locals large enough to bracket each threshold
    between sampled keys, the batches it refuses, and what it costs in
    searches, merged rows and numpy calls."""

    @pytest.mark.parametrize("seed", range(4))
    def test_large_tied_locals_cut_as_the_reference(self, seed):
        # Integer values tie within and across locals; 600-800 slices a
        # local at gamma 3 are bracketed between sampled keys.
        rng = np.random.default_rng(seed)
        for windows in (1, 3):
            batches, segments = sliced_frame(
                rng, windows, 3, int(rng.integers(1800, 2400)), 3,
                lambda rng, size: rng.integers(-40, 40, size=size) * 0.5,
            )
            frame = concat_synopses(batches)
            picks = [
                (window, int(rank))
                for window in range(windows)
                for rank in rng.integers(1, 3 * 1800, size=4)
            ]
            cut = cut_frame(frame, *zip(*picks), segments)
            bounds = cut.bounds.tolist()
            for i, (window, rank) in enumerate(picks):
                rows = [s for batch in batches[3 * window:3 * window + 3] for s in batch]
                reference = rank_bound_candidates(rows, rank)
                picked = frame.rows(cut.rows[bounds[i]:bounds[i + 1]])
                assert {s.slice_id for s in picked} == reference.candidate_ids
                assert int(cut.n_below[i]) == reference.n_below

    @pytest.mark.parametrize(
        "row, field, value",
        [
            (1, "first_value", 1.5),  # row 1 starts below row 0's top
            (2, "first_value", -1.0),  # rows descend
            (1, "first_pos", 3),  # a value tie broken the wrong way
            (2, "last_value", float("nan")),
        ],
    )
    def test_a_local_that_is_not_an_ascending_cut_is_refused(self, row, field, value):
        rows = [
            synopsis(0, 2, count=4), synopsis(2, 4, count=4, index=1),
            synopsis(4, 6, count=4, index=2), synopsis(1, 5, node_id=2),
        ]
        records = SynopsisColumns.from_rows(rows).records
        records["first_pos"] = [0, 4, 8, 0]
        records["last_pos"] = [3, 7, 11, 9]
        cut_frame(SynopsisColumns(records.copy()), [0], [5])
        records[field][row] = value
        with pytest.raises(IdentificationError, match=f"row {row}'s first key"):
            cut_frame(SynopsisColumns(records), [0], [5])

    def test_a_local_split_by_another_must_ascend_across(self):
        # Node 1's rows are split by node 2's; their second run starts
        # below the first run's top.
        rows = [
            synopsis(0, 4), synopsis(3, 8, node_id=2),
            synopsis(7, 12, index=1), synopsis(2, 3, index=2),
        ]
        with pytest.raises(IdentificationError, match="row 3's first key"):
            cut_one(rows, rank=1)

    def test_searches_grow_with_the_root_of_a_local(self, monkeypatch):
        """A 4-local window of 40,000 slices: O(√m) keys of each m-row
        local are counted to, one binary search per local of the window
        each, and O(√m) rows of each local merged per pick, so the
        needles searched and the rows merged are a fraction of the rows."""
        batches, _ = sliced_frame(np.random.default_rng(5), 1, 4, 100_000, 10)
        frame = concat_synopses(batches)
        needles, merged = [], []
        search, argsort = np.searchsorted, np.argsort

        def counting(a, v, *args, **kwargs):
            needles.append(np.size(v))
            return search(a, v, *args, **kwargs)

        def sizing(a, *args, **kwargs):
            merged.append(np.size(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counting)
        monkeypatch.setattr(np, "argsort", sizing)
        rows_per_local = len(frame) // 4
        for picks in (1, 3):
            needles.clear()
            merged.clear()
            cut_frame(frame, [0] * picks, [50_000 * i + 1 for i in range(picks)])
            assert sum(needles) <= 6 * rows_per_local ** 0.5 * 4 * picks * 3
            assert sum(needles) < len(frame) / 10
            assert max(merged) <= 6 * rows_per_local ** 0.5 * 4 * picks * 2
            assert max(merged) < len(frame) / 4

    def test_a_catch_up_frame_costs_the_numpy_calls_of_a_small_one(self):
        """Hundreds of windows in one frame take the numpy calls of a few:
        nothing loops over windows, locals or picks."""
        rng = np.random.default_rng(6)
        assert numpy_calls(*catch_up(rng, 1_000)) == numpy_calls(*catch_up(rng, 10))

    def test_a_wide_frame_keeps_its_numpy_call_budget(self):
        """16 locals x 6 windows x 3 picks: the cut that ranked every key
        (``SynopsisColumns.key_ranks``), which this search replaced, made
        88 numpy calls on this frame (docs/performance.md, "Cut by
        search")."""
        rng = np.random.default_rng(7)
        batches, segments = sliced_frame(rng, 6, 16, 600, 100)
        picks = [(window, int(rank)) for window in range(6) for rank in (1, 4_800, 9_600)]
        assert numpy_calls(concat_synopses(batches), picks, segments) <= CALL_BUDGET


#: Numpy calls of the ranking cut on the 16-local frame above, its key
#: ranking included.
CALL_BUDGET = 88


def catch_up(rng, windows):
    """A catch-up frame: ``windows`` windows of 3 locals x 30 events at
    gamma 3, three picks a window."""
    batches, segments = sliced_frame(rng, windows, 3, 30, 3)
    picks = [(window, rank) for window in range(windows) for rank in (1, 45, 90)]
    return concat_synopses(batches), picks, segments


class Counted(np.ndarray):
    """An array that counts the numpy calls made on it (every ufunc, the
    operators included, and every array function) in ``CALLS``, and
    hands the count on to what they return."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        CALLS.append(ufunc.__name__)
        if out is not None:
            kwargs["out"] = tuple(_plain(array) for array in out)
        result = getattr(ufunc, method)(*_plain(inputs), **kwargs)
        return out[0] if out is not None else _counted(result)

    def __array_function__(self, func, types, args, kwargs):
        CALLS.append(func.__name__)
        return _counted(func(*_plain(args), **_plain(kwargs)))


CALLS = []


def _plain(value):
    if isinstance(value, Counted):
        return value.view(np.ndarray)
    if isinstance(value, (tuple, list)):
        return type(value)(_plain(item) for item in value)
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _counted(value):
    if type(value) is np.ndarray:
        return value.view(Counted)
    if isinstance(value, tuple):
        return tuple(_counted(item) for item in value)
    return value


class CountingNumpy:
    """Stands in for window-cut's ``_np``: a call that takes no counted
    array (``arange``, ``zeros``, ...) is counted here and returns one."""

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, (np.ufunc, type)) or not callable(attr):
            return attr

        def call(*args, **kwargs):
            if any(isinstance(a, Counted) for a in (*args, *kwargs.values())):
                return attr(*args, **kwargs)
            CALLS.append(name)
            return _counted(attr(*args, **kwargs))

        return call


def numpy_calls(frame, picks, segments):
    """The numpy calls one :func:`cut_frame` of ``picks`` makes."""
    counted = SynopsisColumns(frame.records.view(Counted))
    if segments is not None:
        segments = segments.view(Counted)
    CALLS.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(window_cut, "_np", CountingNumpy())
        window_cut.cut_frame(counted, *zip(*picks), segments)
    return len(CALLS)
