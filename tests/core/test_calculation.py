"""Tests for the calculation step: a rank select over candidate value runs."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CalculationError
from repro.core.calculation import calculate_quantile, check_run as _check_run
from repro.core.engine import dema_quantiles
from repro.core.root_node import DemaRootNode
from repro.core.identification import identify_frame
from repro.core.slicing import slice_sorted_events
from repro.core.synopsis import SliceSynopsis
from repro.core.window_cut import CutResult
from repro.network.messages import (
    CandidateBatchMessage,
    SynopsisBatchMessage,
    covering_window,
)
from repro.network.simulator import Outbox
from repro.streaming.columns import EventColumns, select_frame, select_rank
from repro.streaming.events import Event, event_key, make_events
from repro.streaming.windows import Window
from repro.testing import oracle
from tests.property.test_window_cut_properties import frames, sweep


def vals(values):
    return np.array(values, dtype="<f8")


def _bits(value):
    return struct.pack("<d", value)


def alone(sliced, qs):
    """One window's values, as the in-memory answer selects them: its
    ``identify_frame`` plan, the plan's runs stacked in ``(node_id,
    slice_index)`` order and one ``select_frame``."""
    (plan,) = identify_frame([(
        {node: s.synopses for node, s in sliced.items()},
        {node: s.window_size for node, s in sliced.items()},
        qs,
    )])
    runs = [sliced[node].run_for(index) for node, index in plan.candidates]
    return plan, next(select_frame([(runs, plan.picks)]))


def check_run(run, synopsis):
    """:func:`~repro.core.calculation.check_run` against a synopsis row."""
    _check_run(
        run, synopsis.slice_id, synopsis.count, synopsis.first_value,
        synopsis.last_value, synopsis.slice_index == synopsis.n_slices - 1,
    )


class TestMergeCandidateRuns:
    """The calculation step merges the candidate runs by a rank select:
    held against one sort of every value."""

    def test_merges_sorted_runs(self):
        rng = np.random.default_rng(3)
        runs = [
            np.sort(rng.normal(size=size)) for size in (0, 7, 1, 12, 5)
        ]
        merged = np.sort(np.concatenate(runs))
        for k in range(1, len(merged) + 1):
            assert select_rank(runs, k) == merged[k - 1]

    def test_empty_runs(self):
        for runs in ([], [vals([]), vals([])]):
            with pytest.raises(CalculationError, match="outside the 0"):
                select_rank(runs, 1)

    def test_unsorted_run_rejected(self):
        with pytest.raises(CalculationError, match="near value 1.0"):
            select_rank([vals([3, 1])], 1)

    def test_nan_is_refused(self):
        # A wire-fed NaN reaches the root only in a peer's run: no rank.
        runs = [vals([1.0, 4.0, 7.0]), vals([2.0, float("nan")])]
        for k in range(1, 6):
            with pytest.raises(CalculationError, match="holds a NaN value"):
                select_rank(runs, k)

    def test_duplicate_values_keep_key_order(self):
        # Equal values resolve in the order the runs are handed in: the
        # (node_id, slice_index) order, which is the full key's order.
        runs = [vals([-0.0, 2.0]), vals([0.0])]
        assert [_bits(select_rank(runs, k)) for k in (1, 2, 3)] == [
            _bits(-0.0), _bits(0.0), _bits(2.0)
        ]


def _cut(local_rank, candidate_events):
    """A cut that expects ``candidate_events`` rows and wants ``local_rank``."""
    synopsis = SliceSynopsis(
        first_key=(0.0, 1, 0), last_key=(9.0, 1, 9),
        count=candidate_events, node_id=1, slice_index=0, n_slices=1,
    )
    return CutResult(rank=local_rank, candidates=(synopsis,), n_below=0)


class TestCalculateQuantile:
    #: How a value run reaches the door: as a list of floats here, as the
    #: f64 array the wire decodes to in the subclass below.
    as_run = staticmethod(list)

    def make_cut_and_runs(self, values, gamma, rank):
        events = sorted(make_events(values, node_id=1), key=event_key)
        sliced = slice_sorted_events(
            EventColumns.from_events(events).values, gamma, 1
        )
        cut = sweep(sliced.synopses, [rank])[rank]
        runs = [
            self.as_run(sliced.run_for(s.slice_index)) for s in cut.candidates
        ]
        return cut, runs, [event.value for event in events]

    def test_selects_exact_rank(self):
        cut, runs, values = self.make_cut_and_runs(range(100), gamma=10, rank=42)
        assert calculate_quantile(cut, runs).value == values[41]

    def test_wrong_event_count_rejected(self):
        cut, runs, _ = self.make_cut_and_runs(range(100), gamma=10, rank=42)
        with pytest.raises(CalculationError, match="expected .* candidate"):
            calculate_quantile(cut, runs[:-1] if len(runs) > 1 else [])

    def test_rank_one(self):
        cut, runs, values = self.make_cut_and_runs(range(50), gamma=7, rank=1)
        assert calculate_quantile(cut, runs).value == values[0]

    def test_rank_last(self):
        cut, runs, values = self.make_cut_and_runs(range(50), gamma=7, rank=50)
        assert calculate_quantile(cut, runs).value == values[-1]

    def test_tampered_run_rejected(self):
        cut, runs, _ = self.make_cut_and_runs(range(100), gamma=10, rank=42)
        tampered = [self.as_run(list(run)[::-1]) for run in runs]
        with pytest.raises(CalculationError, match="not sorted"):
            calculate_quantile(cut, tampered)

    def test_single_run(self):
        cut, runs, values = self.make_cut_and_runs(range(30), gamma=64, rank=17)
        assert len(runs) == 1
        assert calculate_quantile(cut, runs).value == values[16]

    def test_empty_runs_among_non_empty(self):
        cut, runs, values = self.make_cut_and_runs(range(100), gamma=10, rank=42)
        empty = self.as_run([])
        padded = [empty, *runs, empty, empty]
        assert calculate_quantile(cut, padded).value == values[41]

    def test_interleaved_runs_with_cross_run_ties(self):
        # Runs in node order; the tied zeros differ in sign, so the bits
        # show which tied row each rank takes.
        per_node = {
            1: [-1, -0.0, 4, 7], 2: [-0.0, 0.0, 4, 8], 3: [0.0, 4, 6, 9]
        }
        events = [
            event for node, values in per_node.items()
            for event in make_events(values, node_id=node)
        ]
        merged = sorted(events, key=event_key)
        runs = [self.as_run(vals(values)) for values in per_node.values()]
        for rank, expected in enumerate(merged, 1):
            answer = calculate_quantile(_cut(rank, 12), runs)
            assert _bits(answer.value) == _bits(expected.value)

    def test_rank_outside_fetched_events_rejected(self):
        cut, runs, _ = self.make_cut_and_runs(range(100), gamma=10, rank=42)
        for n_below in (cut.rank, cut.rank - cut.candidate_events - 1):
            broken = dataclasses.replace(cut, n_below=n_below)
            with pytest.raises(CalculationError, match="local rank"):
                calculate_quantile(broken, runs)


class TestCalculateQuantiles:
    """One window's quantiles over one stack of fetched runs, held bit for
    bit against the oracle where zeros of both signs tie across nodes."""

    # Node 2's slice [-3, 0.0] sweeps before node 1's [-0.0, 5]; merged by
    # full event key the -0.0 of node 1 comes first.
    PER_NODE = {
        2: [-3.0, 0.0, 0.0, 6.0, 7.0, -0.0],
        1: [-0.0, 5.0, 8.0, 9.0, -0.0, 0.0],
        3: [0.0, -0.0, 1.0, 2.0, 10.0, 11.0],
    }

    def windows(self):
        return {
            node: [
                Event(value=v, timestamp=i, node_id=node, seq=i)
                for i, v in enumerate(values)
            ]
            for node, values in self.PER_NODE.items()
        }

    @pytest.mark.parametrize("gamma", [2, 3, 4])
    def test_every_rank_matches_the_oracle(self, gamma):
        windows = self.windows()
        n = sum(map(len, windows.values()))
        qs = [rank / n for rank in range(1, n + 1)]
        # Each local's sealed column in full event key order.
        sliced = {
            node: slice_sorted_events(
                vals([e.value for e in sorted(events, key=event_key)]),
                gamma, node,
            )
            for node, events in windows.items()
        }
        plan, values = alone(sliced, qs)
        assert len({
            None if runs is None else runs.tobytes()
            for runs, _ in plan.picks
        }) > 1
        truth = oracle(
            [e for events in windows.values() for e in events],
            [0], 100, qs,
        )
        expected = [next(iter(table.values()))[0] for table in truth]
        assert [_bits(v) for v in values] == [_bits(v) for v in expected]
        # Each quantile alone, and the in-memory engine, select the same
        # bits.
        assert [
            _bits(alone(sliced, [q])[1][0]) for q in qs
        ] == [_bits(v) for v in expected]
        engine = dema_quantiles(windows, qs, gamma)
        assert [_bits(engine.values[q]) for q in qs] == [
            _bits(v) for v in expected
        ]


class TestCalculateQuantileColumns(TestCalculateQuantile):
    """Every case again on f64 arrays, the form the wire decodes to."""

    as_run = staticmethod(vals)

    def test_runs_take_the_select(self):
        cut, runs, values = self.make_cut_and_runs(range(100), gamma=10, rank=42)
        assert select_rank(runs, cut.local_rank) == values[41]


class TestPathSelection:
    """Every input form the select answers, and the one it refuses."""

    def runs(self):
        return [[1.0, 4.0, 7.0], [2.0, 5.0]]

    def test_mixed_columns_and_lists_convert_at_the_door(self):
        first, second = self.runs()
        mixed = [vals(first), second]
        assert calculate_quantile(_cut(3, 5), mixed).value == 4.0

    def test_nan_is_refused_in_every_form(self):
        first = self.runs()[0]
        second = [2.0, float("nan")]
        for runs in ([vals(first), vals(second)], [first, second]):
            with pytest.raises(CalculationError, match="holds a NaN value"):
                calculate_quantile(_cut(3, 5), runs)

    def test_strided_columns_select(self):
        first, second = self.runs()
        padded = vals([value for value in first for _ in range(2)])
        assert select_rank([padded[::2], vals(second)], 3) == 4.0


class TestErrorParity:
    """The calculation reports each protocol violation in one message,
    whatever form the runs come in."""

    def runs(self):
        # Slices of one sorted window: sorted, disjoint, with tied values.
        values = sorted([5, 1, 4, 1, 3, 3, 2, 8, 9, 7])
        return [values[0:4], values[4:7], values[7:10]]

    def message(self, cut, runs):
        with pytest.raises(CalculationError) as info:
            calculate_quantile(cut, [vals(run) for run in runs])
        return str(info.value)

    def test_unsorted_run_names_the_same_event(self):
        # Tied values carry no order of their own on the wire, so only a
        # descent is a violation: here in the second and third runs, and
        # the first one is the one named.
        runs = self.runs()
        runs[1] = [runs[1][2], runs[1][0], runs[1][1]]
        runs[2] = list(reversed(runs[2]))
        message = self.message(_cut(5, 10), runs)
        with pytest.raises(CalculationError) as as_lists:
            calculate_quantile(_cut(5, 10), runs)
        assert message == str(as_lists.value) == (
            "candidate run is not sorted; local node violated the protocol "
            f"near value {float(runs[1][1])!r}"
        )

    def test_wrong_count_beats_rank_beats_unsorted(self):
        # The count is the cut's own check; the select's come after it.
        runs = self.runs()
        tampered = [runs[0], list(reversed(runs[1])), runs[2]]
        assert "expected 99 candidate events, received 10" in self.message(
            _cut(0, 99), tampered
        )
        assert "local rank 0 outside" in self.message(_cut(0, 10), tampered)
        assert "not sorted" in self.message(_cut(1, 10), tampered)
        for rank in (0, 11):
            assert (
                f"local rank {rank} outside the 10 fetched"
                in self.message(_cut(rank, 10), runs)
            )

    def test_seam_between_runs_is_not_a_violation(self):
        runs = self.runs()
        expected = calculate_quantile(_cut(5, 10), runs)
        descending_seams = [runs[2], runs[0], runs[1]]
        arrays = [vals(run) for run in descending_seams]
        assert calculate_quantile(_cut(5, 10), arrays) == expected


class TestCheckRun:
    """A served run must be the slice its synopsis describes."""

    #: A non-final slice: its last value 3.0 is the next slice's first.
    SYNOPSIS = SliceSynopsis(
        first_key=(-0.0, 1, 4), last_key=(3.0, 1, 7),
        count=4, node_id=1, slice_index=2, n_slices=5,
    )
    #: The final slice: its last value is the window's maximum.
    FINAL = SliceSynopsis(
        first_key=(5.0, 1, 16), last_key=(9.0, 1, 19),
        count=4, node_id=1, slice_index=4, n_slices=5,
    )

    def test_the_requested_slice_passes(self):
        check_run(vals([-0.0, 1.0, 2.0, 3.0]), self.SYNOPSIS)
        check_run(vals([5.0, 6.0, 7.0, 9.0]), self.FINAL)

    def test_a_last_value_below_the_boundary_passes(self):
        # The boundary bounds the slice; its own last value may be lower.
        check_run(vals([-0.0, 1.0, 2.0, 2.5]), self.SYNOPSIS)

    def test_a_last_value_past_the_next_boundary_is_refused(self):
        with pytest.raises(
            CalculationError, match=r"\(1, 2\) does not match.*below 3\.0"
        ):
            check_run(vals([-0.0, 1.0, 2.0, 3.0 + 1e-9]), self.SYNOPSIS)

    @pytest.mark.parametrize("last", [8.5, 9.5])
    def test_a_final_run_off_the_shipped_maximum_is_refused(self, last):
        # The final slice ships its true maximum: below it is refused too.
        with pytest.raises(
            CalculationError, match=r"\(1, 4\) does not match.*to 9\.0"
        ):
            check_run(vals([5.0, 6.0, 7.0, last]), self.FINAL)

    def test_a_final_maximum_is_checked_bit_for_bit(self):
        final = SliceSynopsis(
            first_key=(-1.0, 1, 0), last_key=(0.0, 1, 1),
            count=2, node_id=1, slice_index=0, n_slices=1,
        )
        check_run(vals([-1.0, 0.0]), final)
        with pytest.raises(CalculationError, match="does not match"):
            check_run(vals([-1.0, -0.0]), final)

    @pytest.mark.parametrize(
        "run",
        [
            [-0.0, 1.0, 3.0],  # one short
            [-0.0, 1.0, 2.0, 3.0, 3.0],  # one long
            [0.0, 1.0, 2.0, 3.0],  # first value equal, bits differ
            [-0.0, 1.0, 2.0, 3.5],  # last value differs
            [3.0, 4.0, 5.0, 6.0],  # a neighbouring slice
        ],
    )
    def test_another_run_is_a_calculation_error(self, run):
        with pytest.raises(CalculationError, match=r"\(1, 2\) does not match"):
            check_run(vals(run), self.SYNOPSIS)



def _serve_frame(gamma, windows, corrupt=None, roots=None):
    """Drive one :class:`DemaRootNode` through a frame as the live query
    plane does: every local's synopses of every window in one batch, then
    every local's candidate runs in one batch.  ``corrupt(window, node,
    indices, runs)`` may rewrite one section's runs (a list of value
    arrays) before it is sent; the root is appended to ``roots`` before
    it is driven.  Returns the root and, per window, the ``(node,
    slice_index)`` runs it requested."""
    nodes = sorted({node for sliced, _ in windows for node in sliced})
    # Locals listed in descending id order: the root still stacks each
    # window's runs in (node_id, slice_index) order.
    root = DemaRootNode(0, local_ids=nodes[::-1], query=None)
    if roots is not None:
        roots.append(root)
    outbox = Outbox()
    root.attach(outbox)
    grid = {1000 * w: qs for w, (_, qs) in enumerate(windows)}
    root.open_group(1, gamma, lambda window: grid[window.start])
    bounds = [Window(1000 * w, 1000 * (w + 1)) for w in range(len(windows))]
    empty = slice_sorted_events(vals([]), gamma, 0)
    for node in nodes:
        sections = []
        for window, (sliced, _) in zip(bounds, windows):
            own = sliced.get(node)
            sections.append((
                1, window, 0 if own is None else own.window_size,
                empty.synopses if own is None else own.synopses,
            ))
        root.on_message(SynopsisBatchMessage(
            sender=node, window=covering_window(sections),
            sections=tuple(sections),
        ), 0.0)
    requests = dict(outbox.drain())
    assert set(requests) == set(nodes)
    requested = {w: [] for w in range(len(windows))}
    for node in nodes:
        for _, window, indices in requests[node].sections:
            requested[window.start // 1000] += [(node, i) for i in indices]
    for node in nodes:
        sections = []
        for _, window, indices in requests[node].sections:
            if not indices:
                continue
            w = window.start // 1000
            runs = [windows[w][0][node].run_for(index) for index in indices]
            if corrupt is not None:
                runs = corrupt(w, node, indices, runs)
            sections.append((1, window, indices, np.concatenate(runs)))
        if sections:
            root.on_message(CandidateBatchMessage(
                sender=node, window=covering_window(sections),
                sections=tuple(sections),
            ), 0.0)
    return root, requested


class TestFrameCalculation:
    """The root calculates a frame of windows from one stacked value array,
    each value bit for bit what a one-window frame gives the window alone
    and what the oracle gives, and refuses a wrong run in any window as
    :func:`check_run` does."""

    @given(frames())
    @settings(max_examples=150, deadline=None)
    def test_every_value_is_the_windows_alone(self, case):
        gamma, windows = case
        root, _ = _serve_frame(gamma, windows)
        answered = {o.window.start // 1000: o for o in root.outcomes}
        assert sorted(answered) == list(range(len(windows)))
        assert root.identifications == len(windows)
        for w, (sliced, qs) in enumerate(windows):
            outcome = answered[w]
            assert outcome.quantiles == tuple(qs)
            assert [_bits(v) for v in outcome.values] == [
                _bits(v) for v in alone(sliced, qs)[1]
            ]
            # Each local's sorted column is its events in key order.
            events = [
                Event(value=v, timestamp=0, node_id=node, seq=seq)
                for node, s in sliced.items()
                for seq, v in enumerate(s.values.tolist())
            ]
            truth = oracle(events, [0], 1000, qs)
            assert [_bits(v) for v in outcome.values] == [
                _bits(table[Window(0, 1000)][0]) for table in truth
            ]

    @given(
        frames(),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["count", "first", "last"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_wrong_run_in_any_window_names_its_slice(
        self, case, seed, fault
    ):
        gamma, windows = case
        _, requested = _serve_frame(gamma, windows)
        runs = [(w, *run) for w in requested for run in requested[w]]
        window, node, index = runs[seed % len(runs)]
        if fault == "count":
            # Short by one as the last run of its section, so the split
            # leaves every other run whole.
            index = [i for n, i in requested[window] if n == node][-1]
        synopsis = windows[window][0][node].synopses[index]

        def corrupt(w, n, indices, runs):
            if (w, n) != (window, node):
                return runs
            at = indices.index(index)
            run = runs[at].copy()
            if fault == "count":
                run = run[:-1]
            elif fault == "first":
                run[0] = np.nextafter(run[0], -np.inf)
            elif index == synopsis.n_slices - 1:
                run[-1] = np.nextafter(run[-1], np.inf)
            else:
                # Past the next slice's first value: a descent at the seam.
                run[-1] = np.nextafter(synopsis.last_value, np.inf)
            runs[at] = run
            return runs

        with pytest.raises(CalculationError, match=(
            rf"candidate run \({node}, {index}\) does not match"
        )):
            _serve_frame(gamma, windows, corrupt)

    def test_a_descent_inside_a_run_is_refused(self):
        values = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        sliced = {
            1: slice_sorted_events(vals(values), 3, 1),
            2: slice_sorted_events(vals([v + 0.5 for v in values]), 3, 2),
        }
        windows = [(sliced, [0.5]), (sliced, [0.1, 0.9])]

        def corrupt(w, n, indices, runs):
            if (w, n) == (1, 1) and indices[0] == 0:
                runs[0] = runs[0][[0, 2, 1]]  # first and bound kept
            return runs

        root, requested = _serve_frame(3, windows)
        assert (1, 0) in requested[1]
        roots = []
        with pytest.raises(CalculationError, match="not sorted"):
            _serve_frame(3, windows, corrupt, roots)
        # One candidate batch completes both windows: the one before the
        # faulty window is answered, as it is when calculated alone.
        (root,) = roots
        assert [o.window for o in root.outcomes] == [Window(0, 1000)]
        assert [_bits(v) for v in root.outcomes[0].values] == [
            _bits(v) for v in alone(sliced, [0.5])[1]
        ]
