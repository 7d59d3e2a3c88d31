"""Shared-slice sliding windows: bit-identity against the naive recompute.

Panes keep the batches that fell in them, and a window's run is one sort
of its panes' values; these tests check the sharing is invisible — every
window's sorted value column is **bit-identical** (the same value bytes in
the same order, ``-0.0`` apart from ``0.0``) to filtering the window out of
the stream and sorting it from scratch by the full event key — across
overlap, tumbling degeneration and gap configurations, including a full
hypothesis sweep over random streams, window shapes and batch sizes, plus
the cases only batches have: a batch spanning several panes, out-of-order
timestamps inside a batch, an empty batch, an empty pane inside a window.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.slicing import slice_sorted_events
from repro.errors import QueryError
from repro.queries.slide import PaneStore, SlidingRunAggregator
from repro.streaming.columns import EVENT_DTYPE, EventColumns, sort_values


def make_stream(n, *, span_ms, seed, n_nodes=3, ordered=False):
    """``n`` events in arrival order; timestamps shuffled unless ordered."""
    rng = np.random.default_rng(seed)
    timestamps = rng.integers(0, span_ms, size=n)
    if ordered:
        timestamps.sort()
    values = rng.normal(0.0, 20.0, size=n).round(1)  # rounded: value ties
    values[rng.random(n) < 0.05] = -0.0  # and both signs of zero
    return EventColumns.from_arrays(
        values, timestamps, rng.integers(1, n_nodes + 1, size=n)
    )


def columns(*rows):
    """A batch from ``(value, timestamp, node_id, seq)`` rows."""
    return EventColumns(np.array(list(rows), dtype=EVENT_DTYPE))


def rows_of(events):
    return list(
        zip(
            events.values.tolist(),
            events.timestamps.tolist(),
            events.node_ids.tolist(),
            events.seqs.tolist(),
        )
    )


def naive_window_run(events, start, length):
    """The reference, with no numpy sort in it: filter the window's rows,
    sort them from scratch by the event key, pack their values' bytes."""
    inside = [r for r in rows_of(events) if start <= r[1] < start + length]
    inside.sort(key=lambda r: (r[0], r[2], r[3]))
    return np.array([r[0] for r in inside], dtype="<f8").tobytes()


def pane_seqs(store, start):
    """The seqs of a closed pane's rows, in arrival order."""
    return [seq for rows in store.sealed_pane(start) for seq in rows.seqs]


def fill(store, events, batch_rows):
    for at in range(0, len(events), batch_rows):
        store.add(events[at:at + batch_rows])


def windows_via_aggregator(events, *, length, step, horizon, batch_rows=64):
    """Drive PaneStore + SlidingRunAggregator over the whole stream."""
    pane_ms = math.gcd(length, step)
    store = PaneStore(pane_ms)
    fill(store, events, batch_rows)
    aggregator = SlidingRunAggregator()
    runs = {}
    next_pane = 0
    for start in range(0, horizon - length + 1, step):
        aggregator.evict_before(start)
        while next_pane < start + length:
            if next_pane >= start:
                aggregator.push(next_pane, store.sealed_pane(next_pane))
            next_pane += pane_ms
        runs[start] = aggregator.query()
    return runs


@pytest.mark.parametrize(
    "length,step",
    [(1000, 500), (1000, 250), (900, 600), (1000, 1000), (500, 2000)],
    ids=["half-overlap", "quarter-overlap", "gcd-300", "tumbling", "gaps"],
)
def test_bit_identical_to_naive_recompute(length, step):
    # Shuffled arrival: every 64-row batch spans many panes, out of order.
    # Ordered arrival in 16-row batches: most batches sit inside one pane.
    for ordered, batch_rows in ((False, 64), (True, 16)):
        events = make_stream(600, span_ms=6000, seed=13, ordered=ordered)
        runs = windows_via_aggregator(events, length=length, step=step,
                                      horizon=6000, batch_rows=batch_rows)
        assert runs  # the shape must actually produce windows
        for start, run in runs.items():
            assert run.tobytes() == naive_window_run(events, start, length)


def test_slide_equals_size_is_bit_identical_to_tumbling():
    # slide == size must degenerate to tumbling exactly: one pane per
    # window, the pane's cached batches, sorted once.
    events = make_stream(400, span_ms=4000, seed=7)
    store = PaneStore(1000)
    fill(store, events, 64)
    aggregator = SlidingRunAggregator()
    for start in range(0, 3001, 1000):
        aggregator.evict_before(start)
        aggregator.push(start, store.sealed_pane(start))
        assert aggregator.newest == start
        assert store.sealed_pane(start) is store.sealed_pane(start)
        run = aggregator.query()
        assert run.tobytes() == naive_window_run(events, start, 1000)
    sliding = windows_via_aggregator(events, length=1000, step=1000,
                                     horizon=4000)
    assert sorted(sliding) == [0, 1000, 2000, 3000]


def test_gap_windows_skip_uncovered_events():
    # step > length: panes between windows are never pushed, and events
    # there never appear in any run.
    events = make_stream(500, span_ms=8000, seed=3)
    runs = windows_via_aggregator(events, length=500, step=2000,
                                  horizon=8000)
    for start, run in runs.items():
        assert run.tobytes() == naive_window_run(events, start, 500)
    in_gaps = [r for r in rows_of(events) if r[1] % 2000 >= 500]
    assert in_gaps  # the workload really had gap events
    # The naive runs hold no gap row, so neither do these: every row is
    # either in a gap or served by exactly one window.
    served = sum(len(run) for run in runs.values())
    assert len(in_gaps) + served == len(events)


def test_batch_spanning_several_panes_is_split_by_pane():
    store = PaneStore(500)
    batch = columns(
        (5.0, 1200, 1, 0), (1.0, 30, 1, 1), (4.0, 700, 2, 2),
        (2.0, 1499, 2, 3), (3.0, 499, 1, 4), (0.5, 1000, 1, 5),
    )
    store.add(batch)
    for start in (0, 500, 1000):
        assert sort_values(store.sealed_pane(start)).tobytes() == (
            naive_window_run(batch, start, 500)
        )
    assert store.late_dropped == 0


def test_empty_batch_is_a_no_op():
    store = PaneStore(500)
    store.add(EventColumns.from_wire(b""))
    assert store.sealed_pane(0) == ()
    assert store.late_dropped == 0


def test_empty_pane_inside_a_window():
    # Window [0, 1500) over panes 0 / 500 / 1000 with nothing in the middle
    # one; then a window whose every pane is empty.
    events = columns((2.0, 100, 1, 0), (1.0, 1400, 1, 1), (3.0, 1100, 2, 2))
    store = PaneStore(500)
    store.add(events)
    aggregator = SlidingRunAggregator()
    for start in (0, 500, 1000):
        aggregator.push(start, store.sealed_pane(start))
    assert store.sealed_pane(500) == ()
    assert aggregator.query().tobytes() == naive_window_run(events, 0, 1500)
    empty = SlidingRunAggregator()
    empty.push(2000, store.sealed_pane(2000))
    empty.push(2500, store.sealed_pane(2500))
    assert len(empty.query()) == 0
    assert len(SlidingRunAggregator().query()) == 0


def test_pane_less_slide_cuts_a_columnar_zero_slice_window():
    # No pane at all, and panes that never saw an event: the window's run
    # is an empty value column — never a list — and slices to nothing.
    store = PaneStore(500)
    assert store.sealed_pane(0) == ()
    pushed = SlidingRunAggregator()
    pushed.push(0, store.sealed_pane(0))
    for aggregator in (SlidingRunAggregator(), pushed):
        sliced = slice_sorted_events(aggregator.query(), 4, node_id=1)
        assert sliced.values.dtype == np.float64
        assert sliced.n_slices == sliced.window_size == 0


def test_late_event_in_overlap_lands_in_both_windows():
    # Two overlapping windows [0, 1000) and [500, 1500) share the pane
    # [500, 1000).  An event arriving late — after earlier panes were
    # already sealed, but before ITS pane seals — must appear in both
    # windows' runs, in exact sort position.
    store = PaneStore(500)
    on_time = columns(*((float(i), i * 90, 1, i) for i in range(15)))
    store.add(on_time)
    store.sealed_pane(0)  # pane [0, 500) seals first
    late = columns((-1.0, 700, 2, 99))
    store.add(late)  # late, but its pane [500, 1000) is still open
    assert store.late_dropped == 0

    events = columns(*rows_of(on_time), *rows_of(late))
    aggregator = SlidingRunAggregator()
    aggregator.push(0, store.sealed_pane(0))
    aggregator.push(500, store.sealed_pane(500))
    first = aggregator.query()
    assert first.tobytes() == naive_window_run(events, 0, 1000)
    assert first[0] == -1.0  # the late row, the only negative value
    aggregator.evict_before(500)
    aggregator.push(1000, store.sealed_pane(1000))
    second = aggregator.query()
    assert second.tobytes() == naive_window_run(events, 500, 1000)
    assert second[0] == -1.0


def test_event_late_past_the_seal_is_dropped_and_counted():
    store = PaneStore(500)
    store.add(columns((1.0, 100, 1, 0)))
    sealed = store.sealed_pane(0)
    # Three rows for the sealed pane, one for an open one: rows are
    # counted (not calls) and only the late ones go.
    store.add(columns(
        (2.0, 200, 1, 1), (3.0, 600, 1, 2), (4.0, 10, 1, 3), (5.0, 499, 1, 4)
    ))
    assert store.late_dropped == 3
    assert store.sealed_pane(0) is sealed  # the cached pane is immutable
    assert pane_seqs(store, 0) == [0]
    assert pane_seqs(store, 500) == [2]


def test_row_for_a_pruned_pane_is_dropped_and_counted():
    # The store must remember that a pruned pane is gone: a later row for
    # it may not re-open the pane (it would be silently discarded at the
    # next prune, never counted).
    store = PaneStore(500)
    store.add(columns((1.0, 100, 1, 0), (2.0, 600, 1, 1)))
    store.sealed_pane(0)
    store.prune_before(1000)  # pane 0 was sealed, pane 500 still open
    store.add(columns((3.0, 150, 1, 2), (4.0, 700, 1, 3), (5.0, 1001, 1, 4)))
    assert store.late_dropped == 2
    assert store.sealed_pane(0) == ()
    assert store.sealed_pane(500) == ()
    assert pane_seqs(store, 1000) == [4]


def test_pane_store_prune_drops_old_panes_only():
    store = PaneStore(500)
    store.add(columns((1.0, 100, 1, 100), (1.0, 600, 1, 600),
                      (1.0, 1100, 1, 1100)))
    store.sealed_pane(0)
    store.prune_before(1000)
    assert store.sealed_pane(0) == ()    # pruned (open AND sealed)
    assert store.sealed_pane(500) == ()  # pruned while still open
    assert pane_seqs(store, 1000) == [1100]


def test_push_out_of_order_rejected():
    aggregator = SlidingRunAggregator()
    aggregator.push(1000, ())
    with pytest.raises(QueryError, match="ascending order"):
        aggregator.push(500, ())


def test_evict_before_retires_only_older_panes():
    aggregator = SlidingRunAggregator()
    aggregator.evict_before(1000)  # nothing to retire
    assert aggregator.newest is None
    store = PaneStore(500)
    store.add(columns((1.0, 100, 1, 0), (2.0, 600, 1, 1), (3.0, 1100, 1, 2)))
    for start in (0, 500, 1000):
        aggregator.push(start, store.sealed_pane(start))
    aggregator.evict_before(500)
    assert aggregator.newest == 1000
    assert aggregator.query().tolist() == [2.0, 3.0]
    aggregator.evict_before(1500)
    assert aggregator.newest is None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=0, max_value=300),
    length_panes=st.integers(min_value=1, max_value=6),
    step_panes=st.integers(min_value=1, max_value=8),
    pane_ms=st.sampled_from([100, 250, 500]),
    batch_rows=st.sampled_from([1, 7, 64, 1000]),
    ordered=st.booleans(),
)
def test_property_any_shape_matches_naive(seed, n, length_panes, step_panes,
                                          pane_ms, batch_rows, ordered):
    length = length_panes * pane_ms
    step = step_panes * pane_ms
    span = 10 * pane_ms * max(length_panes, step_panes)
    events = make_stream(n, span_ms=span, seed=seed, ordered=ordered)
    runs = windows_via_aggregator(events, length=length, step=step,
                                  horizon=span, batch_rows=batch_rows)
    for start, run in runs.items():
        assert run.tobytes() == naive_window_run(events, start, length)
