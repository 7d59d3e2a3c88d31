"""Tests for the batch source driver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.network.simulator import Simulator
from repro.streaming.columns import EventColumns, as_event_columns
from repro.streaming.events import Event, make_events
from repro.streaming.windows import (
    SlidingWindows,
    TumblingWindows,
    Window,
)
from repro.network.driver import (
    MS_PER_SECOND,
    BatchSourceDriver,
    event_timestamps,
    window_segments,
)


class RecordingOperator:
    """Minimal LocalOperator that records call times."""

    def __init__(self):
        self.batches = []
        self.completed = []

    def ingest(self, events, now):
        self.batches.append((tuple(events), now))
        return now

    def on_window_complete(self, window, now):
        self.completed.append((window, now))


def feed(driver, operator, events, assigner):
    """Schedule one local's stream the way ``SimulatedDeployment.run``
    does: cut at every change of window assignment, then into batches.
    Returns the windows the stream touches."""
    events = as_event_columns(events)
    timestamps = event_timestamps(events, ordered=True)
    starts, windows = window_segments(timestamps, assigner)
    driver.schedule_batches(operator, events, timestamps, starts)
    return windows


class TestFeed:
    def test_events_arrive_at_event_time(self):
        simulator = Simulator()
        driver = BatchSourceDriver(simulator, batch_size=2)
        operator = RecordingOperator()
        events = make_events([1, 2, 3, 4], timestamp_step=100)
        feed(driver, operator, events, TumblingWindows(1000))
        simulator.run()
        # Batches arrive at the timestamp of their last event.
        arrivals = [now for _, now in operator.batches]
        assert arrivals == pytest.approx([0.1, 0.3])

    def test_all_events_delivered_once(self):
        simulator = Simulator()
        driver = BatchSourceDriver(simulator, batch_size=3)
        operator = RecordingOperator()
        events = make_events(range(10), timestamp_step=10)
        feed(driver, operator, events, TumblingWindows(1000))
        simulator.run()
        delivered = [e for batch, _ in operator.batches for e in batch]
        assert delivered == events
        assert driver.scheduled_events == 10

    def test_batches_never_span_windows(self):
        simulator = Simulator()
        driver = BatchSourceDriver(simulator, batch_size=100)
        operator = RecordingOperator()
        assigner = TumblingWindows(50)
        events = make_events(range(10), timestamp_step=10)
        feed(driver, operator, events, assigner)
        simulator.run()
        for batch, _ in operator.batches:
            windows = {assigner.window_for(e.timestamp) for e in batch}
            assert len(windows) == 1

    def test_returns_touched_windows(self):
        simulator = Simulator()
        driver = BatchSourceDriver(simulator)
        operator = RecordingOperator()
        events = make_events([1, 2], timestamp_step=1500)
        windows = feed(driver, operator, events, TumblingWindows(1000))
        assert windows == [Window(0, 1000), Window(1000, 2000)]

    def test_regressing_timestamps_rejected(self):
        simulator = Simulator()
        driver = BatchSourceDriver(simulator)
        operator = RecordingOperator()
        events = [
            Event(value=1.0, timestamp=10, node_id=0, seq=0),
            Event(value=2.0, timestamp=5, node_id=0, seq=1),
        ]
        with pytest.raises(ConfigurationError, match="saw 5 after 10"):
            feed(driver, operator, events, TumblingWindows(1000))
        assert driver.scheduled_events == 0

    def test_columnar_stream_is_delivered_as_column_slices(self):
        simulator = Simulator()
        driver = BatchSourceDriver(simulator, batch_size=3)
        batches = []

        class Keeper(RecordingOperator):
            def ingest(self, events, now):
                batches.append(events)
                return now

        events = make_events(range(7), timestamp_step=10)
        feed(
            driver, Keeper(), EventColumns.from_events(events),
            TumblingWindows(50),
        )
        simulator.run()
        assert all(isinstance(batch, EventColumns) for batch in batches)
        assert [len(batch) for batch in batches] == [3, 2, 2]
        assert [e for batch in batches for e in batch] == events

    def test_empty_stream(self):
        simulator = Simulator()
        driver = BatchSourceDriver(simulator)
        operator = RecordingOperator()
        assert feed(driver, operator, [], TumblingWindows(1000)) == []
        assert driver.scheduled_events == 0


class TestAnnounceWindows:
    def test_completion_after_window_end(self):
        simulator = Simulator()
        driver = BatchSourceDriver(simulator, window_grace_s=0.001)
        operator = RecordingOperator()
        driver.announce_windows(operator, [Window(0, 1000)])
        simulator.run()
        window, when = operator.completed[0]
        assert window == Window(0, 1000)
        assert when == pytest.approx(1.001)

    def test_every_window_announced(self):
        simulator = Simulator()
        driver = BatchSourceDriver(simulator)
        operator = RecordingOperator()
        windows = [Window(0, 1000), Window(1000, 2000)]
        driver.announce_windows(operator, windows)
        simulator.run()
        assert [w for w, _ in operator.completed] == windows


class TestValidation:
    def test_batch_size_positive(self):
        with pytest.raises(ConfigurationError):
            BatchSourceDriver(Simulator(), batch_size=0)

    def test_grace_non_negative(self):
        with pytest.raises(ConfigurationError):
            BatchSourceDriver(Simulator(), window_grace_s=-1.0)


def reference_feed(simulator, operator, events, assigner, batch_size):
    """The per-event loop the segmenter replaced, kept as the test-only
    reference: three ``assign`` calls per event.  Returns
    ``(windows, scheduled_events)``."""
    windows = set()
    batch = []
    scheduled = 0
    last_timestamp = None

    def flush(batch_events):
        arrival = batch_events[-1].timestamp / MS_PER_SECOND
        simulator.schedule(
            arrival, lambda now, b=tuple(batch_events): operator.ingest(b, now)
        )

    for event in events:
        if last_timestamp is not None and event.timestamp < last_timestamp:
            raise ConfigurationError(
                f"event timestamps must be non-decreasing; saw "
                f"{event.timestamp} after {last_timestamp}"
            )
        last_timestamp = event.timestamp
        windows.update(assigner.assign(event.timestamp))
        crosses_window = batch and assigner.assign(
            batch[0].timestamp
        ) != assigner.assign(event.timestamp)
        if crosses_window:
            flush(batch)
            scheduled += len(batch)
            batch = []
        batch.append(event)
        if len(batch) >= batch_size:
            flush(batch)
            scheduled += len(batch)
            batch = []
    if batch:
        flush(batch)
        scheduled += len(batch)
    return sorted(windows), scheduled


assigners = st.one_of(
    st.builds(TumblingWindows, st.integers(1, 40)),
    st.sampled_from(
        [
            SlidingWindows(10, 4),  # step does not divide length
            SlidingWindows(12, 4),
            SlidingWindows(7, 7),
            SlidingWindows(9, 1),
            SlidingWindows(1000, 300),
        ]
    ),
)

#: Gaps between consecutive timestamps: mostly runs of equal timestamps and
#: small steps, so runs straddle window edges, with the odd long jump.
gaps = st.lists(
    st.sampled_from([0, 0, 0, 1, 1, 2, 3, 7, 40, 1500]), max_size=120
)


def _stream(start, gaps):
    stamps = np.cumsum([start, *gaps]).tolist() if gaps is not None else []
    return [
        Event(value=float(i % 5), timestamp=ts, node_id=1, seq=i)
        for i, ts in enumerate(stamps)
    ]


def _run(schedule):
    simulator = Simulator()
    operator = RecordingOperator()
    result = schedule(simulator, operator)
    simulator.run()
    return result, operator.batches


class TestSegmenterMatchesThePerEventLoop:
    @given(
        start=st.integers(0, 50),
        gaps=st.one_of(st.none(), gaps),
        assigner=assigners,
        batch_size=st.integers(1, 600),
        columnar=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_batches_arrivals_windows_and_count(
        self, start, gaps, assigner, batch_size, columnar
    ):
        events = _stream(start, gaps)
        expected, expected_batches = _run(
            lambda sim, op: reference_feed(sim, op, events, assigner, batch_size)
        )

        def segmented(simulator, operator):
            driver = BatchSourceDriver(simulator, batch_size=batch_size)
            stream = EventColumns.from_events(events) if columnar else events
            windows = feed(driver, operator, stream, assigner)
            return windows, driver.scheduled_events

        got, got_batches = _run(segmented)
        assert got == expected
        # RecordingOperator stores tuple(batch): column slices compare as
        # the events they hold, arrival instants as exact floats.
        assert got_batches == expected_batches

    @given(
        stamps=st.lists(st.integers(0, 60), min_size=2, max_size=40),
        assigner=assigners,
        columnar=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_regression_error_names_the_same_pair(
        self, stamps, assigner, columnar
    ):
        events = [
            Event(value=0.0, timestamp=ts, node_id=1, seq=i)
            for i, ts in enumerate(stamps)
        ]
        try:
            reference_feed(Simulator(), RecordingOperator(), events, assigner, 8)
        except ConfigurationError as error:
            expected = str(error)
        else:
            expected = None
        stream = EventColumns.from_events(events) if columnar else events
        driver = BatchSourceDriver(Simulator(), batch_size=8)
        try:
            feed(driver, RecordingOperator(), stream, assigner)
        except ConfigurationError as error:
            assert str(error) == expected
            assert driver.scheduled_events == 0
        else:
            assert expected is None

    @given(
        stamps=st.lists(st.integers(0, 3000), max_size=80),
        assigner=assigners,
    )
    @settings(max_examples=150, deadline=None)
    def test_windows_of_an_unordered_stream(self, stamps, assigner):
        timestamps = np.array(stamps, dtype=np.int64)
        starts, windows = window_segments(timestamps, assigner)
        assert windows == sorted(
            {w for ts in stamps for w in assigner.assign(ts)}
        )
        # Every event has the assignment of the segment start before it.
        bounds = [*starts.tolist(), len(stamps)]
        for lo, hi in zip(bounds, bounds[1:]):
            first = assigner.assign(stamps[lo])
            assert all(assigner.assign(ts) == first for ts in stamps[lo:hi])

    def test_window_arithmetic_near_the_u32_edge_does_not_wrap(self):
        top = 2**32 - 1
        events = EventColumns.from_events(
            [
                Event(value=1.0, timestamp=top - 1, node_id=1, seq=0),
                Event(value=2.0, timestamp=top, node_id=1, seq=1),
            ]
        )
        timestamps = event_timestamps(events)
        assert timestamps.dtype == np.int64
        for assigner in (TumblingWindows(1000), SlidingWindows(1000, 300)):
            _, windows = window_segments(timestamps, assigner)
            assert windows == sorted(
                {w for ts in (top - 1, top) for w in assigner.assign(ts)}
            )
            assert windows[-1].end > 2**32
