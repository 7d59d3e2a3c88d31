"""Properties of window assigners and the sorted-window structure."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.slicing import slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow
from repro.streaming.columns import EventColumns
from repro.streaming.events import event_key, make_events
from repro.streaming.windows import SessionWindows, SlidingWindows, TumblingWindows

timestamps = st.integers(min_value=0, max_value=10**9)


@given(timestamps, st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_tumbling_windows_partition_time(timestamp, length):
    assigner = TumblingWindows(length)
    windows = assigner.assign(timestamp)
    assert len(windows) == 1
    window = windows[0]
    assert window.contains(timestamp)
    assert window.start % length == 0
    assert window.length == length


@given(
    timestamps,
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_sliding_windows_cover_and_bound(timestamp, length, step):
    if step > length:
        step = length
    assigner = SlidingWindows(length, step)
    windows = assigner.assign(timestamp)
    assert windows
    expected = -(-length // step)  # ceil
    assert len(windows) <= expected
    for window in windows:
        assert window.contains(timestamp)
        assert window.start % step == 0
    starts = [w.start for w in windows]
    assert starts == sorted(starts)


@st.composite
def window_shapes_and_stamps(draw):
    """``(length, step, timestamps)``: step | length, step ∤ length and
    step == length (tumbling); timestamps below ``length`` (windows with
    negative starts) and well above it, ordered or not, spanning anything
    from one window assignment to dozens."""
    step = draw(st.integers(min_value=1, max_value=50))
    length = draw(st.one_of(
        st.just(step),
        st.integers(min_value=1, max_value=6).map(lambda k: k * step),
        st.integers(min_value=step, max_value=6 * step),
    ))
    base = draw(st.sampled_from([0, length - 1, 7 * length, 2**32 - 1 - 400]))
    base = max(base, 0)
    stamps = draw(st.lists(
        st.integers(min_value=base, max_value=base + draw(
            st.sampled_from([0, step, length, 400])
        )),
        max_size=40,
    ))
    if draw(st.booleans()):
        stamps.sort()
    return length, step, stamps


@given(window_shapes_and_stamps())
@settings(max_examples=400, deadline=None)
def test_by_window_equals_row_by_row_assignment(shape):
    length, step, stamps = shape
    assigner = (
        TumblingWindows(length) if step == length
        else SlidingWindows(length, step)
    )
    events = [
        event
        for i, t in enumerate(stamps)
        for event in make_events([float(i)], start_timestamp=t, start_seq=i)
    ]
    # dict order: windows as they first appear, earliest first within an
    # event; each bucket in arrival order.
    expected = {}
    for event in events:
        for window in assigner.assign(event.timestamp):
            assert window.length == length
            expected.setdefault(window.start, []).append(event)
    batch = EventColumns.from_events(events)
    groupings = [batch.by_window(length, step)]
    if step == length:
        groupings.append(batch.by_window(length))
    for grouped in groupings:
        assert [start for start, _ in grouped] == list(expected)
        assert [rows for _, rows in grouped] == list(expected.values())


@given(st.lists(timestamps, min_size=1, max_size=60),
       st.integers(min_value=1, max_value=10**4))
@settings(max_examples=200, deadline=None)
def test_session_windows_disjoint_and_cover(stamps, gap):
    assigner = SessionWindows(gap)
    events = [
        event
        for i, t in enumerate(stamps)
        for event in make_events([0.0], start_timestamp=t, start_seq=i)
    ]
    sessions = assigner.sessions_for_events(events)
    # Every event lies in exactly one session.
    for event in events:
        containing = [s for s in sessions if s.contains(event.timestamp)]
        assert len(containing) == 1
    # Sessions are disjoint and separated by at least the gap.
    for left, right in zip(sessions, sessions[1:]):
        assert left.end <= right.start
    # No session is longer than events + gap allow.
    for session in sessions:
        assert session.length >= gap


@given(st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    max_size=300,
))
@settings(max_examples=200, deadline=None)
def test_sorted_window_is_a_sorting_network(values):
    window = SortedLocalWindow()
    events = make_events(values)
    window.add_all(EventColumns.from_events(events))
    assert window.seal().tobytes() == np.array(
        [e.value for e in sorted(events, key=event_key)], dtype="<f8"
    ).tobytes()


@given(
    st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
             max_size=200),
    st.integers(min_value=2, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_slicing_invariants(values, gamma):
    events = sorted(make_events(values), key=event_key)
    sliced = slice_sorted_events(
        np.array([event.value for event in events]), gamma, node_id=0
    )
    assert sliced.window_size == len(values)
    assert sum(s.count for s in sliced.synopses) == len(values)
    # Slice sizes: every slice <= gamma + 1 (remainder fold), and >= 2
    # except a single-event window.
    for run in sliced.runs:
        assert len(run) <= gamma + 1
        if len(values) > 1:
            assert len(run) >= 2
    # Reassembling runs reproduces the sorted window's values.
    reassembled = [value for run in sliced.runs for value in run.tolist()]
    assert reassembled == [event.value for event in events]
