"""Properties of window assigners and the sorted-window structure."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.slicing import slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow
from repro.streaming.columns import EventColumns
from repro.streaming.events import event_key, make_events
from repro.streaming.windows import TumblingWindows

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


@st.composite
def window_lengths_and_stamps(draw):
    """``(length, timestamps)``: timestamps below ``length`` and well
    above it, ordered or not, spanning anything from one window to
    dozens."""
    length = draw(st.integers(min_value=1, max_value=300))
    base = draw(st.sampled_from([0, length - 1, 7 * length, 2**32 - 1 - 400]))
    stamps = draw(st.lists(
        st.integers(min_value=base, max_value=base + draw(
            st.sampled_from([0, 1, length, 400])
        )),
        max_size=40,
    ))
    if draw(st.booleans()):
        stamps.sort()
    return length, stamps


@given(window_lengths_and_stamps())
@settings(max_examples=400, deadline=None)
def test_by_window_equals_row_by_row_assignment(shape):
    length, stamps = shape
    assigner = TumblingWindows(length)
    events = [
        event
        for i, t in enumerate(stamps)
        for event in make_events([float(i)], start_timestamp=t, start_seq=i)
    ]
    # dict order: windows as they first appear; each bucket in arrival
    # order.
    expected = {}
    for event in events:
        window = assigner.window_for(event.timestamp)
        expected.setdefault(window.start, []).append(event)
    grouped = EventColumns.from_events(events).by_window(length)
    assert [start for start, _ in grouped] == list(expected)
    assert [rows for _, rows in grouped] == list(expected.values())


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
    runs = [sliced.run_for(i) for i in range(sliced.n_slices)]
    for run in runs:
        assert len(run) <= gamma + 1
        if len(values) > 1:
            assert len(run) >= 2
    # Reassembling runs reproduces the sorted window's values.
    reassembled = [value for run in runs for value in run.tolist()]
    assert reassembled == [event.value for event in events]
