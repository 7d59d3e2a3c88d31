"""Tests for the Dema local-node operator on the simulator."""

import math

import numpy as np
import pytest

from repro.errors import CodecError, SliceError
from repro.network.channels import Channel
from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    GammaUpdateMessage,
    SynopsisMessage,
)
from repro.network.simulator import INGEST_OPS, SimulatedNode, Simulator
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event, event_key, make_events
from repro.streaming.windows import TumblingWindows, Window
from repro.core.local_node import DemaLocalNode
from repro.core.query import QuantileQuery


class RootStub(SimulatedNode):
    def __init__(self):
        super().__init__(0)
        self.received = []

    def on_message(self, message, now):
        self.received.append(message)


def deploy(gamma=5):
    simulator = Simulator()
    root = RootStub()
    query = QuantileQuery(q=0.5, window_length_ms=1000, gamma=gamma)
    local = DemaLocalNode(1, root_id=0, query=query, ops_per_second=1e9)
    simulator.add_node(root)
    simulator.add_node(local)
    simulator.connect(Channel(1, 0))
    simulator.connect(Channel(0, 1))
    return simulator, root, local


WINDOW = Window(0, 1000)


def columns(values, **kwargs):
    return EventColumns.from_events(make_events(values, **kwargs))


class TestIngestAndSynopses:
    def test_window_complete_sends_synopses(self):
        simulator, root, local = deploy(gamma=5)
        events = columns(range(12), node_id=1, timestamp_step=10)
        simulator.schedule(0.5, lambda t: local.ingest(events, t))
        simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
        simulator.run()
        assert len(root.received) == 1
        message = root.received[0]
        assert isinstance(message, SynopsisMessage)
        assert message.local_window_size == 12
        assert len(message.synopses) == 3  # 12 events / gamma 5 -> 5,5,2

    def test_empty_window_still_announced(self):
        simulator, root, local = deploy()
        simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
        simulator.run()
        assert len(root.received) == 1
        assert root.received[0].local_window_size == 0
        assert root.received[0].synopses == ()

    def test_empty_window_seals_to_a_columnar_zero_slice_window(self):
        # What a live local hosts: the retained window of a node that saw
        # no event is an empty batch, the form every later reader expects.
        simulator, root, local = deploy()
        local.on_window_complete(WINDOW, 1.0)
        sliced = local._sealed[(0, WINDOW)].sliced
        assert sliced.values.dtype == np.float64
        assert sliced.values.tobytes() == b""
        assert sliced.n_slices == sliced.window_size == 0

    def test_events_split_across_windows(self):
        simulator, root, local = deploy()
        events = columns(range(4), node_id=1, timestamp_step=400)
        simulator.schedule(1.3, lambda t: local.ingest(events, t))
        simulator.schedule(1.5, lambda t: local.on_window_complete(WINDOW, t))
        simulator.schedule(
            2.5, lambda t: local.on_window_complete(Window(1000, 2000), t)
        )
        simulator.run()
        sizes = [m.local_window_size for m in root.received]
        assert sizes == [3, 1]  # timestamps 0,400,800 | 1200

    def test_counters(self):
        simulator, root, local = deploy()
        events = columns(range(7), node_id=1, timestamp_step=1)
        simulator.schedule(0.1, lambda t: local.ingest(events, t))
        simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
        simulator.run()
        assert local.events_ingested == 7
        assert local.windows_completed == 1
        assert local.pending_windows == 1

    def test_synopses_cover_sorted_values(self):
        simulator, root, local = deploy(gamma=4)
        events = columns([9, 1, 5, 3, 7, 2, 8, 4], node_id=1, timestamp_step=1)
        simulator.schedule(0.1, lambda t: local.ingest(events, t))
        simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
        simulator.run()
        synopses = root.received[0].synopses
        assert synopses[0].first_value == 1.0
        assert synopses[-1].last_value == 9.0


class TestMultiWindowBatches:
    """A batch of any span goes through the columnar split; the simulated
    charge is summed per window in the order the windows first appear in
    the batch."""

    #: (timestamp, how many) in arrival order: window 3000 first, then
    #: 1000, the sealed window 0, 2000, and the rest of 3000.
    LAYOUT = [(3100, 1), (1200, 3), (300, 2), (2500, 3), (3900, 9)]

    def batch(self):
        stamps = [ts for ts, count in self.LAYOUT for _ in range(count)]
        return [
            Event(value=float((7 * i) % 11), timestamp=ts, node_id=1, seq=i)
            for i, ts in enumerate(stamps)
        ]

    def ingest(self, batch):
        simulator, root, local = deploy()
        finishes = []
        simulator.schedule(
            0.5, lambda t: local.on_window_complete(Window(0, 1000), t)
        )
        simulator.schedule(
            4.0, lambda t: finishes.append(local.ingest(batch, t))
        )
        for start in (1000, 2000, 3000):
            simulator.schedule(
                5.0 + start / 1e6,
                lambda t, w=Window(start, start + 1000): (
                    local.on_window_complete(w, t)
                ),
            )
        simulator.run()
        return root, local, finishes[0]

    def test_objects_and_columns_agree(self):
        # The columnar split against bucketing the ``Event`` objects one
        # by one.
        batch = self.batch()
        per_window = {}
        for event in batch:
            window = TumblingWindows(1000).window_for(event.timestamp)
            per_window.setdefault(window, []).append(event)
        root, local, _ = self.ingest(EventColumns.from_events(batch))
        assert local.late_events == len(per_window[Window(0, 1000)]) == 2
        assert local.events_ingested == 18
        assert root.received[0].local_window_size == 0
        for message, start in zip(root.received[1:], (1000, 2000, 3000), strict=True):
            expected = sorted(
                per_window[Window(start, start + 1000)], key=event_key
            )
            assert message.local_window_size == len(expected)
            # Keys are (value, owner, row in the sorted window).
            assert message.synopses[0].first_key == (expected[0].value, 1, 0)
            assert message.synopses[-1].last_key == (
                expected[-1].value, 1, len(expected) - 1
            )

    def test_charge_is_summed_in_first_appearance_order(self):
        counts = {3000: 10, 1000: 3, 2000: 3}  # first-appearance order

        def total(order):
            ops = 0.0
            for start in order:
                ops += counts[start] * math.log2(counts[start])
            return INGEST_OPS * 18 + ops

        simulator, root, local = deploy()
        local.on_window_complete(Window(0, 1000), 0.5)
        before = local.cpu.total_ops
        local.ingest(EventColumns.from_events(self.batch()), 4.0)
        charged = local.cpu.total_ops - before
        assert charged == total([3000, 1000, 2000])
        # Sorted window order (what ``np.unique`` yields) is a different
        # float sum, so the assertion above can tell the two apart.
        assert total([1000, 2000, 3000]) != total([3000, 1000, 2000])

    def test_nan_values_are_refused_where_first_ordered(self):
        nan = float("nan")
        values = [3.0, nan, 1.0, 2.0, nan, 0.5]
        batch = [
            Event(value=v, timestamp=10 * i, node_id=1, seq=i)
            for i, v in enumerate(values)
        ]
        simulator, root, local = deploy(gamma=2)
        # Ingest only buffers; the window's sort at its end is the first
        # place the values are ordered, and it refuses a NaN.
        local.ingest(EventColumns.from_events(batch), 0.1)
        with pytest.raises(CodecError, match="node 1 seq [14] has a NaN"):
            local.on_window_complete(WINDOW, 1.0)


class TestCandidateServing:
    def run_with_request(self, indices):
        simulator, root, local = deploy(gamma=4)
        events = columns(range(10), node_id=1, timestamp_step=10)
        simulator.schedule(0.1, lambda t: local.ingest(events, t))
        simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
        request = CandidateRequestMessage(
            sender=0, window=WINDOW, slice_indices=indices
        )
        simulator.schedule(1.5, lambda t: root.send(request, 1, t))
        simulator.run()
        return [
            m for m in root.received if isinstance(m, CandidateEventsMessage)
        ], local

    def test_requested_slices_returned(self):
        replies, local = self.run_with_request((0, 2))
        assert [m.slice_index for m in replies] == [0, 2]
        assert replies[0].events.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_window_freed_after_serving(self):
        replies, local = self.run_with_request((0,))
        assert local.pending_windows == 0

    def test_empty_request_frees_window(self):
        replies, local = self.run_with_request(())
        assert replies == []
        assert local.pending_windows == 0

    def test_unknown_window_rejected(self):
        simulator, root, local = deploy()
        request = CandidateRequestMessage(
            sender=0, window=Window(5000, 6000), slice_indices=(0,)
        )
        simulator.schedule(0.0, lambda t: root.send(request, 1, t))
        with pytest.raises(SliceError):
            simulator.run()


class TestReleasesPerGroup:
    """A release is cumulative only within its own query group: a 500 ms
    group's release of [1000, 1500) says nothing about a 1000 ms group's
    [0, 1000), which must still serve its candidate request."""

    def test_release_of_one_group_keeps_another_groups_earlier_window(self):
        from repro.network.messages import WindowReleaseMessage

        short, long_ = 1, 2
        simulator = Simulator()
        root = RootStub()
        # A host that opens its groups at runtime and seals sorted windows.
        local = DemaLocalNode(1, root_id=0, query=None, ops_per_second=1e9)
        local.open_group(short, 4)
        local.open_group(long_, 4)
        simulator.add_node(root)
        simulator.add_node(local)
        simulator.connect(Channel(1, 0))
        simulator.connect(Channel(0, 1))
        # Values 0..14 at timestamps 0, 100, ..., 1400.
        values = np.arange(15, dtype=np.float64)
        simulator.schedule(1.0, lambda t: local.seal_sorted(
            WINDOW, values[:10], t, long_
        ))
        for start in (0, 500, 1000):
            simulator.schedule(1.5, lambda t, s=start: local.seal_sorted(
                Window(s, s + 500), values[s // 100:s // 100 + 5], t, short
            ))
        release = WindowReleaseMessage(
            sender=0, window=Window(1000, 1500), group_id=short
        )
        simulator.schedule(2.0, lambda t: root.send(release, 1, t))
        request = CandidateRequestMessage(
            sender=0, window=WINDOW, group_id=long_, slice_indices=(0,)
        )
        simulator.schedule(2.5, lambda t: root.send(request, 1, t))
        simulator.run()
        replies = [
            m for m in root.received if isinstance(m, CandidateEventsMessage)
        ]
        assert [(m.group_id, m.window) for m in replies] == [(long_, WINDOW)]
        assert replies[0].events.tolist() == [0.0, 1.0, 2.0, 3.0]
        # The short group's windows were all released cumulatively.
        assert local.pending_windows == 0


class TestGammaUpdates:
    def test_gamma_update_applies_to_next_window(self):
        simulator, root, local = deploy(gamma=5)
        update = GammaUpdateMessage(sender=0, window=WINDOW, gamma=3)
        simulator.schedule(0.0, lambda t: root.send(update, 1, t))
        events = columns(range(9), node_id=1, timestamp_step=10)
        simulator.schedule(0.5, lambda t: local.ingest(events, t))
        simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
        simulator.run()
        assert local.gamma == 3
        assert len(root.received[-1].synopses) == 3  # 9 events / gamma 3

    def test_gamma_update_clamped_to_minimum(self):
        simulator, root, local = deploy()
        update = GammaUpdateMessage(sender=0, window=WINDOW, gamma=0)
        simulator.schedule(0.0, lambda t: root.send(update, 1, t))
        simulator.run()
        assert local.gamma == 2

    def test_unexpected_message_rejected(self):
        simulator, root, local = deploy()
        bad = SynopsisMessage(sender=0, window=WINDOW)
        simulator.schedule(0.0, lambda t: root.send(bad, 1, t))
        with pytest.raises(SliceError):
            simulator.run()


class TestCrossLayerLateAccounting:
    """Both layers must agree on which side of a window boundary an
    event falls: ``end - 1`` is the last admissible timestamp of the
    sealed window, ``end`` opens the next one.  The Dema local node
    expresses the verdict through its late-event counter; the generic
    SPE operator expresses it through which window the event folds into
    after the aligned ``closeable`` sealing tick."""

    def test_local_node_boundary_verdicts(self):
        simulator, root, local = deploy()
        events = columns(range(10), node_id=1, timestamp_step=5)
        simulator.schedule(0.1, lambda t: local.ingest(events, t))
        simulator.schedule(1.0, lambda t: local.on_window_complete(
            Window(0, 1000), t
        ))
        # An event at end - 1 targets the sealed window: dropped, counted.
        simulator.schedule(2.0, lambda t: local.ingest(
            columns([1.0], node_id=1, start_timestamp=999,
                        start_seq=100), t
        ))
        # An event exactly at end belongs to [1000, 2000): accepted.
        simulator.schedule(3.0, lambda t: local.ingest(
            columns([2.0], node_id=1, start_timestamp=1000,
                        start_seq=101), t
        ))
        simulator.run()
        assert local.late_events == 1
        assert local.events_ingested == 12

    def test_release_boundary_event_is_not_late(self):
        from repro.network.messages import WindowReleaseMessage

        simulator, root, local = deploy()
        events = columns(range(10), node_id=1, timestamp_step=5)
        simulator.schedule(0.1, lambda t: local.ingest(events, t))
        simulator.schedule(1.0, lambda t: local.on_window_complete(
            Window(0, 1000), t
        ))
        release = WindowReleaseMessage(sender=0, window=Window(0, 1000))
        simulator.schedule(1.5, lambda t: root.send(release, 1, t))
        # Timestamp == last_release_end is the first admissible
        # timestamp of the next window, never a late event.
        simulator.schedule(2.0, lambda t: local.ingest(
            columns([3.0], node_id=1, start_timestamp=1000,
                        start_seq=200), t
        ))
        simulator.run()
        assert local.last_release_end == 1000
        assert local.late_events == 0
        assert local.pending_windows == 0
