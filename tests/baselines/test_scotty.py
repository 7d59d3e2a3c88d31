"""Tests for the Scotty (centralized) baseline."""

import pytest

from repro.errors import AggregationError
from repro.network.channels import Channel
from repro.network.messages import (
    EventBatchMessage,
    GammaUpdateMessage,
    WatermarkMessage,
)
from repro.network.simulator import SimulatedNode, Simulator
from repro.streaming.columns import EMPTY_EVENTS, EventColumns
from repro.streaming.events import make_events
from repro.streaming.windows import Window
from repro.core.query import QuantileQuery
from repro.baselines.scotty import ScottyLocalNode, ScottyRootNode

WINDOW = Window(0, 1000)


class Sink(SimulatedNode):
    def __init__(self):
        super().__init__(0)
        self.received = []

    def on_message(self, message, now):
        self.received.append(message)


def deploy_local():
    simulator = Simulator()
    root = Sink()
    query = QuantileQuery(q=0.5, window_length_ms=1000)
    local = ScottyLocalNode(1, root_id=0, query=query, ops_per_second=1e9)
    simulator.add_node(root)
    simulator.add_node(local)
    simulator.connect(Channel(1, 0))
    return simulator, root, local


class TestLocal:
    def test_forwards_raw_batches_immediately(self):
        simulator, root, local = deploy_local()
        events = EventColumns.from_events(
            make_events(range(5), node_id=1, timestamp_step=10)
        )
        simulator.schedule(0.1, lambda t: local.ingest(events, t))
        simulator.run()
        batches = [m for m in root.received if isinstance(m, EventBatchMessage)]
        assert len(batches) == 1
        assert batches[0].events == tuple(events)

    def test_window_complete_sends_watermark(self):
        simulator, root, local = deploy_local()
        simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
        simulator.run()
        watermarks = [m for m in root.received if isinstance(m, WatermarkMessage)]
        assert len(watermarks) == 1
        assert watermarks[0].watermark_time == 1000

    def test_empty_ingest_sends_nothing(self):
        simulator, root, local = deploy_local()
        simulator.schedule(0.1, lambda t: local.ingest(EMPTY_EVENTS, t))
        simulator.run()
        assert root.received == []

    def test_unexpected_message_rejected(self):
        simulator, root, local = deploy_local()
        simulator.connect(Channel(0, 1))
        bad = GammaUpdateMessage(sender=0, window=WINDOW, gamma=5)
        simulator.schedule(0.0, lambda t: root.send(bad, 1, t))
        with pytest.raises(AggregationError):
            simulator.run()


def deploy_root(local_ids=(1, 2)):
    simulator = Simulator()
    query = QuantileQuery(q=0.5, window_length_ms=1000)
    root = ScottyRootNode(
        0, local_ids=list(local_ids), query=query, ops_per_second=1e9
    )
    simulator.add_node(root)
    senders = {}
    for local_id in local_ids:
        sender = SimulatedNode(local_id)
        simulator.add_node(sender)
        simulator.connect(Channel(local_id, 0))
        senders[local_id] = sender
    return simulator, root, senders


class TestRoot:
    def test_sorts_and_selects_median(self):
        simulator, root, senders = deploy_root()
        batch_a = EventBatchMessage(
            sender=1, window=WINDOW,
            events=EventColumns.from_events(make_events([5, 1, 9], node_id=1)),
        )
        batch_b = EventBatchMessage(
            sender=2, window=WINDOW,
            events=EventColumns.from_events(make_events([2, 8], node_id=2)),
        )
        simulator.schedule(0.1, lambda t: senders[1].send(batch_a, 0, t))
        simulator.schedule(0.2, lambda t: senders[2].send(batch_b, 0, t))
        for local_id in (1, 2):
            wm = WatermarkMessage(
                sender=local_id, window=WINDOW, watermark_time=1000
            )
            simulator.schedule(
                1.0, lambda t, s=senders[local_id], m=wm: s.send(m, 0, t)
            )
        simulator.run()
        assert len(root.records) == 1
        assert root.records[0].value == 5.0
        assert root.records[0].global_window_size == 5

    def test_waits_for_all_watermarks(self):
        simulator, root, senders = deploy_root()
        wm = WatermarkMessage(sender=1, window=WINDOW, watermark_time=1000)
        simulator.schedule(1.0, lambda t: senders[1].send(wm, 0, t))
        simulator.run()
        assert root.records == []

    def test_empty_window_emits_none(self):
        simulator, root, senders = deploy_root()
        for local_id in (1, 2):
            wm = WatermarkMessage(
                sender=local_id, window=WINDOW, watermark_time=1000
            )
            simulator.schedule(
                1.0, lambda t, s=senders[local_id], m=wm: s.send(m, 0, t)
            )
        simulator.run()
        assert root.records[0].value is None
        assert root.records[0].is_empty

    def test_unexpected_message_rejected(self):
        simulator, root, senders = deploy_root()
        bad = GammaUpdateMessage(sender=1, window=WINDOW, gamma=5)
        simulator.schedule(0.0, lambda t: senders[1].send(bad, 0, t))
        with pytest.raises(AggregationError):
            simulator.run()
