"""Tests for the t-digest decentralized baseline."""

import random

import pytest

from repro.errors import AggregationError
from repro.network.channels import Channel
from repro.network.messages import DigestMessage, GammaUpdateMessage
from repro.network.simulator import SimulatedNode, Simulator
from repro.streaming.columns import EventColumns
from repro.streaming.events import make_events
from repro.streaming.windows import Window
from repro.core.query import QuantileQuery
from repro.baselines.base import SummaryLocalNode, SummaryRootNode
from repro.baselines.tdigest_system import TDigestSummary

WINDOW = Window(0, 1000)


class Sink(SimulatedNode):
    def __init__(self, node_id=0):
        super().__init__(node_id)
        self.received = []

    def on_message(self, message, now):
        self.received.append(message)


class TestLocal:
    def deploy(self):
        simulator = Simulator()
        root = Sink()
        query = QuantileQuery(q=0.5, window_length_ms=1000)
        local = SummaryLocalNode(
            1, root_id=0, query=query, summary=TDigestSummary(query.q),
            ops_per_second=1e9,
        )
        simulator.add_node(root)
        simulator.add_node(local)
        simulator.connect(Channel(1, 0))
        return simulator, root, local

    def test_ships_digest_at_window_end(self):
        simulator, root, local = self.deploy()
        events = EventColumns.from_events(
            make_events(range(100), node_id=1, timestamp_step=5)
        )
        simulator.schedule(0.1, lambda t: local.ingest(events, t))
        simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
        simulator.run()
        assert len(root.received) == 1
        digest = root.received[0]
        assert isinstance(digest, DigestMessage)
        assert sum(w for _, w in digest.centroids) == pytest.approx(100.0)

    def test_digest_much_smaller_than_raw(self):
        simulator, root, local = self.deploy()
        events = EventColumns.from_events(
            make_events(range(10_000), node_id=1, timestamp_step=0)
        )
        simulator.schedule(0.1, lambda t: local.ingest(events, t))
        simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
        simulator.run()
        message = root.received[0]
        assert message.payload_bytes < 10_000 * 16 / 10

    def test_empty_window_ships_empty_digest(self):
        simulator, root, local = self.deploy()
        simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
        simulator.run()
        assert root.received[0].centroids == ()

    def test_unexpected_message_rejected(self):
        simulator, root, local = self.deploy()
        simulator.connect(Channel(0, 1))
        bad = GammaUpdateMessage(sender=0, window=WINDOW, gamma=5)
        simulator.schedule(0.0, lambda t: root.send(bad, 1, t))
        with pytest.raises(AggregationError):
            simulator.run()


class TestRoot:
    def deploy(self, local_ids=(1, 2)):
        simulator = Simulator()
        query = QuantileQuery(q=0.5, window_length_ms=1000)
        root = SummaryRootNode(
            0, local_ids=list(local_ids), summary=TDigestSummary(query.q),
            ops_per_second=1e9,
        )
        simulator.add_node(root)
        senders = {}
        for local_id in local_ids:
            sender = Sink(local_id)
            simulator.add_node(sender)
            simulator.connect(Channel(local_id, 0))
            senders[local_id] = sender
        return simulator, root, senders

    def make_digest_message(self, values, node_id):
        from repro.sketches.tdigest import TDigest

        digest = TDigest(100)
        digest.add_all(values)
        return DigestMessage(
            sender=node_id, window=WINDOW,
            centroids=digest.to_centroid_tuples(),
            minimum=digest.min,
            maximum=digest.max,
        )

    def test_merged_quantile_close_to_truth(self):
        rng = random.Random(0)
        values_a = [rng.gauss(50, 10) for _ in range(5_000)]
        values_b = [rng.gauss(60, 10) for _ in range(5_000)]
        simulator, root, senders = self.deploy()
        for node_id, values in ((1, values_a), (2, values_b)):
            message = self.make_digest_message(values, node_id)
            simulator.schedule(
                1.0, lambda t, s=senders[node_id], m=message: s.send(m, 0, t)
            )
        simulator.run()
        record = root.records[0]
        truth = sorted(values_a + values_b)[4_999]
        assert record.value == pytest.approx(truth, rel=0.02)
        assert record.global_window_size == 10_000

    def test_waits_for_all_digests(self):
        simulator, root, senders = self.deploy()
        message = self.make_digest_message([1.0, 2.0], 1)
        simulator.schedule(1.0, lambda t: senders[1].send(message, 0, t))
        simulator.run()
        assert root.records == []

    def test_empty_window(self):
        simulator, root, senders = self.deploy()
        for node_id in (1, 2):
            message = DigestMessage(sender=node_id, window=WINDOW, centroids=())
            simulator.schedule(
                1.0, lambda t, s=senders[node_id], m=message: s.send(m, 0, t)
            )
        simulator.run()
        assert root.records[0].value is None

    def test_duplicate_digest_rejected(self):
        simulator, root, senders = self.deploy()
        message = self.make_digest_message([1.0], 1)
        simulator.schedule(1.0, lambda t: senders[1].send(message, 0, t))
        simulator.schedule(2.0, lambda t: senders[1].send(message, 0, t))
        with pytest.raises(AggregationError):
            simulator.run()
