"""Tests for the q-digest decentralized baseline."""

import pytest

from repro.errors import AggregationError, SketchError
from repro.network.messages import GammaUpdateMessage, QDigestMessage
from repro.network.channels import Channel
from repro.network.simulator import SimulatedNode, Simulator
from repro.streaming.columns import EventColumns
from repro.streaming.events import make_events
from repro.streaming.windows import Window
from repro.core.query import QuantileQuery
from repro.sketches.qdigest import QDigest
from repro.baselines.base import SummaryLocalNode, SummaryRootNode, build_system
from repro.baselines.qdigest_system import QDigestSummary
from repro.bench.generator import GeneratorConfig, workload
from tests.event_objects import event_objects
from repro.bench.workloads import bench_topology, median_query

WINDOW = Window(0, 1000)


class Sink(SimulatedNode):
    def __init__(self, node_id=0):
        super().__init__(node_id)
        self.received = []

    def on_message(self, message, now):
        self.received.append(message)


class TestSerialization:
    def test_roundtrip_preserves_counts(self):
        digest = QDigest(k=32, depth=8)
        digest.add_all([1, 5, 5, 200, 255])
        triples = digest.to_node_tuples()
        restored = QDigest.from_node_tuples(triples, k=32, depth=8)
        assert restored.n == digest.n
        assert restored.quantile(0.5) == digest.quantile(0.5)

    def test_invalid_node_rejected(self):
        with pytest.raises(SketchError):
            QDigest.from_node_tuples([(9, 0, 1)], k=32, depth=8)
        with pytest.raises(SketchError):
            QDigest.from_node_tuples([(2, 9, 1)], k=32, depth=8)
        with pytest.raises(SketchError):
            QDigest.from_node_tuples([(2, 1, 0)], k=32, depth=8)

    def test_empty_roundtrip(self):
        restored = QDigest.from_node_tuples((), k=32, depth=8)
        assert restored.n == 0


class TestLocalNode:
    def deploy(self):
        simulator = Simulator()
        root = Sink()
        query = QuantileQuery(q=0.5, window_length_ms=1000)
        local = SummaryLocalNode(
            1, root_id=0, query=query, summary=QDigestSummary(query.q),
            ops_per_second=1e9,
        )
        simulator.add_node(root)
        simulator.add_node(local)
        simulator.connect(Channel(1, 0))
        return simulator, root, local

    def test_ships_digest_message(self):
        simulator, root, local = self.deploy()
        events = EventColumns.from_events(
            make_events(range(200), node_id=1, timestamp_step=1)
        )
        simulator.schedule(0.1, lambda t: local.ingest(events, t))
        simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
        simulator.run()
        message = root.received[0]
        assert isinstance(message, QDigestMessage)
        assert message.local_count == 200

    def test_values_outside_range_clamped(self):
        simulator, root, local = self.deploy()
        events = EventColumns.from_events(
            make_events([-50.0, 5_000.0], node_id=1, timestamp_step=1)
        )
        simulator.schedule(0.1, lambda t: local.ingest(events, t))
        simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
        simulator.run()
        assert root.received[0].local_count == 2

    def test_unexpected_message_rejected(self):
        simulator, root, local = self.deploy()
        simulator.connect(Channel(0, 1))
        bad = GammaUpdateMessage(sender=0, window=WINDOW, gamma=5)
        simulator.schedule(0.0, lambda t: root.send(bad, 1, t))
        with pytest.raises(AggregationError):
            simulator.run()


class TestFullSystem:
    def test_accuracy_within_error_bound(self):
        query = median_query(100)
        topo = bench_topology(2)
        streams = event_objects(workload(
            [1, 2], GeneratorConfig(event_rate=2_000.0, duration_s=2.0, seed=8)
        ))
        truth = {
            o.window: o.value
            for o in build_system("scotty", query, topo).run(streams).outcomes
        }
        report = build_system("qdigest", query, topo).run(streams)
        for outcome in report.outcomes:
            assert outcome.value == pytest.approx(
                truth[outcome.window], rel=0.05
            )

    def test_network_much_cheaper_than_raw(self):
        query = median_query(100)
        topo = bench_topology(2)
        streams = event_objects(workload(
            [1, 2], GeneratorConfig(event_rate=3_000.0, duration_s=2.0, seed=9)
        ))
        scotty = build_system("scotty", query, topo).run(streams)
        qdigest = build_system("qdigest", query, topo).run(streams)
        assert qdigest.network.total_bytes < 0.3 * scotty.network.total_bytes

    def test_empty_window(self):
        simulator = Simulator()
        query = QuantileQuery(q=0.5, window_length_ms=1000)
        root = SummaryRootNode(
            0, local_ids=[1], summary=QDigestSummary(query.q), ops_per_second=1e9
        )
        sender = Sink(1)
        simulator.add_node(root)
        simulator.add_node(sender)
        simulator.connect(Channel(1, 0))
        message = QDigestMessage(sender=1, window=WINDOW, nodes=(), local_count=0)
        simulator.schedule(1.0, lambda t: sender.send(message, 0, t))
        simulator.run()
        assert root.outcomes[0].value is None

    def test_duplicate_digest_rejected(self):
        simulator = Simulator()
        query = QuantileQuery(q=0.5, window_length_ms=1000)
        root = SummaryRootNode(
            0, local_ids=[1, 2], summary=QDigestSummary(query.q),
            ops_per_second=1e9,
        )
        sender = Sink(1)
        simulator.add_node(root)
        simulator.add_node(sender)
        simulator.connect(Channel(1, 0))
        message = QDigestMessage(
            sender=1, window=WINDOW, nodes=((14, 5, 3),), local_count=3
        )
        simulator.schedule(1.0, lambda t: sender.send(message, 0, t))
        simulator.schedule(2.0, lambda t: sender.send(message, 0, t))
        with pytest.raises(AggregationError):
            simulator.run()
