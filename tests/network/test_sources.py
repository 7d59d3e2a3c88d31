"""Tests for the explicit sensor tier (stream → local → root)."""

import pytest

from repro.errors import ConfigurationError
from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.network.channels import Channel
from repro.network.messages import GammaUpdateMessage
from repro.network.simulator import SimulatedNode, Simulator
from repro.network.sources import StreamSensorNode
from repro.network.topology import TopologyConfig
from repro.streaming.aggregates import exact_quantile
from repro.streaming.events import Event, make_events
from repro.streaming.windows import TumblingWindows, Window
from repro.bench.generator import GeneratorConfig, workload
from tests.event_objects import event_objects


class Sink(SimulatedNode):
    def __init__(self, node_id=1):
        super().__init__(node_id)
        self.received = []

    def on_message(self, message, now):
        self.received.append((message, now))


def deploy_sensor(batch_size=4, max_batch_delay_ms=100):
    simulator = Simulator()
    local = Sink(1)
    sensor = StreamSensorNode(
        2, local_id=1, ops_per_second=1e9,
        batch_size=batch_size, max_batch_delay_ms=max_batch_delay_ms,
    )
    simulator.add_node(local)
    simulator.add_node(sensor)
    simulator.connect(Channel(2, 1))
    return simulator, local, sensor


class TestStreamSensorNode:
    def test_all_events_delivered(self):
        simulator, local, sensor = deploy_sensor()
        events = make_events(range(10), node_id=2, timestamp_step=10)
        sensor.load(events)
        simulator.run()
        delivered = [
            e for message, _ in local.received for e in message.events
        ]
        assert delivered == events
        assert sensor.events_produced == 10

    def test_batches_respect_size(self):
        simulator, local, sensor = deploy_sensor(batch_size=3)
        sensor.load(make_events(range(7), node_id=2, timestamp_step=1))
        simulator.run()
        sizes = [len(m.events) for m, _ in local.received]
        assert sizes == [3, 3, 1]

    def test_batches_respect_age_bound(self):
        simulator, local, sensor = deploy_sensor(
            batch_size=100, max_batch_delay_ms=50
        )
        sensor.load(make_events(range(10), node_id=2, timestamp_step=30))
        simulator.run()
        for message, _ in local.received:
            span = message.events[-1].timestamp - message.events[0].timestamp
            assert span <= 50

    def test_transmission_after_event_time(self):
        simulator, local, sensor = deploy_sensor(batch_size=2)
        sensor.load(make_events(range(6), node_id=2, timestamp_step=100))
        simulator.run()
        for message, arrival in local.received:
            # No batch arrives before its newest reading existed.
            assert arrival > message.events[-1].timestamp / 1000.0

    def test_regressing_timestamps_rejected(self):
        _, _, sensor = deploy_sensor()
        events = [
            Event(value=1.0, timestamp=10, node_id=2, seq=0),
            Event(value=2.0, timestamp=5, node_id=2, seq=1),
        ]
        with pytest.raises(ConfigurationError):
            sensor.load(events)

    def test_sensor_rejects_incoming_messages(self):
        simulator, local, sensor = deploy_sensor()
        simulator.connect(Channel(1, 2))
        bad = GammaUpdateMessage(sender=1, window=Window(0, 1), gamma=5)
        simulator.schedule(0.0, lambda t: local.send(bad, 2, t))
        with pytest.raises(ConfigurationError):
            simulator.run()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamSensorNode(2, local_id=1, batch_size=0)
        with pytest.raises(ConfigurationError):
            StreamSensorNode(2, local_id=1, max_batch_delay_ms=0)


class TestThreeTierDeployment:
    def run_three_tier(self, streams_per_local=3, rate=1_000.0):
        query = QuantileQuery(q=0.5, gamma=50)
        topo = TopologyConfig(
            n_local_nodes=2, streams_per_local=streams_per_local
        )
        engine = DemaEngine(query, topo)
        streams = event_objects(workload(
            [1, 2], GeneratorConfig(event_rate=rate, duration_s=3.0, seed=4)
        ))
        report = engine.run_via_sensors(streams)
        return engine, report, streams

    def test_exact_results_end_to_end(self):
        engine, report, streams = self.run_three_tier()
        assigner = TumblingWindows(1000)
        per_window = {}
        for events in streams.values():
            for event in events:
                per_window.setdefault(
                    assigner.window_for(event.timestamp), []
                ).append(event.value)
        assert len(report.outcomes) == len(per_window)
        for outcome in report.outcomes:
            assert outcome.value == exact_quantile(
                per_window[outcome.window], 0.5
            )

    def test_no_late_drops_with_default_lateness(self):
        engine, _, _ = self.run_three_tier()
        assert all(
            engine.simulator.nodes[i].late_events == 0
            for i in engine.topology.local_ids
        )

    def test_sensor_links_carry_all_events(self):
        engine, report, streams = self.run_three_tier()
        total_events = sum(len(events) for events in streams.values())
        on_sensor_links = sum(
            engine.simulator.channel(sid, lid).stats.events
            for lid, sids in engine.topology.stream_ids.items()
            for sid in sids
        )
        assert on_sensor_links == total_events

    def test_events_split_across_sensors(self):
        engine, _, _ = self.run_three_tier(streams_per_local=3)
        for sids in engine.topology.stream_ids.values():
            produced = [
                engine.simulator.nodes[sid].events_produced for sid in sids
            ]
            assert all(count > 0 for count in produced)
            assert max(produced) - min(produced) <= 1

    def test_requires_sensor_tier(self):
        query = QuantileQuery(q=0.5, gamma=50)
        engine = DemaEngine(query, TopologyConfig(n_local_nodes=2))
        with pytest.raises(ConfigurationError):
            engine.run_via_sensors({1: make_events([1.0], node_id=1)})

    def test_unknown_local_rejected(self):
        query = QuantileQuery(q=0.5, gamma=50)
        engine = DemaEngine(
            query, TopologyConfig(n_local_nodes=2, streams_per_local=1)
        )
        with pytest.raises(ConfigurationError):
            engine.run_via_sensors({9: make_events([1.0], node_id=9)})
