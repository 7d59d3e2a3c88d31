"""Tests for the Dema engine facade (in-memory and simulated)."""

import random

import pytest

from repro.bench.generator import (
    GeneratorConfig,
    SensorStreamGenerator,
    workload,
    workload_columns,
)
from repro.errors import ConfigurationError
from repro.network.topology import TopologyConfig
from repro.streaming.aggregates import exact_quantile
from repro.streaming.events import make_events
from repro.streaming.windows import TumblingWindows
from repro.core.engine import DemaEngine, dema_quantile
from repro.core.query import QuantileQuery


class TestDemaQuantile:
    def test_median_exact(self, two_node_windows):
        values = [
            e.value for events in two_node_windows.values() for e in events
        ]
        result = dema_quantile(two_node_windows, q=0.5, gamma=50)
        assert result.value == exact_quantile(values, 0.5)

    @pytest.mark.parametrize("q", [0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    @pytest.mark.parametrize("gamma", [2, 17, 500])
    def test_all_quantiles_all_gammas(self, two_node_windows, q, gamma):
        values = [
            e.value for events in two_node_windows.values() for e in events
        ]
        result = dema_quantile(two_node_windows, q=q, gamma=gamma)
        assert result.value == exact_quantile(values, q)

    def test_transfer_cost_accounting(self, two_node_windows):
        result = dema_quantile(two_node_windows, q=0.5, gamma=50)
        assert result.transfer_events == 2 * result.synopses + result.candidate_events
        assert result.transfer_events < result.global_window_size

    def test_single_node(self):
        events = {1: make_events(range(100), node_id=1)}
        result = dema_quantile(events, q=0.5, gamma=10)
        assert result.value == 49.0

    def test_single_event(self):
        events = {1: make_events([7.0], node_id=1)}
        result = dema_quantile(events, q=0.5, gamma=2)
        assert result.value == 7.0

    def test_no_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            dema_quantile({}, q=0.5, gamma=2)

    def test_unsorted_input_accepted(self):
        rng = random.Random(1)
        values = [rng.random() for _ in range(500)]
        events = {1: make_events(values, node_id=1)}
        result = dema_quantile(events, q=0.5, gamma=7)
        assert result.value == exact_quantile(values, 0.5)

    def test_rank_matches_definition(self):
        events = {1: make_events(range(10), node_id=1)}
        result = dema_quantile(events, q=0.3, gamma=3)
        assert result.rank == 3


class TestDemaEngine:
    def make_engine(self, n_nodes=2, gamma=50, adaptive=False):
        query = QuantileQuery(
            q=0.5, window_length_ms=1000, gamma=gamma, adaptive=adaptive
        )
        return DemaEngine(query, TopologyConfig(n_local_nodes=n_nodes))

    def make_streams(self, n_nodes=2, per_node=1500, seed=0):
        rng = random.Random(seed)
        return {
            node_id: make_events(
                [rng.gauss(100 * node_id, 10) for _ in range(per_node)],
                node_id=node_id,
                timestamp_step=2,
            )
            for node_id in range(1, n_nodes + 1)
        }

    def test_every_window_exact(self):
        engine = self.make_engine()
        streams = self.make_streams()
        report = engine.run(streams)
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

    def test_report_metrics_populated(self):
        engine = self.make_engine()
        report = engine.run(self.make_streams())
        assert report.network.total_bytes > 0
        assert report.latency.count == len(report.outcomes)
        assert report.events_ingested == 3000
        assert report.final_time > 0

    def test_unknown_stream_node_rejected(self):
        engine = self.make_engine(n_nodes=2)
        with pytest.raises(ConfigurationError):
            engine.run({5: make_events([1.0], node_id=5)})

    def test_missing_node_streams_allowed(self):
        engine = self.make_engine(n_nodes=2)
        streams = {1: make_events(range(100), node_id=1, timestamp_step=5)}
        report = engine.run(streams)
        assert report.outcomes[0].value == 49.0

    def test_adaptive_run_changes_gamma(self):
        engine = self.make_engine(gamma=2, adaptive=True)
        engine.run(self.make_streams(per_node=2000))
        assert engine.root.gamma > 2

    def test_determinism(self):
        report_a = self.make_engine().run(self.make_streams(seed=7))
        report_b = self.make_engine().run(self.make_streams(seed=7))
        assert report_a.values == report_b.values
        assert report_a.network.total_bytes == report_b.network.total_bytes
        assert report_a.final_time == report_b.final_time


DOOR_CONFIG = GeneratorConfig(
    event_rate=1500.0, duration_s=2.5, seed=5, max_arrival_delay_ms=120
)
DOOR_QUERY = QuantileQuery(q=0.5, window_length_ms=1000, gamma=40)
DOOR_NODES = [1, 2, 3]


def _summary(engine, report):
    nodes = engine.simulator.nodes
    return {
        "outcomes": [
            (o.window.start, o.value, o.result_time, o.candidate_events)
            for o in report.outcomes
        ],
        "final_time": report.final_time,
        "total_bytes": report.network.total_bytes,
        "cpu_ops": {n: nodes[n].cpu.total_ops for n in sorted(nodes)},
        "late_events": {n: nodes[n].late_events for n in DOOR_NODES},
    }


def door_runs(columnar):
    """One seeded workload through each of the engine's three doors, fed
    as ``Event`` objects or as ``EventColumns``."""
    generate = workload_columns if columnar else workload
    streams = generate(DOOR_NODES, DOOR_CONFIG)
    delays = {
        n: SensorStreamGenerator(DOOR_CONFIG).arrival_times(n).tolist()
        for n in DOOR_NODES
    }
    arrivals = {n: list(zip(streams[n], delays[n])) for n in DOOR_NODES}
    runs = {}
    engine = DemaEngine(DOOR_QUERY, TopologyConfig(n_local_nodes=3))
    runs["run"] = _summary(engine, engine.run(streams))
    engine = DemaEngine(DOOR_QUERY, TopologyConfig(n_local_nodes=3))
    runs["run_unordered"] = _summary(
        engine, engine.run_unordered(arrivals, allowed_lateness_ms=40)
    )
    engine = DemaEngine(
        DOOR_QUERY, TopologyConfig(n_local_nodes=3, streams_per_local=2)
    )
    runs["run_via_sensors"] = _summary(engine, engine.run_via_sensors(streams))
    return runs


#: ``door_runs(columnar=False)`` at the parent of the PR that moved the
#: conversion to the engine's door (commit a9b1b41): the simulated world —
#: values, clocks, bytes, charges, late drops — that batching must not move.
DOOR_GOLDEN = {
    "run": {
        "outcomes": [
            (0, 44.62493290929341, 1.000363745277327, 200),
            (1000, 36.413325813564825, 2.000359953349234, 160),
            (2000, 40.08423830462307, 3.0003367220146173, 160),
        ],
        "final_time": 3.000323142094617,
        "total_bytes": 25372,
        "cpu_ops": {
            0: 27060.880235125278,
            1: 53404.38867460606,
            2: 53381.38867460606,
            3: 53381.38867460606,
        },
        "late_events": {1: 0, 2: 0, 3: 0},
    },
    "run_unordered": {
        "outcomes": [
            (0, 44.85442718075182, 1.0403624945313183, 200),
            (1000, 36.16412990883978, 2.0403624795313187, 200),
            (2000, 40.08423830462307, 3.0403367220146174, 160),
        ],
        "final_time": 3.040323142094617,
        "total_bytes": 25928,
        "cpu_ops": {
            0: 27405.111450503402,
            1: 49603.080648718205,
            2: 49614.196420134664,
            3: 49536.10588265672,
        },
        "late_events": {1: 78, 2: 77, 3: 82},
    },
    "run_via_sensors": {
        "outcomes": [
            (0, 44.62493290929341, 1.022363745277327, 200),
            (1000, 36.413325813564825, 2.022359953349234, 160),
            (2000, 40.08423830462307, 3.022336722014617, 160),
        ],
        "final_time": 3.0223231420946166,
        "total_bytes": 277372,
        "cpu_ops": {
            0: 27060.880235125278,
            1: 109625.98952375728,
            2: 109602.68039138155,
            3: 109602.68066778089,
            **dict.fromkeys(range(4, 10), 7500.0),
        },
        "late_events": {1: 0, 2: 0, 3: 0},
    },
}


class TestColumnsAtTheDoor:
    def test_objects_and_columns_run_the_same_simulation(self):
        assert door_runs(columnar=False) == door_runs(columnar=True)

    def test_simulated_world_equals_the_parent_commit(self):
        runs = door_runs(columnar=True)
        assert any(runs["run_unordered"]["late_events"].values())
        assert runs == DOOR_GOLDEN
