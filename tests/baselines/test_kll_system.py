"""Tests for the KLL decentralized baseline."""

import pytest

from repro.baselines.base import build_system
from repro.bench.generator import GeneratorConfig, workload
from tests.event_objects import event_objects
from repro.bench.workloads import bench_topology, median_query


def make_streams(rate=2_000.0, seconds=2.0, seed=61):
    return event_objects(workload(
        [1, 2], GeneratorConfig(event_rate=rate, duration_s=seconds, seed=seed)
    ))


class TestKllSystem:
    def test_accuracy_close_to_truth(self):
        query = median_query(100)
        topo = bench_topology(2)
        streams = make_streams()
        truth = {
            o.window: o.value
            for o in build_system("scotty", query, topo).run(streams).outcomes
        }
        report = build_system("kll", query, topo).run(streams)
        for outcome in report.outcomes:
            assert outcome.value == pytest.approx(
                truth[outcome.window], rel=0.03
            )
            assert outcome.global_window_size > 0

    def test_network_far_below_raw(self):
        query = median_query(100)
        topo = bench_topology(2)
        streams = make_streams(rate=5_000.0)
        scotty = build_system("scotty", query, topo).run(streams)
        kll = build_system("kll", query, topo).run(streams)
        assert kll.network.total_bytes < 0.15 * scotty.network.total_bytes

    def test_deterministic(self):
        query = median_query(100)
        topo = bench_topology(2)
        streams = make_streams()
        first = build_system("kll", query, topo).run(streams)
        second = build_system("kll", query, topo).run(streams)
        assert first.values == second.values

    def test_in_system_registry(self):
        from repro.baselines.base import SYSTEM_NAMES

        assert "kll" in SYSTEM_NAMES

    def test_throughput_competitive_with_tdigest(self):
        from repro.bench.harness import capacity_estimate

        query = median_query(100)
        topo = bench_topology(2)
        kll = capacity_estimate("kll", query, topo).per_node_rate
        tdigest = capacity_estimate("tdigest", query, topo).per_node_rate
        assert kll == pytest.approx(tdigest, rel=0.5)

    def test_empty_window(self):
        from repro.streaming.events import make_events

        query = median_query(100)
        topo = bench_topology(2)
        streams = {1: make_events([1.0, 2.0], node_id=1, timestamp_step=1)}
        report = build_system("kll", query, topo).run(streams)
        assert report.outcomes[0].value is not None
