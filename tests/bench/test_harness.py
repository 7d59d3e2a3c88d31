"""Tests for the measurement harness."""

import pytest

from repro.errors import HarnessError
from repro.core.query import QuantileQuery
from repro.bench.harness import (
    ThroughputResult,
    capacity_estimate,
    measure_latency,
    probe_rate,
    run_workload,
    sustainable_throughput,
)
from repro.bench.generator import GeneratorConfig, workload
from tests.event_objects import event_objects
from repro.bench.workloads import bench_topology, median_query

TOPO = bench_topology(2)
QUERY = median_query(gamma=50)


class TestThroughputResult:
    def test_aggregate_rate(self):
        result = ThroughputResult(
            system="dema", per_node_rate=100.0, n_local_nodes=3, probes=1
        )
        assert result.aggregate_rate == 300.0


class TestProbeRate:
    def test_low_rate_sustainable(self):
        ok, latencies = probe_rate("dema", QUERY, TOPO, 200.0, n_windows=4)
        assert ok
        assert len(latencies) == 4

    def test_overload_rejected(self):
        ok, _ = probe_rate("scotty", QUERY, TOPO, 50_000.0, n_windows=4)
        assert not ok

    def test_latencies_positive(self):
        _, latencies = probe_rate("dema", QUERY, TOPO, 200.0, n_windows=4)
        assert all(latency > 0 for latency in latencies)


class TestSustainableThroughput:
    def test_search_brackets_true_rate(self):
        result = sustainable_throughput(
            "dema", QUERY, TOPO, rate_lo=100, rate_hi=30_000,
            iterations=5, n_windows=4,
        )
        assert 1_000 < result.per_node_rate < 30_000
        ok, _ = probe_rate(
            "dema", QUERY, TOPO, result.per_node_rate, n_windows=4
        )
        assert ok

    def test_unsustainable_floor_raises(self):
        tiny = bench_topology(2, ops_per_second=10.0)
        with pytest.raises(HarnessError):
            sustainable_throughput(
                "dema", QUERY, tiny, rate_lo=1_000, n_windows=3
            )

    def test_sustainable_ceiling_short_circuits(self):
        result = sustainable_throughput(
            "dema", QUERY, TOPO, rate_lo=50, rate_hi=100, n_windows=3
        )
        assert result.per_node_rate == 100
        assert result.probes == 2


class TestCapacityEstimate:
    def test_close_to_binary_search(self):
        searched = sustainable_throughput(
            "desis", QUERY, TOPO, rate_lo=100, rate_hi=30_000,
            iterations=7, n_windows=4,
        )
        estimated = capacity_estimate("desis", QUERY, TOPO)
        assert estimated.per_node_rate == pytest.approx(
            searched.per_node_rate, rel=0.35
        )

    def test_rankings_preserved(self):
        estimates = {
            name: capacity_estimate(name, QUERY, TOPO).per_node_rate
            for name in ("dema", "scotty", "desis")
        }
        # Two locals: Dema and a value-shipping Desis are both local-bound,
        # Desis about 3 % ahead (no slicing pass).
        assert estimates["dema"] < estimates["desis"] < 1.05 * estimates["dema"]
        assert estimates["dema"] > estimates["scotty"]
        # Four: Desis' root binds, and the paper's ranking holds.
        estimates = {
            name: capacity_estimate(name, QUERY, bench_topology(4)).per_node_rate
            for name in ("dema", "scotty", "desis")
        }
        assert estimates["dema"] > estimates["desis"] > estimates["scotty"]


class TestMeasureLatency:
    def test_returns_stats(self):
        stats = measure_latency("dema", QUERY, TOPO, 500.0, n_windows=5)
        assert stats.count == 5
        assert stats.p50 > 0

    def test_latency_grows_with_load(self):
        light = measure_latency("scotty", QUERY, TOPO, 200.0, n_windows=5)
        heavy = measure_latency("scotty", QUERY, TOPO, 800.0, n_windows=5)
        assert heavy.p50 > light.p50


class TestRunWorkload:
    def test_runs_explicit_streams(self):
        streams = event_objects(workload(
            range(1, 3), GeneratorConfig(event_rate=500, duration_s=2.0)
        ))
        report = run_workload("dema", QUERY, TOPO, streams)
        assert len(report.outcomes) == 2
        assert report.events_ingested == 2000
