"""Cross-system integration: the paper's comparative claims hold end-to-end."""

import pytest

from repro.bench.generator import GeneratorConfig, workload
from repro.bench.harness import capacity_estimate, measure_latency, run_workload
from repro.bench.workloads import bench_topology, median_query

TOPO = bench_topology(2)
QUERY = median_query(gamma=50)


@pytest.fixture(scope="module")
def streams():
    config = GeneratorConfig(event_rate=2_000.0, duration_s=3.0, seed=21)
    return workload([1, 2], config)


@pytest.fixture(scope="module")
def reports(streams):
    return {
        name: run_workload(name, QUERY, TOPO, streams)
        for name in ("dema", "scotty", "desis", "tdigest")
    }


class TestResultAgreement:
    def test_exact_systems_identical(self, reports):
        def keyed(report):
            return {o.window: o.value for o in report.outcomes}

        assert keyed(reports["dema"]) == keyed(reports["scotty"])
        assert keyed(reports["desis"]) == keyed(reports["scotty"])

    def test_tdigest_within_tolerance(self, reports):
        truth = {o.window: o.value for o in reports["scotty"].outcomes}
        for outcome in reports["tdigest"].outcomes:
            assert outcome.value == pytest.approx(
                truth[outcome.window], rel=0.03
            )

    def test_window_sizes_agree(self, reports):
        sizes = {
            name: sorted(
                (o.window, o.global_window_size) for o in report.outcomes
            )
            for name, report in reports.items()
        }
        assert sizes["dema"] == sizes["scotty"] == sizes["desis"]


class TestNetworkClaims:
    def test_dema_reduces_network_dramatically(self, reports):
        assert (
            reports["dema"].network.total_bytes
            < 0.15 * reports["scotty"].network.total_bytes
        )

    def test_desis_ships_everything(self, reports):
        # Every event still crosses the wire, as its 8-byte value: 8 of
        # the 20 bytes a Scotty tuple takes (the paper's Desis ships the
        # tuple, as much as Scotty).
        desis = reports["desis"].network.total_bytes
        events = sum(o.global_window_size for o in reports["desis"].outcomes)
        assert 8 * events < desis < 1.01 * 8 * events
        assert desis == pytest.approx(
            0.4 * reports["scotty"].network.total_bytes, rel=0.05
        )

    def test_tdigest_cheapest(self, reports):
        assert (
            reports["tdigest"].network.total_bytes
            < reports["dema"].network.total_bytes
        )

    def test_root_ingress_dominates_centralized_cost(self, reports):
        scotty = reports["scotty"].network
        assert scotty.bytes_into(0) > 0.95 * scotty.total_bytes


class TestPerformanceClaims:
    def test_throughput_ordering(self):
        estimates = {
            name: capacity_estimate(name, QUERY, TOPO).aggregate_rate
            for name in ("dema", "scotty", "desis", "tdigest")
        }
        # Two locals: Dema and a value-shipping Desis are both bound by
        # the local sort, Desis about 3 % ahead (no slicing pass); Desis'
        # root binds from three locals on.
        assert (
            estimates["tdigest"]
            > estimates["desis"]
            > estimates["dema"]
            > estimates["scotty"]
        )
        assert estimates["desis"] < 1.05 * estimates["dema"]
        estimates = {
            name: capacity_estimate(name, QUERY, bench_topology(4)).aggregate_rate
            for name in ("dema", "scotty", "desis", "tdigest")
        }
        assert (
            estimates["tdigest"]
            > estimates["dema"]
            > estimates["desis"]
            > estimates["scotty"]
        )

    def test_latency_ordering_at_common_rate(self):
        latencies = {
            name: measure_latency(name, QUERY, TOPO, 700.0, n_windows=6).p50
            for name in ("dema", "scotty", "desis", "tdigest")
        }
        assert latencies["scotty"] > latencies["desis"]
        assert latencies["desis"] > latencies["dema"]
        # Dema and t-digest are both far below the centralized systems.
        # With slice boundaries on the wire Dema's root receives less and
        # answers first (measured p50 0.04736 vs t-digest's 0.06418, 1.355x).
        assert 1.33 * latencies["dema"] < latencies["tdigest"]
        assert latencies["tdigest"] < 1.38 * latencies["dema"]
