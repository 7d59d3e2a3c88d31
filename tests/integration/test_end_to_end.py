"""End-to-end integration: full Dema deployments on realistic workloads."""

import pytest

from repro.network.topology import TopologyConfig
from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.bench.generator import GeneratorConfig, workload
from repro.testing import verify_outcomes


def assert_exact(outcomes, streams, query):
    """Every window of the streams answered once, bit-identical."""
    verification = verify_outcomes(outcomes, streams, query)
    assert verification.is_exact, verification.summary()
    assert verification.checked == len(outcomes)


@pytest.mark.parametrize("q", [0.25, 0.5, 0.9])
@pytest.mark.parametrize("n_nodes", [1, 3])
def test_dema_exact_on_generated_workloads(q, n_nodes):
    config = GeneratorConfig(event_rate=800.0, duration_s=3.0, seed=11)
    streams = workload(range(1, n_nodes + 1), config)
    query = QuantileQuery(q=q, window_length_ms=1000, gamma=40)
    engine = DemaEngine(query, TopologyConfig(n_local_nodes=n_nodes))
    report = engine.run(streams)
    assert_exact(report.outcomes, streams, query)


def test_dema_exact_with_skewed_scale_rates():
    config = GeneratorConfig(event_rate=600.0, duration_s=3.0, seed=12)
    streams = workload([1, 2], config, scale_rates={2: 10.0})
    query = QuantileQuery(q=0.3, window_length_ms=1000, gamma=25)
    engine = DemaEngine(query, TopologyConfig(n_local_nodes=2))
    report = engine.run(streams)
    assert_exact(report.outcomes, streams, query)


def test_dema_exact_with_unbalanced_event_rates():
    config = GeneratorConfig(event_rate=400.0, duration_s=3.0, seed=13)
    streams = workload([1, 2, 3], config, event_rates={2: 1_200.0, 3: 50.0})
    query = QuantileQuery(q=0.5, window_length_ms=1000, gamma=30)
    engine = DemaEngine(query, TopologyConfig(n_local_nodes=3))
    report = engine.run(streams)
    assert_exact(report.outcomes, streams, query)


def test_adaptive_gamma_stays_exact_and_reduces_cost():
    config = GeneratorConfig(event_rate=1_500.0, duration_s=6.0, seed=14)
    streams = workload([1, 2], config)
    fixed_bad = QuantileQuery(q=0.5, gamma=2, adaptive=False)
    adaptive = QuantileQuery(q=0.5, gamma=2, adaptive=True)
    report_bad = DemaEngine(
        fixed_bad, TopologyConfig(n_local_nodes=2)
    ).run(streams)
    report_adaptive = DemaEngine(
        adaptive, TopologyConfig(n_local_nodes=2)
    ).run(streams)

    assert_exact(report_adaptive.outcomes, streams, adaptive)
    # Adaptivity converges to a far cheaper gamma than the pathological fix.
    assert (
        report_adaptive.network.total_bytes < report_bad.network.total_bytes / 2
    )
    late_gammas = [o.gamma_used for o in report_adaptive.outcomes[2:]]
    assert all(g > 2 for g in late_gammas)


def test_half_second_windows():
    config = GeneratorConfig(event_rate=1_000.0, duration_s=2.0, seed=15)
    streams = workload([1, 2], config)
    query = QuantileQuery(q=0.5, window_length_ms=500, gamma=20)
    engine = DemaEngine(query, TopologyConfig(n_local_nodes=2))
    report = engine.run(streams)
    assert len(report.outcomes) == 4
    assert_exact(report.outcomes, streams, query)


def test_network_cost_scales_with_synopses_not_events():
    small = GeneratorConfig(event_rate=1_000.0, duration_s=2.0, seed=16)
    large = GeneratorConfig(event_rate=4_000.0, duration_s=2.0, seed=16)
    query = QuantileQuery(q=0.5, gamma=100)

    def dema_bytes(config):
        streams = workload([1, 2], config)
        engine = DemaEngine(query, TopologyConfig(n_local_nodes=2))
        return engine.run(streams).network.total_bytes

    small_bytes = dema_bytes(small)
    large_bytes = dema_bytes(large)
    # 4x the events must cost far less than 4x the bytes (synopses dominate).
    assert large_bytes < 3 * small_bytes
