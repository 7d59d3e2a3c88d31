"""Combination tests: extensions composed with each other.

Each extension is tested in isolation elsewhere; these runs exercise the
interesting pairings — sliding windows under message loss, per-node γ with
unbalanced rates and loss, sensors with skewed rates — and require
bit-exactness throughout.
"""

from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.core.reliability import ReliabilityConfig
from repro.network.topology import TopologyConfig
from repro.testing import verify_outcomes
from repro.bench.generator import GeneratorConfig, workload
from tests.event_objects import event_objects

RELIABLE = ReliabilityConfig(timeout_s=0.05, max_retries=30)


def make_streams(n_nodes=2, rate=800.0, seconds=3.0, seed=71, **overrides):
    return event_objects(workload(
        range(1, n_nodes + 1),
        GeneratorConfig(event_rate=rate, duration_s=seconds, seed=seed),
        **overrides,
    ))


class TestSlidingPlusReliability:
    def test_exact_overlapping_windows_under_loss(self):
        query = QuantileQuery(
            q=0.5, window_length_ms=1000, window_step_ms=500, gamma=40
        )
        engine = DemaEngine(
            query,
            TopologyConfig(n_local_nodes=2, loss_rate=0.10, loss_seed=4),
            reliability=RELIABLE,
        )
        streams = make_streams()
        report = engine.run(streams)
        assert engine.root.aborted_windows == 0
        verification = verify_outcomes(report.outcomes, streams, query)
        assert verification.is_exact, verification.summary()


class TestPerNodeGammaPlusLoss:
    def test_heterogeneous_rates_lossy_links(self):
        query = QuantileQuery(
            q=0.5, gamma=50, adaptive=True, per_node_gamma=True
        )
        engine = DemaEngine(
            query,
            TopologyConfig(n_local_nodes=2, loss_rate=0.08, loss_seed=9),
            reliability=RELIABLE,
        )
        streams = make_streams(event_rates={2: 4_000.0})
        report = engine.run(streams)
        verification = verify_outcomes(report.outcomes, streams, query)
        assert verification.is_exact, verification.summary()
        gammas = engine.root.node_gammas
        assert gammas and gammas[2] > gammas[1]


class TestSensorsPlusSkew:
    def test_three_tier_with_scaled_node(self):
        query = QuantileQuery(q=0.25, gamma=40)
        engine = DemaEngine(
            query, TopologyConfig(n_local_nodes=2, streams_per_local=2)
        )
        streams = make_streams(scale_rates={2: 10.0})
        report = engine.run_via_sensors(streams)
        verification = verify_outcomes(report.outcomes, streams, query)
        assert verification.is_exact, verification.summary()
