"""Combination tests: extensions composed with each other.

Each extension is tested in isolation elsewhere; this run exercises the
sensor tier with skewed rates and requires bit-exactness.  Sliding
windows compose with the rest on the live query plane (tests/queries).
"""

from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.network.topology import TopologyConfig
from repro.testing import verify_outcomes
from repro.bench.generator import GeneratorConfig, workload
from tests.event_objects import event_objects


def make_streams(n_nodes=2, rate=800.0, seconds=3.0, seed=71, **overrides):
    return event_objects(workload(
        range(1, n_nodes + 1),
        GeneratorConfig(event_rate=rate, duration_s=seconds, seed=seed),
        **overrides,
    ))


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
