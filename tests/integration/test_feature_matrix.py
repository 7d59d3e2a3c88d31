"""Combination tests: extensions composed with each other.

Each extension is tested in isolation elsewhere; these runs exercise the
interesting pairings — sliding windows under message loss, per-node γ with
unbalanced rates and loss, sensors with reliability, concurrency with
sliding groups and with loss — and require bit-exactness throughout.
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


class TestConcurrencyPlusReliability:
    def test_query_groups_exact_under_loss(self):
        """Four queries in three groups, one sliding, over lossy links:
        every group runs the reliability protocol."""
        queries = [
            QuantileQuery(q=0.5, window_length_ms=1000, gamma=40),
            QuantileQuery(q=0.9, window_length_ms=1000, gamma=40),
            QuantileQuery(q=0.25, window_length_ms=500, gamma=30),
            QuantileQuery(
                q=0.5, window_length_ms=1000, window_step_ms=500, gamma=40
            ),
        ]
        engine = DemaEngine(
            queries,
            TopologyConfig(n_local_nodes=2, loss_rate=0.10, loss_seed=4),
            reliability=RELIABLE,
        )
        streams = make_streams()
        report = engine.run(streams)
        assert engine.root.aborted_windows == 0
        assert len(engine.groups) == 3
        for query_index, query in enumerate(queries):
            outcomes = report.outcomes_for(query_index)
            verification = verify_outcomes(outcomes, streams, query)
            assert verification.is_exact, (query_index, verification.summary())


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


class TestConcurrentWithSlidingGroups:
    def test_mixed_tumbling_and_sliding_exact(self):
        queries = [
            QuantileQuery(q=0.5, window_length_ms=1000, gamma=40),
            QuantileQuery(
                q=0.9, window_length_ms=1000, window_step_ms=250, gamma=40
            ),
        ]
        engine = DemaEngine(queries, TopologyConfig(n_local_nodes=2))
        streams = make_streams()
        report = engine.run(streams)
        for query_index, query in enumerate(queries):
            outcomes = report.outcomes_for(query_index)
            verification = verify_outcomes(outcomes, streams, query)
            assert verification.is_exact, (query_index, verification.summary())


class TestMultiQuantileMatchesConcurrent:
    def test_two_apis_agree(self):
        """The in-memory multi-quantile API and the concurrent deployment
        answer the same questions identically."""
        from repro.core import dema_quantiles
        from repro.streaming.windows import TumblingWindows

        streams = make_streams(seconds=2.0)
        qs = (0.25, 0.5, 0.75)
        queries = [
            QuantileQuery(q=q, window_length_ms=1000, gamma=40) for q in qs
        ]
        engine = DemaEngine(queries, TopologyConfig(n_local_nodes=2))
        report = engine.run(streams)

        assigner = TumblingWindows(1000)
        per_window: dict = {}
        for node_id, events in streams.items():
            for event in events:
                per_window.setdefault(
                    assigner.window_for(event.timestamp), {}
                ).setdefault(node_id, []).append(event)
        for window, by_node in per_window.items():
            in_memory = dema_quantiles(by_node, qs, gamma=40)
            for query_index, q in enumerate(qs):
                outcome = next(
                    o
                    for o in report.outcomes_for(query_index)
                    if o.window == window
                )
                assert outcome.value == in_memory.values[q]
