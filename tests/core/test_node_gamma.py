"""Tests for node-specific slice factors (Section 3.3 extension)."""

import pytest

from repro.errors import ConfigurationError
from repro.core.adaptive import NodeGammaController, optimal_gamma
from repro.core.query import QuantileQuery


class TestController:
    def test_initial_gamma_for_unknown_node(self):
        controller = NodeGammaController(64)
        assert controller.gamma_for(1) == 64

    def test_per_node_optima(self):
        controller = NodeGammaController(10)
        updated = controller.observe(
            {1: 1_000, 2: 100_000}, {1: 2, 2: 2}
        )
        assert updated[1] == optimal_gamma(1_000, 2)
        assert updated[2] == optimal_gamma(100_000, 2)
        assert updated[2] > updated[1]

    def test_missing_candidates_default_to_one(self):
        controller = NodeGammaController(10)
        updated = controller.observe({1: 10_000}, {})
        assert updated[1] == optimal_gamma(10_000, 1)

    def test_gammas_accumulate(self):
        controller = NodeGammaController(10)
        controller.observe({1: 100}, {1: 1})
        controller.observe({2: 400}, {2: 1})
        assert set(controller.gammas) == {1, 2}

    def test_smoothing_damps(self):
        controller = NodeGammaController(10, smoothing=0.5)
        controller.observe({1: 100_000}, {1: 2})
        damped = controller.observe({1: 1_000}, {1: 2})[1]
        assert damped > optimal_gamma(1_000, 2)

    def test_expected_cost(self):
        controller = NodeGammaController(10)
        assert controller.expected_cost() is None
        controller.observe({1: 10_000, 2: 1_000}, {1: 2, 2: 1})
        assert controller.expected_cost() > 0

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            NodeGammaController(1)
        with pytest.raises(ConfigurationError):
            NodeGammaController(10, smoothing=0.0)


class TestQueryValidation:
    def test_per_node_requires_adaptive(self):
        with pytest.raises(ConfigurationError):
            QuantileQuery(per_node_gamma=True, adaptive=False)

    def test_per_node_with_adaptive_ok(self):
        query = QuantileQuery(adaptive=True, per_node_gamma=True)
        assert query.per_node_gamma


class TestDeployment:
    def run_engine(self, per_node):
        from repro.core.engine import DemaEngine
        from repro.network.topology import TopologyConfig
        from repro.bench.generator import GeneratorConfig, workload
        from tests.event_objects import event_objects

        query = QuantileQuery(
            q=0.5, gamma=50, adaptive=True, per_node_gamma=per_node
        )
        engine = DemaEngine(query, TopologyConfig(n_local_nodes=2))
        streams = event_objects(workload(
            [1, 2],
            GeneratorConfig(event_rate=400.0, duration_s=4.0, seed=5),
            event_rates={2: 4_000.0},
        ))
        report = engine.run(streams)
        return engine, report, streams

    def test_unbalanced_nodes_get_different_gammas(self):
        engine, report, _ = self.run_engine(per_node=True)
        gammas = engine.root.node_gammas
        assert set(gammas) == {1, 2}
        assert gammas[2] > gammas[1]  # busier node -> coarser slices

    def test_results_stay_exact(self):
        from repro.streaming.aggregates import exact_quantile
        from repro.streaming.windows import TumblingWindows

        engine, report, streams = self.run_engine(per_node=True)
        assigner = TumblingWindows(1000)
        per_window = {}
        for events in streams.values():
            for event in events:
                per_window.setdefault(
                    assigner.window_for(event.timestamp), []
                ).append(event.value)
        for outcome in report.outcomes:
            assert outcome.value == exact_quantile(per_window[outcome.window], 0.5)

    def test_global_mode_reports_no_node_gammas(self):
        engine, _, _ = self.run_engine(per_node=False)
        assert engine.root.node_gammas == {}

    def test_per_node_beats_global_on_heterogeneous_load(self):
        _, per_node_report, _ = self.run_engine(per_node=True)
        _, global_report, _ = self.run_engine(per_node=False)
        # Steady-state (post-adaptation) network cost should not be worse.
        assert (
            per_node_report.network.total_bytes
            <= 1.1 * global_report.network.total_bytes
        )
