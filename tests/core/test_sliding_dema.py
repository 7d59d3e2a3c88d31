"""Tests for the sliding-window Dema extension."""

import pytest

from repro.errors import ConfigurationError
from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.network.topology import TopologyConfig
from repro.streaming.aggregates import exact_quantile
from repro.streaming.windows import SlidingWindows, TumblingWindows
from repro.baselines.base import build_system
from repro.bench.generator import GeneratorConfig, workload
from tests.event_objects import event_objects


class TestQueryShape:
    def test_default_is_tumbling(self):
        query = QuantileQuery()
        assert not query.is_sliding
        assert isinstance(query.assigner(), TumblingWindows)

    def test_step_equal_length_is_tumbling(self):
        query = QuantileQuery(window_length_ms=1000, window_step_ms=1000)
        assert not query.is_sliding

    def test_sliding_assigner(self):
        query = QuantileQuery(window_length_ms=1000, window_step_ms=250)
        assert query.is_sliding
        assigner = query.assigner()
        assert isinstance(assigner, SlidingWindows)
        assert assigner.step == 250

    def test_invalid_step_rejected(self):
        with pytest.raises(ConfigurationError):
            QuantileQuery(window_length_ms=1000, window_step_ms=0)
        with pytest.raises(ConfigurationError):
            QuantileQuery(window_length_ms=1000, window_step_ms=1500)

    def test_describe_mentions_sliding(self):
        query = QuantileQuery(window_length_ms=1000, window_step_ms=500)
        assert "sliding" in query.describe()


class TestSlidingDeployment:
    def run_sliding(self, step_ms, q=0.5, seed=3):
        query = QuantileQuery(
            q=q, window_length_ms=1000, window_step_ms=step_ms, gamma=40
        )
        engine = DemaEngine(query, TopologyConfig(n_local_nodes=2))
        streams = event_objects(workload(
            [1, 2], GeneratorConfig(event_rate=600.0, duration_s=3.0, seed=seed)
        ))
        report = engine.run(streams)
        assigner = SlidingWindows(1000, step_ms)
        per_window = {}
        for events in streams.values():
            for event in events:
                for window in assigner.assign(event.timestamp):
                    per_window.setdefault(window, []).append(event.value)
        return report, per_window

    @pytest.mark.parametrize("step_ms", [250, 500])
    def test_every_overlapping_window_exact(self, step_ms):
        report, per_window = self.run_sliding(step_ms)
        assert len(report.outcomes) == len(per_window)
        for outcome in report.outcomes:
            assert outcome.value == exact_quantile(
                per_window[outcome.window], 0.5
            )

    def test_more_windows_than_tumbling(self):
        sliding_report, _ = self.run_sliding(500)
        tumbling_query = QuantileQuery(q=0.5, window_length_ms=1000, gamma=40)
        engine = DemaEngine(tumbling_query, TopologyConfig(n_local_nodes=2))
        streams = event_objects(workload(
            [1, 2], GeneratorConfig(event_rate=600.0, duration_s=3.0, seed=3)
        ))
        tumbling_report = engine.run(streams)
        assert len(sliding_report.outcomes) > len(tumbling_report.outcomes)

    def test_non_median_quantile(self):
        report, per_window = self.run_sliding(500, q=0.8, seed=9)
        for outcome in report.outcomes:
            assert outcome.value == exact_quantile(
                per_window[outcome.window], 0.8
            )


class TestBaselineGuard:
    def test_baselines_reject_sliding(self):
        query = QuantileQuery(window_length_ms=1000, window_step_ms=500)
        topo = TopologyConfig(n_local_nodes=2)
        for name in ("scotty", "desis", "tdigest"):
            with pytest.raises(ConfigurationError):
                build_system(name, query, topo)

    def test_dema_accepts_sliding(self):
        query = QuantileQuery(window_length_ms=1000, window_step_ms=500)
        topo = TopologyConfig(n_local_nodes=2)
        assert build_system("dema", query, topo) is not None
