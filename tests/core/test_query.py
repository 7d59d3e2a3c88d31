"""Focused tests for QuantileQuery validation and derived properties."""

import pytest

from repro.errors import ConfigurationError
from repro.core.query import QuantileQuery
from repro.streaming.windows import TumblingWindows


class TestValidation:
    @pytest.mark.parametrize("q", [0.0, -0.5, 1.5])
    def test_invalid_quantile_rejected(self, q):
        with pytest.raises(ConfigurationError):
            QuantileQuery(q=q)

    def test_boundary_quantiles_allowed(self):
        assert QuantileQuery(q=1.0).q == 1.0
        assert QuantileQuery(q=0.001).q == 0.001

    @pytest.mark.parametrize("length", [0, -1000])
    def test_invalid_window_length_rejected(self, length):
        with pytest.raises(ConfigurationError):
            QuantileQuery(window_length_ms=length)

    @pytest.mark.parametrize("gamma", [0, 1, -5])
    def test_invalid_gamma_rejected(self, gamma):
        with pytest.raises(ConfigurationError):
            QuantileQuery(gamma=gamma)

    def test_minimum_gamma_allowed(self):
        assert QuantileQuery(gamma=2).gamma == 2

    @pytest.mark.parametrize(
        "kwargs", [{"window_step_ms": 250}, {"per_node_gamma": True}],
        ids=["window_step_ms", "per_node_gamma"],
    )
    def test_sliding_and_per_node_gamma_are_not_fields(self, kwargs):
        """Sliding windows run on the live query plane (``QuerySpec``);
        a simulated query is tumbling with one γ."""
        with pytest.raises(TypeError):
            QuantileQuery(**kwargs)

    def test_queries_are_frozen_and_hashable(self):
        query = QuantileQuery()
        with pytest.raises(AttributeError):
            query.q = 0.9
        assert query in {query}


class TestDefaults:
    def test_paper_defaults(self):
        query = QuantileQuery()
        assert query.q == 0.5
        assert query.window_length_ms == 1000
        assert query.gamma == 10_000
        assert not query.adaptive

    def test_default_assigner_is_one_second_tumbling(self):
        assigner = QuantileQuery().assigner()
        assert isinstance(assigner, TumblingWindows)
        assert assigner.length == 1000


class TestDescribe:
    def test_mentions_quantile_and_policy(self):
        text = QuantileQuery(q=0.25, gamma=150).describe()
        assert "25%" in text
        assert "γ=150" in text
        assert "tumbling" in text

    def test_adaptive_mentioned(self):
        text = QuantileQuery(adaptive=True).describe()
        assert "adaptive" in text
