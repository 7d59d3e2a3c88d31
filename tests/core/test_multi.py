"""Tests for multi-quantile queries."""

import random

import pytest

from repro.errors import ConfigurationError, IdentificationError
from repro.core.engine import dema_quantile
from repro.core import dema_quantiles
from repro.streaming.aggregates import exact_quantile
from repro.streaming.events import make_events


def windows(seed=0, sizes=(800, 1200)):
    rng = random.Random(seed)
    return {
        node_id: make_events(
            [rng.gauss(50 * node_id, 12) for _ in range(size)],
            node_id=node_id,
        )
        for node_id, size in enumerate(sizes, start=1)
    }


class TestCorrectness:
    def test_matches_single_quantile_api(self):
        data = windows()
        qs = (0.1, 0.25, 0.5, 0.75, 0.9)
        result = dema_quantiles(data, qs, gamma=40)
        for q in qs:
            single = dema_quantile(data, q=q, gamma=40)
            assert result.values[q] == single.value
            assert result.ranks[q] == single.rank

    def test_matches_oracle(self):
        data = windows(seed=3)
        all_values = [e.value for events in data.values() for e in events]
        result = dema_quantiles(data, (0.05, 0.5, 0.95), gamma=25)
        for q, value in result.values.items():
            assert value == exact_quantile(all_values, q)

    def test_duplicate_quantiles_collapsed(self):
        data = windows()
        result = dema_quantiles(data, (0.5, 0.5, 0.5), gamma=40)
        assert set(result.values) == {0.5}

    def test_single_quantile_degenerates(self):
        data = windows()
        result = dema_quantiles(data, (0.5,), gamma=40)
        assert result.values[0.5] == dema_quantile(data, 0.5, 40).value


class TestSharing:
    def test_union_cheaper_than_sum_of_individuals(self):
        data = windows(seed=7)
        # Nearby ranks fall within one γ=100 slice, so candidates are shared.
        qs = (0.495, 0.5, 0.505)
        result = dema_quantiles(data, qs, gamma=100)
        individual_total = sum(
            dema_quantile(data, q=q, gamma=100).candidate_events for q in qs
        )
        assert result.candidate_events < individual_total
        # Synopses are shipped once regardless of quantile count.
        assert result.synopses == dema_quantile(data, 0.5, 100).synopses

    def test_transfer_accounting(self):
        data = windows()
        result = dema_quantiles(data, (0.25, 0.75), gamma=30)
        assert result.transfer_events == (
            2 * result.synopses + result.candidate_events
        )

    def test_candidate_events_bounded_by_dataset(self):
        data = windows()
        result = dema_quantiles(data, (0.01, 0.5, 0.99), gamma=10)
        assert result.candidate_events <= result.global_window_size


class TestValidation:
    def test_no_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            dema_quantiles({}, (0.5,), gamma=10)

    def test_no_quantiles_rejected(self):
        with pytest.raises(ConfigurationError):
            dema_quantiles(windows(), (), gamma=10)

    def test_all_empty_windows_rejected(self):
        with pytest.raises(IdentificationError, match="global window is empty"):
            dema_quantiles({1: [], 2: []}, (0.5,), gamma=10)
