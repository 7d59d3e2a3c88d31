"""Tests for the adaptive slice factor (Section 3.3)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.core.adaptive import (
    AdaptiveGammaController,
    optimal_gamma,
    transfer_cost,
)


class TestTransferCost:
    def test_boundary_formula(self):
        # Values on the wire: l_G/gamma boundaries + m*(gamma-1) candidate
        # values + the local's maximum.
        assert transfer_cost(10, 1000, 3) == pytest.approx(100 + 27 + 1)

    def test_gamma_two_ships_half_the_window_as_boundaries(self):
        # A boundary a slice of two; a candidate adds the one value its
        # boundary leaves unknown.
        assert transfer_cost(2, 1000, 5) == pytest.approx(500 + 5 + 1)

    def test_counts_the_bytes_the_wire_carries(self):
        # Every term is one 8-byte value: the section's boundaries (one a
        # slice, plus the maximum) and the candidate values past each
        # run's first.
        from repro.core.slicing import slice_sorted_events
        from repro.streaming.columns import EventColumns
        from repro.streaming.events import make_events

        events = EventColumns.from_events(make_events(range(1000), node_id=1))
        sliced = slice_sorted_events(events.values, 10, 1)
        section = sliced.synopses.to_wire(1000)
        boundaries = (len(section) - 12) // 8
        assert boundaries == transfer_cost(10, 1000, 0) == 101

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ConfigurationError):
            transfer_cost(1, 1000, 3)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            transfer_cost(10, -1, 3)
        with pytest.raises(ConfigurationError):
            transfer_cost(10, 100, -1)

    def test_convex_in_gamma(self):
        costs = [transfer_cost(g, 100_000, 4) for g in range(2, 2000)]
        minimum = costs.index(min(costs))
        # Monotone decrease before the minimum, increase after.
        assert all(a >= b for a, b in zip(costs[:minimum], costs[1 : minimum + 1]))
        assert all(a <= b for a, b in zip(costs[minimum:-1], costs[minimum + 1 :]))


class TestOptimalGamma:
    def test_matches_closed_form(self):
        gamma = optimal_gamma(100_000, 4)
        assert gamma == pytest.approx(math.sqrt(100_000 / 4), abs=1)

    def test_is_integer_optimum(self):
        for l_g, m in [(1000, 1), (5000, 3), (77, 5), (123_456, 17)]:
            best = optimal_gamma(l_g, m)
            for neighbour in (best - 1, best + 1):
                if neighbour >= 2:
                    assert transfer_cost(best, l_g, m) <= transfer_cost(
                        neighbour, l_g, m
                    )

    def test_no_candidates_maximizes_gamma(self):
        assert optimal_gamma(1000, 0) == 1000
        assert optimal_gamma(1000, 0, max_gamma=300) == 300

    def test_empty_window_minimum_gamma(self):
        assert optimal_gamma(0, 0) == 2

    def test_clamped_to_minimum(self):
        assert optimal_gamma(4, 100) == 2

    def test_max_gamma_clamp(self):
        assert optimal_gamma(1_000_000, 1, max_gamma=50) == 50

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            optimal_gamma(-1, 0)


class TestController:
    def test_initial_gamma_respected(self):
        controller = AdaptiveGammaController(gamma=64)
        assert controller.gamma == 64

    def test_observe_updates_gamma(self):
        controller = AdaptiveGammaController(gamma=10)
        new_gamma = controller.observe(100_000, 4)
        assert new_gamma == controller.gamma
        assert new_gamma == optimal_gamma(100_000, 4)

    def test_stable_conditions_reuse_gamma(self):
        controller = AdaptiveGammaController(gamma=10)
        first = controller.observe(50_000, 5)
        second = controller.observe(50_000, 5)
        assert first == second

    def test_smoothing_damps_oscillation(self):
        controller = AdaptiveGammaController(gamma=10, smoothing=0.5)
        controller.observe(100_000, 4)
        damped = controller.observe(10_000, 4)
        undamped = optimal_gamma(10_000, 4)
        assert damped > undamped

    def test_expected_cost_none_before_observation(self):
        assert AdaptiveGammaController().expected_cost() is None

    def test_expected_cost_after_observation(self):
        controller = AdaptiveGammaController()
        controller.observe(10_000, 2)
        cost = controller.expected_cost()
        assert cost == pytest.approx(
            transfer_cost(controller.gamma, 10_000, 2)
        )

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            AdaptiveGammaController(gamma=1)
        with pytest.raises(ConfigurationError):
            AdaptiveGammaController(smoothing=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveGammaController(smoothing=1.5)

    def test_adapts_to_rate_growth(self):
        controller = AdaptiveGammaController(gamma=10)
        small = controller.observe(1_000, 2)
        large = controller.observe(1_000_000, 2)
        assert large > small
