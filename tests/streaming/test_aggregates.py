"""Tests for the sum and exact-quantile aggregation functions."""

import pytest

from repro.errors import AggregationError, ConfigurationError
from repro.streaming.aggregates import (
    AggregationClass,
    MedianFunction,
    QuantileFunction,
    SumFunction,
    exact_quantile,
    get_function,
    quantile_rank,
)

DATA = [5.0, 3.0, 8.0, 1.0, 9.0, 3.0, 7.0]


class TestQuantileRank:
    def test_median_of_odd(self):
        assert quantile_rank(0.5, 7) == 4

    def test_median_of_even(self):
        assert quantile_rank(0.5, 8) == 4

    def test_full_quantile_is_max(self):
        assert quantile_rank(1.0, 10) == 10

    def test_tiny_q_is_first(self):
        assert quantile_rank(0.0001, 10) == 1

    def test_quarter(self):
        assert quantile_rank(0.25, 100) == 25

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.01])
    def test_invalid_q_rejected(self, q):
        with pytest.raises(AggregationError):
            quantile_rank(q, 10)

    def test_empty_dataset_rejected(self):
        with pytest.raises(AggregationError):
            quantile_rank(0.5, 0)


class TestExactQuantile:
    def test_median(self):
        assert exact_quantile(DATA, 0.5) == 5.0

    def test_matches_rank_definition(self):
        ordered = sorted(DATA)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            assert exact_quantile(DATA, q) == ordered[quantile_rank(q, len(DATA)) - 1]


class TestSelfDecomposable:
    def test_sum(self):
        assert SumFunction().aggregate(DATA) == sum(DATA)

    @pytest.mark.parametrize("cls", [SumFunction])
    def test_classification(self, cls):
        assert cls().aggregation_class is AggregationClass.SELF_DECOMPOSABLE
        assert cls().is_decomposable

    @pytest.mark.parametrize("cls", [SumFunction])
    def test_combine_associative_on_split(self, cls):
        function = cls()
        whole = function.aggregate(DATA)
        left = None
        for value in DATA[:3]:
            lifted = function.lift(value)
            left = lifted if left is None else function.combine(left, lifted)
        right = None
        for value in DATA[3:]:
            lifted = function.lift(value)
            right = lifted if right is None else function.combine(right, lifted)
        assert function.lower(function.combine(left, right)) == whole


class TestNonDecomposable:
    def test_median(self):
        assert MedianFunction().aggregate(DATA) == 5.0

    def test_median_is_half_quantile(self):
        assert MedianFunction().q == 0.5

    def test_quantile(self):
        assert QuantileFunction(0.25).aggregate(DATA) == exact_quantile(DATA, 0.25)

    def test_quantile_invalid_q(self):
        with pytest.raises(ConfigurationError):
            QuantileFunction(0.0)

    @pytest.mark.parametrize("cls", [MedianFunction])
    def test_classification(self, cls):
        assert cls().aggregation_class is AggregationClass.NON_DECOMPOSABLE
        assert not cls().is_decomposable

    def test_empty_window_rejected(self):
        with pytest.raises(AggregationError):
            MedianFunction().aggregate([])


class TestRegistry:
    def test_all_names_constructible(self):
        assert isinstance(get_function("quantile", q=0.5), QuantileFunction)
        for name in ("sum", "median"):
            assert get_function(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_function("percentile")

    def test_quantile_requires_q(self):
        with pytest.raises(ConfigurationError):
            get_function("quantile")

    def test_non_quantile_rejects_kwargs(self):
        with pytest.raises(ConfigurationError):
            get_function("sum", q=0.5)

    def test_median_in_registry(self):
        assert isinstance(get_function("median"), MedianFunction)
