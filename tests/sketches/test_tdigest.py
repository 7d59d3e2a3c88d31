"""Tests for the from-scratch merging t-digest."""

import random

import pytest

from repro.errors import SketchError
from repro.sketches.scale_functions import K0
from repro.sketches.tdigest import Centroid, TDigest


def uniform_data(n=10_000, seed=0):
    rng = random.Random(seed)
    return [rng.random() for _ in range(n)]


class TestCentroid:
    def test_invalid_weight_rejected(self):
        with pytest.raises(SketchError):
            Centroid(mean=1.0, weight=0.0)


class TestBasics:
    def test_count_tracks_additions(self):
        digest = TDigest(100)
        digest.add_all([1.0, 2.0, 3.0])
        assert digest.count == 3

    def test_min_max_exact(self):
        digest = TDigest(100)
        digest.add_all([5.0, -2.0, 7.5])
        assert digest.min == -2.0
        assert digest.max == 7.5

    def test_empty_digest_queries_rejected(self):
        digest = TDigest(100)
        with pytest.raises(SketchError):
            digest.quantile(0.5)
        with pytest.raises(SketchError):
            digest.cdf(0.0)
        with pytest.raises(SketchError):
            digest.min

    def test_invalid_q_rejected(self):
        digest = TDigest(100)
        digest.add(1.0)
        with pytest.raises(SketchError):
            digest.quantile(1.5)

    def test_invalid_compression_rejected(self):
        with pytest.raises(SketchError):
            TDigest(5)

    def test_invalid_weight_rejected(self):
        digest = TDigest(100)
        with pytest.raises(SketchError):
            digest.add(1.0, weight=0.0)

    def test_single_value(self):
        digest = TDigest(100)
        digest.add(42.0)
        assert digest.quantile(0.5) == 42.0

    def test_weighted_add(self):
        digest = TDigest(100)
        digest.add(1.0, weight=99.0)
        digest.add(100.0, weight=1.0)
        assert digest.count == 100.0
        assert digest.quantile(0.5) < 10.0


class TestCompression:
    def test_centroid_count_bounded(self):
        data = uniform_data(50_000)
        digest = TDigest(100)
        digest.add_all(data)
        # Dunning & Ertl bound: at most ~2*delta centroids after merging.
        assert digest.centroid_count <= 2 * 100

    def test_total_weight_preserved(self):
        data = uniform_data(10_000)
        digest = TDigest(100)
        digest.add_all(data)
        assert sum(c.weight for c in digest.centroids()) == pytest.approx(
            len(data)
        )

    def test_centroids_sorted_by_mean(self):
        digest = TDigest(100)
        digest.add_all(uniform_data(5_000))
        means = [c.mean for c in digest.centroids()]
        assert means == sorted(means)

    def test_custom_scale_function(self):
        digest = TDigest(100, scale=K0(100))
        digest.add_all(uniform_data(5_000))
        assert digest.centroid_count <= 200


class TestAccuracy:
    @pytest.mark.parametrize("q", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
    def test_rank_error_small(self, q):
        data = uniform_data(20_000, seed=3)
        digest = TDigest(100)
        digest.add_all(data)
        estimate = digest.quantile(q)
        actual_rank = sum(1 for v in data if v <= estimate) / len(data)
        assert abs(actual_rank - q) < 0.02

    def test_extreme_quantiles_bounded_by_min_max(self):
        data = uniform_data(5_000)
        digest = TDigest(100)
        digest.add_all(data)
        assert digest.quantile(0.0) >= digest.min - 1e-12
        assert digest.quantile(1.0) <= digest.max + 1e-12

    def test_quantile_monotone_in_q(self):
        digest = TDigest(100)
        digest.add_all(uniform_data(5_000, seed=9))
        qs = [i / 50 for i in range(51)]
        values = [digest.quantile(q) for q in qs]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_gaussian_median(self):
        rng = random.Random(4)
        data = [rng.gauss(10, 2) for _ in range(30_000)]
        digest = TDigest(100)
        digest.add_all(data)
        assert digest.quantile(0.5) == pytest.approx(10.0, abs=0.1)


class TestCdf:
    def test_cdf_bounds(self):
        digest = TDigest(100)
        digest.add_all(uniform_data(5_000))
        assert digest.cdf(-1.0) == 0.0
        assert digest.cdf(2.0) == 1.0

    def test_cdf_approximates_uniform(self):
        digest = TDigest(100)
        digest.add_all(uniform_data(20_000, seed=5))
        for x in (0.1, 0.5, 0.9):
            assert digest.cdf(x) == pytest.approx(x, abs=0.02)

    def test_cdf_monotone(self):
        digest = TDigest(100)
        digest.add_all(uniform_data(5_000, seed=6))
        xs = [i / 50 for i in range(51)]
        cdfs = [digest.cdf(x) for x in xs]
        assert all(a <= b + 1e-12 for a, b in zip(cdfs, cdfs[1:]))

    def test_cdf_quantile_roundtrip(self):
        digest = TDigest(200)
        digest.add_all(uniform_data(20_000, seed=7))
        for q in (0.2, 0.5, 0.8):
            assert digest.cdf(digest.quantile(q)) == pytest.approx(q, abs=0.02)


class TestMerging:
    def test_merge_preserves_count_and_extremes(self):
        data = uniform_data(10_000, seed=8)
        left, right = TDigest(100), TDigest(100)
        left.add_all(data[:5000])
        right.add_all(data[5000:])
        left.merge(right)
        assert left.count == 10_000
        assert left.min == min(data)
        assert left.max == max(data)

    def test_merged_accuracy_close_to_single(self):
        data = uniform_data(20_000, seed=9)
        whole = TDigest(100)
        whole.add_all(data)
        parts = [TDigest(100) for _ in range(4)]
        for i, part in enumerate(parts):
            part.add_all(data[i * 5000 : (i + 1) * 5000])
        merged = TDigest.merge_all(parts)
        for q in (0.25, 0.5, 0.75):
            assert merged.quantile(q) == pytest.approx(
                whole.quantile(q), abs=0.02
            )

    def test_merge_empty_is_noop(self):
        digest = TDigest(100)
        digest.add_all([1.0, 2.0])
        digest.merge(TDigest(100))
        assert digest.count == 2

    def test_merge_all_empty(self):
        merged = TDigest.merge_all([TDigest(100), TDigest(100)])
        assert merged.count == 0


class TestSerialization:
    def test_roundtrip(self):
        digest = TDigest(100)
        digest.add_all(uniform_data(5_000, seed=10))
        pairs = digest.to_centroid_tuples()
        restored = TDigest.from_centroid_tuples(pairs)
        assert restored.count == pytest.approx(digest.count)
        assert restored.quantile(0.5) == pytest.approx(
            digest.quantile(0.5), abs=0.02
        )

    def test_empty_roundtrip(self):
        restored = TDigest.from_centroid_tuples(())
        assert restored.count == 0

    def test_serialized_size_much_smaller_than_data(self):
        digest = TDigest(100)
        digest.add_all(uniform_data(100_000, seed=11))
        assert len(digest.to_centroid_tuples()) < 1000

    def test_roundtrip_with_extremes_preserves_min_max(self):
        # A tail centroid's mean sits strictly inside the data range once
        # it holds more than one point; only the shipped exact extremes
        # keep q→0 / q→1 answers exact after deserialization.
        digest = TDigest(100)
        digest.add_all(uniform_data(5_000, seed=12))
        restored = TDigest.from_centroid_tuples(
            digest.to_centroid_tuples(),
            minimum=digest.min,
            maximum=digest.max,
        )
        assert restored.min == digest.min
        assert restored.max == digest.max
        for q in (1e-6, 1.0 - 1e-9):
            assert restored.quantile(q) == pytest.approx(
                digest.quantile(q), abs=1e-9
            )

    def test_roundtrip_without_extremes_flattens_tails(self):
        # The contract violation the extremes fix: without them the
        # restored digest can only bound the range by centroid means.
        digest = TDigest(100)
        digest.add_all(uniform_data(5_000, seed=13))
        restored = TDigest.from_centroid_tuples(digest.to_centroid_tuples())
        # For this seed the first centroid holds several points, so its
        # mean sits strictly above the true minimum; a singleton tail
        # centroid (weight 1) legitimately coincides with the extreme.
        assert digest.centroids()[0].weight > 1
        assert restored.min > digest.min
        assert restored.max <= digest.max


class TestFractionalWeights:
    def test_merge_preserves_fractional_total_weight(self):
        # Regression: the compression pass used to truncate the merged
        # total to int before sizing centroids, so digests whose weights
        # came from upstream merges (fractional) compressed against the
        # wrong capacity.  The total must flow through as a float.
        pairs = tuple((float(i), 0.7) for i in range(10))
        left = TDigest.from_centroid_tuples(pairs, minimum=0.0, maximum=9.0)
        right = TDigest.from_centroid_tuples(
            tuple((float(i) + 0.5, 0.7) for i in range(10)),
            minimum=0.5, maximum=9.5,
        )
        left.merge(right)
        assert left.count == pytest.approx(14.0)
        assert sum(c.weight for c in left.centroids()) == pytest.approx(14.0)
        assert left.min == 0.0
        assert left.max == 9.5
        assert 0.0 <= left.quantile(0.5) <= 9.5

    def test_unit_weight_workloads_unaffected(self):
        # For integer totals the float total is numerically identical, so
        # ordinary (weight-1) digests produce the same centroids as before.
        data = uniform_data(2_000, seed=14)
        digest = TDigest(100)
        digest.add_all(data)
        total = sum(c.weight for c in digest.centroids())
        assert total == float(int(total)) == 2_000.0
