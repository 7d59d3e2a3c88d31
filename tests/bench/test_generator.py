"""Tests for the synthetic DEBS-style workload generator."""

import hashlib

import numpy as np
import pytest

from repro.errors import GeneratorError
from repro.bench.generator import GeneratorConfig, SensorStreamGenerator, workload
from repro.bench.runner import _drifting_streams
from repro.streaming.columns import EventColumns


def config(**kwargs):
    defaults = dict(event_rate=1000.0, duration_s=2.0, seed=7)
    defaults.update(kwargs)
    return GeneratorConfig(**defaults)


class TestConfigValidation:
    def test_n_events(self):
        assert config(event_rate=500, duration_s=3.0).n_events == 1500

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"event_rate": 0},
            {"duration_s": 0},
            {"scale_rate": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(GeneratorError):
            config(**kwargs)


class TestStreams:
    def test_deterministic_per_seed(self):
        a = SensorStreamGenerator(config()).generate(1)
        b = SensorStreamGenerator(config()).generate(1)
        assert a == b

    def test_different_nodes_differ(self):
        generator = SensorStreamGenerator(config())
        assert generator.generate(1) != generator.generate(2)

    def test_replay_offset_changes_stream(self):
        a = SensorStreamGenerator(config(replay_offset=0)).values(1)
        b = SensorStreamGenerator(config(replay_offset=1)).values(1)
        assert not np.allclose(a, b)

    def test_event_count_matches_rate(self):
        events = SensorStreamGenerator(config()).generate(1)
        assert len(events) == 2000

    def test_timestamps_non_decreasing_within_duration(self):
        events = SensorStreamGenerator(config()).generate(1)
        stamps = [e.timestamp for e in events]
        assert stamps == sorted(stamps)
        assert stamps[0] >= 0
        assert stamps[-1] < 2000

    def test_node_id_and_seq_stamped(self):
        events = SensorStreamGenerator(config()).generate(3)
        assert all(e.node_id == 3 for e in events)
        assert [e.seq for e in events] == list(range(len(events)))

    def test_values_non_negative(self):
        values = SensorStreamGenerator(config()).values(1)
        assert (values >= 0).all()

    def test_values_autocorrelated(self):
        values = SensorStreamGenerator(config(event_rate=5000)).values(1)
        deviations = values - values.mean()
        autocorr = float(
            np.corrcoef(deviations[:-1], deviations[1:])[0, 1]
        )
        assert autocorr > 0.8

    def test_scale_rate_multiplies_values(self):
        base = SensorStreamGenerator(config(scale_rate=1.0)).values(1)
        scaled = SensorStreamGenerator(config(scale_rate=10.0)).values(1)
        assert np.allclose(scaled, base * 10.0)

    def test_scaled_streams_still_overlap_near_origin(self):
        # The paper's Dema #10 configuration relies on scaled streams
        # remaining "denser on the left": the scale-1 stream must overlap
        # the scale-10 stream's lower range.
        base = SensorStreamGenerator(config(event_rate=5000)).values(1)
        scaled = base * 10.0
        assert scaled.min() < np.percentile(base, 95)


class TestWorkload:
    def test_per_node_streams(self):
        streams = workload(range(1, 4), config())
        assert set(streams) == {1, 2, 3}
        assert all(len(events) == 2000 for events in streams.values())

    def test_scale_rate_overrides(self):
        streams = workload(
            [1, 2], config(), scale_rates={2: 10.0}
        )
        mean_1 = np.mean([e.value for e in streams[1]])
        mean_2 = np.mean([e.value for e in streams[2]])
        assert mean_2 > 5 * mean_1

    def test_event_rate_overrides(self):
        streams = workload([1, 2], config(), event_rates={2: 250.0})
        assert len(streams[1]) == 2000
        assert len(streams[2]) == 500

    def test_nodes_replay_from_different_offsets(self):
        streams = workload([1, 2], config())
        values_1 = [e.value for e in streams[1]]
        values_2 = [e.value for e in streams[2]]
        assert values_1 != values_2

    def test_streams_are_born_columnar(self):
        streams = workload([1, 2], config())
        assert all(type(s) is EventColumns for s in streams.values())
        assert type(SensorStreamGenerator(config()).generate(1)) is EventColumns


def fingerprints(streams):
    return {
        node_id: hashlib.sha256(bytes(share.wire_records())).hexdigest()
        for node_id, share in streams.items()
    }


class TestStreamFingerprints:
    """The wire bytes of every generated stream, recorded while the
    generator still built ``Event`` objects (each stream converted with
    ``EventColumns.from_events``): building the columns directly moved no
    bit of any value, timestamp, node id or ``seq``."""

    def test_sim_paper_streams(self):
        streams = workload([1, 2, 3, 4], GeneratorConfig(12_500.0, 4.0, seed=42))
        assert fingerprints(streams) == {
            1: "a31c2fe7cb4ed99a55fb597d066b8ec85215b7f11a39c1774eef2b0016b9f8d5",
            2: "8d18c0ad2d57beff31942ccfd24307a1d32448fdfac974f1159731cb57938958",
            3: "c3b9e2088bb45c5d6ce2ef3970fa3a73ad1a5e4240a4153f07a79dc26acbb3cf",
            4: "7c27026f83edc2df904d6d81efbd8c5fbc534296a1814a9181086729103f3068",
        }

    def test_adaptive_gamma_ablation_streams(self):
        # ``exp_ablation_adaptive_gamma``'s defaults: ten windows, seed 42.
        assert fingerprints(_drifting_streams(10, 42)) == {
            1: "f1711669dfab0716e88236a2cfd49c51a692e24468bd23e31c86d727570537a1",
            2: "188d4d709a0958db9267c733aa17bdba20ee3aa1bae0e600cb4ebbd6fb95332f",
        }
