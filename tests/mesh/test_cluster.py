"""End-to-end mesh runs graded against the exact centralized quantile.

Everything here runs on the in-memory transport with unpaced replay, so
the whole file stays in CI's sub-minute budget while exercising the real
wire protocol, the shard routing, the relay tier and the membership
coordinator.
"""

import math

import pytest

from repro.bench.generator import GeneratorConfig, workload
from tests.event_objects import event_objects
from repro.core.query import QuantileQuery
from repro.faults.plan import ToleranceConfig
from repro.mesh import (
    MembershipEvent,
    MeshConfig,
    run_mesh,
)
from tests.mesh.grading import cluster_truth, grade_counts

QUERY = QuantileQuery(q=0.5, gamma=10_000)


def streams_for(local_ids, rate=120.0, duration=3.0, seed=42):
    return event_objects(workload(
        list(local_ids),
        GeneratorConfig(event_rate=rate, duration_s=duration, seed=seed),
    ))


def assert_bit_identical(config, streams):
    report = run_mesh(config, streams)
    classes = grade_counts(streams, config, report.outcomes)
    assert classes["mismatch"] == 0
    assert classes["lost"] == 0
    assert classes["degraded"] == 0
    assert classes["recovered"] == report.windows > 0
    return report


class TestShardedBitIdentity:
    def test_single_shard_matches_oracle(self):
        config = MeshConfig(n_locals=4, n_shards=1, query=QUERY)
        assert_bit_identical(config, streams_for(range(1, 5)))

    def test_sharded_matches_oracle(self):
        config = MeshConfig(n_locals=4, n_shards=3, query=QUERY)
        report = assert_bit_identical(config, streams_for(range(1, 5)))
        # Every shard answered at least one window of the 3s grid.
        assert len(report.membership_epochs) == 3

    def test_multi_stream_locals(self):
        config = MeshConfig(
            n_locals=3, streams_per_local=2, n_shards=2, query=QUERY
        )
        assert_bit_identical(config, streams_for(range(1, 4)))

    def test_hundred_locals(self):
        """100 locals on 4 shards, flat and behind fan-in-8 relays: both
        oracle-graded, and the relay tier cuts what reaches the roots."""
        streams = streams_for(range(1, 101), rate=30.0, duration=2.0)
        flat, relayed = (
            assert_bit_identical(
                MeshConfig(
                    n_locals=100, n_shards=4, relay_fanin=fanin, query=QUERY
                ),
                streams,
            )
            for fanin in (0, 8)
        )

        def root_link_frames(report):
            layers = report.messages_by_layer
            return layers.get("local_root", 0) + layers.get("relay_root", 0)

        assert root_link_frames(relayed) < root_link_frames(flat)
        assert relayed.root_ingress_bytes < flat.root_ingress_bytes


class TestRelayTier:
    def test_relayed_matches_oracle(self):
        config = MeshConfig(
            n_locals=6, n_shards=2, relay_fanin=3, query=QUERY
        )
        report = assert_bit_identical(config, streams_for(range(1, 7)))
        assert report.relay_frames_combined > 0
        assert report.relay_sections_combined > report.relay_frames_combined

    def test_relay_cuts_root_ingress(self):
        streams = streams_for(range(1, 9))
        flat = run_mesh(
            MeshConfig(n_locals=8, n_shards=2, query=QUERY), streams
        )
        relayed = run_mesh(
            MeshConfig(n_locals=8, n_shards=2, relay_fanin=4, query=QUERY),
            streams,
        )
        assert relayed.values == flat.values
        assert relayed.root_ingress_bytes < flat.root_ingress_bytes

    def test_ragged_last_group(self):
        # 5 locals at fan-in 2 leaves a singleton third relay.
        config = MeshConfig(
            n_locals=5, n_shards=2, relay_fanin=2, query=QUERY
        )
        assert_bit_identical(config, streams_for(range(1, 6)))


class TestByteAccounting:
    def test_layer_bytes_sum_to_total(self):
        config = MeshConfig(
            n_locals=6, n_shards=2, relay_fanin=3, query=QUERY
        )
        report = run_mesh(config, streams_for(range(1, 7)))
        assert report.total_bytes == sum(report.bytes_by_layer.values())
        assert report.total_bytes > 0

    def test_relay_runs_report_both_relay_layers(self):
        config = MeshConfig(
            n_locals=4, n_shards=2, relay_fanin=2, query=QUERY
        )
        report = run_mesh(config, streams_for(range(1, 5)))
        assert "local_relay" in report.bytes_by_layer
        assert "relay_root" in report.bytes_by_layer
        assert "local_root" not in report.bytes_by_layer

    def test_flat_runs_have_no_relay_layers(self):
        config = MeshConfig(n_locals=4, n_shards=2, query=QUERY)
        report = run_mesh(config, streams_for(range(1, 5)))
        assert "local_root" in report.bytes_by_layer
        assert "local_relay" not in report.bytes_by_layer
        assert "relay_root" not in report.bytes_by_layer


class TestElasticMembership:
    MEMBERSHIP = (
        MembershipEvent(at_ms=2_000, local_id=5, kind="join"),
        MembershipEvent(at_ms=3_000, local_id=2, kind="leave"),
    )

    def streams(self):
        return streams_for(range(1, 6), duration=4.0)

    @pytest.mark.parametrize(
        "shards,fanin", [(1, 0), (2, 0), (2, 2)],
        ids=["single-root", "sharded", "relayed"],
    )
    def test_join_and_leave_stay_bit_identical(self, shards, fanin):
        config = MeshConfig(
            n_locals=4,
            n_shards=shards,
            relay_fanin=fanin,
            query=QUERY,
            membership=self.MEMBERSHIP,
        )
        report = assert_bit_identical(config, self.streams())
        assert report.members == (1, 3, 4, 5)
        assert all(
            epoch == len(self.MEMBERSHIP)
            for epoch in report.membership_epochs.values()
        )

    def test_join_serves_its_first_complete_window(self):
        config = MeshConfig(
            n_locals=4,
            n_shards=2,
            query=QUERY,
            membership=(
                MembershipEvent(at_ms=2_000, local_id=5, kind="join"),
            ),
        )
        streams = self.streams()
        report = run_mesh(config, streams)
        truth = cluster_truth(streams, config)
        by_window = report.outcome_by_window()
        for window, (expected, _, _) in truth.items():
            if window.start >= 2_000:
                assert by_window[window].value == expected

    def test_membership_off_grid_rejected(self):
        from repro.errors import ConfigurationError

        config = MeshConfig(
            n_locals=4,
            query=QUERY,
            membership=(
                MembershipEvent(at_ms=2_500, local_id=5, kind="join"),
            ),
        )
        with pytest.raises(ConfigurationError):
            run_mesh(config, self.streams())

    def test_membership_on_an_unordered_stream_rejected(self):
        """A replay cuts its phases at each boundary by binary search;
        on an out-of-order stream that would ship post-boundary events
        before the boundary's gate opens, so the run must not start."""
        from repro.errors import ConfigurationError

        config = MeshConfig(
            n_locals=4, n_shards=2, query=QUERY, membership=self.MEMBERSHIP
        )
        streams = self.streams()
        streams[3] = list(streams[3])
        streams[3][10], streams[3][-10] = streams[3][-10], streams[3][10]
        with pytest.raises(ConfigurationError, match="timestamp order"):
            run_mesh(config, streams)


class TestOracle:
    """The grader's truth is the centralized system's answer, computed
    without any Dema operator — so a defect shared by the core nodes
    cannot grade itself ``recovered``."""

    def test_truth_is_the_sorted_rank_of_the_eligible_events(self):
        from repro.streaming.aggregates import quantile_rank

        config = MeshConfig(
            n_locals=4, query=QuantileQuery(q=0.9, gamma=50),
            membership=TestElasticMembership.MEMBERSHIP,
        )
        streams = streams_for(range(1, 6), duration=4.0)
        eligible = {1: (0, 10**9), 2: (0, 3_000), 3: (0, 10**9),
                    4: (0, 10**9), 5: (2_000, 10**9)}
        windows = {}
        for local_id, events in streams.items():
            lo, hi = eligible[local_id]
            for event in events:
                if lo <= event.timestamp < hi:
                    start = event.timestamp // 1_000 * 1_000
                    windows.setdefault(start, []).append(event.value)
        truth = cluster_truth(streams, config)
        assert {window.start: value for window, (value, _, _) in truth.items()} == {
            start: sorted(values)[quantile_rank(0.9, len(values)) - 1]
            for start, values in windows.items()
        }

    def test_signed_zeros_rank_in_event_key_order(self):
        """``-0.0 == 0.0``: local 1's ``+0.0`` comes first in event-key
        order, and a sharded cluster's ``+0.0`` answer grades recovered."""
        from repro.streaming.events import make_events

        streams = {
            1: make_events([0.0] * 4, node_id=1),
            2: make_events([0.0, 0.0, 0.0, 0.0, -0.0], node_id=2),
        }
        config = MeshConfig(
            n_locals=2, n_shards=2, query=QuantileQuery(q=0.1, gamma=2)
        )
        ((value, size, rank),) = cluster_truth(streams, config).values()
        assert (math.copysign(1.0, value), size, rank) == (1.0, 9, 1)
        report = run_mesh(config, streams)
        assert grade_counts(streams, config, report.outcomes) == {"recovered": 1}

    def test_a_wrong_calculation_is_graded_mismatch(self, monkeypatch):
        """Every answer one ulp high: an oracle that runs the same root
        operator would agree with it and grade each window recovered."""
        from repro.core import root_node
        from repro.runtime.cluster import ClusterConfig, run_live

        exact = root_node.select_frame

        def one_ulp_high(windows):
            return [
                tuple(math.nextafter(value, math.inf) for value in values)
                for values in exact(windows)
            ]

        monkeypatch.setattr(root_node, "select_frame", one_ulp_high)
        config = ClusterConfig(
            n_locals=2,
            query=QuantileQuery(q=0.5, gamma=50, window_length_ms=500),
        )
        streams = event_objects(workload(
            [1, 2],
            GeneratorConfig(event_rate=2000, duration_s=2.0, seed=42),
        ))
        report = run_live(config, streams)
        classes = grade_counts(streams, config, report.outcomes)
        assert classes["mismatch"] == report.windows == 4
        assert classes["recovered"] == 0


class TestChaosComposition:
    TOLERANCE = ToleranceConfig(
        heartbeat_interval_s=0.02, declare_dead_after_s=0.15
    )

    def test_crashed_local_degrades_instead_of_hanging(self):
        async def crash_one(ctx):
            await ctx.locals_by_id[2].crash()

        config = MeshConfig(
            n_locals=4,
            n_shards=2,
            relay_fanin=2,
            query=QUERY,
            tolerance=self.TOLERANCE,
            relay_flush_s=0.1,
            timeout_s=30.0,
        )
        streams = streams_for(range(1, 5))
        report = run_mesh(config, streams, disturb=crash_one)
        classes = grade_counts(streams, config, report.outcomes)
        assert classes["mismatch"] == 0
        assert classes["lost"] == 0
        assert classes["degraded"] == report.windows
        assert report.locals_declared_dead > 0
        assert report.wall_seconds < 10.0

    def test_tolerant_clean_run_stays_exact(self):
        config = MeshConfig(
            n_locals=4,
            n_shards=2,
            relay_fanin=2,
            query=QUERY,
            tolerance=self.TOLERANCE,
            relay_flush_s=0.1,
        )
        streams = streams_for(range(1, 5))
        report = assert_bit_identical(config, streams)
        assert report.locals_declared_dead == 0
