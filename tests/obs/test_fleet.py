"""Fleet telemetry plane: uplink, collector merge, bench and rendering.

The plane's core claim is tested here in isolation: per-node t-digest
uplinks, merged by the collector, reproduce the percentiles a central
observer would compute from every raw sample — at a fraction of the
bytes — and duplicated or re-ordered uplinks (relay replay, failover
reconnects) can never double-count because digests are cumulative and
sequence-stamped.
"""

import json
import random

import pytest

from repro.network.messages import (
    HeartbeatMessage,
    TelemetryDigestMessage,
    TelemetrySnapshotMessage,
)
from repro.obs.fleet import (
    FLEET_QUANTILES,
    FleetCollector,
    TelemetryUplink,
    fleet_benchmark,
)
from repro.obs.live.top import render_fleet
from repro.runtime.codec import decode_frame, encode_frame
from repro.sketches.tdigest import TDigest
from repro.streaming.windows import Window

W = Window(0, 1000)


class TestTelemetryUplink:
    def test_idle_node_builds_no_frames(self):
        assert TelemetryUplink(1).build(W) == []

    def test_build_is_snapshot_then_sorted_digests(self):
        uplink = TelemetryUplink(7)
        uplink.observe("z_metric", 1.0)
        uplink.observe("a_metric", 2.0)
        uplink.set_stat("frames_sent", 3.0)
        frames = uplink.build(W)
        assert isinstance(frames[0], TelemetrySnapshotMessage)
        assert frames[0].stats == (("frames_sent", 3.0),)
        assert [f.metric for f in frames[1:]] == ["a_metric", "z_metric"]
        assert all(f.sender == 7 for f in frames)

    def test_sequence_increments_per_build(self):
        uplink = TelemetryUplink(1)
        uplink.set_stat("x", 1.0)
        first = uplink.build(W)
        second = uplink.build(W)
        assert first[0].sequence == 1
        assert second[0].sequence == 2
        assert uplink.sequence == 2

    def test_digests_are_cumulative(self):
        # Every uplink ships the full digest since start — the property
        # that makes last-write-wins at the collector lossless.
        uplink = TelemetryUplink(1)
        for value in (1.0, 2.0):
            uplink.observe("m", value)
        uplink.build(W)
        for value in (3.0, 4.0):
            uplink.observe("m", value)
        (_, digest) = uplink.build(W)
        total = sum(weight for _, weight in digest.centroids)
        assert total == 4
        assert digest.minimum == 1.0
        assert digest.maximum == 4.0
        assert uplink.samples == 4


class TestFleetCollector:
    def _pump(self, collector, uplink, *, through_wire=True):
        for frame in uplink.build(W):
            if through_wire:
                frame = decode_frame(encode_frame(frame))
            assert collector.on_message(frame)

    def test_non_telemetry_frames_are_not_absorbed(self):
        collector = FleetCollector()
        assert not collector.on_message(HeartbeatMessage(1, W, sequence=3))
        assert collector.frames == 0

    def test_merged_percentiles_match_central_oracle(self):
        # Three nodes each observe a disjoint slice of one sample set;
        # the merged fleet view must agree with a central digest over
        # all samples to within t-digest interpolation.
        rng = random.Random(7)
        samples = [rng.lognormvariate(-4.0, 1.0) for _ in range(3000)]
        collector = FleetCollector()
        for node in range(3):
            uplink = TelemetryUplink(node + 1)
            for value in samples[node::3]:
                uplink.observe("seal_to_result_s", value)
            self._pump(collector, uplink)
        central = TDigest(50.0)
        for value in samples:
            central.add(value)
        merged = collector.percentiles("seal_to_result_s")
        assert merged["count"] == len(samples)
        assert merged["min"] == min(samples)
        assert merged["max"] == max(samples)
        for q in FLEET_QUANTILES:
            reference = central.quantile(q)
            assert merged[f"p{int(q * 100)}"] == pytest.approx(
                reference, rel=0.05
            )

    def test_replayed_uplinks_are_idempotent(self):
        # A relay replaying a buffered frame after failover delivers the
        # same sequence twice: the collector must not double-count.
        uplink = TelemetryUplink(1)
        uplink.observe("m", 1.0)
        uplink.set_stat("windows_sealed", 2.0)
        frames = uplink.build(W)
        collector = FleetCollector()
        for _ in range(3):
            for frame in frames:
                collector.on_message(frame)
        assert collector.merged("m").count == 1
        assert collector.stat_sum("windows_sealed") == 2.0
        assert collector.report()["stale_frames"] == 2 * len(frames)

    def test_out_of_order_uplink_never_rolls_backwards(self):
        # Sequence 2 routed through a fast path arrives before the
        # sequence-1 frame a slow relay replays: keep sequence 2.
        collector = FleetCollector()
        late = TelemetryDigestMessage(
            1, W, metric="m", sequence=1,
            centroids=((1.0, 1.0),), minimum=1.0, maximum=1.0,
        )
        fresh = TelemetryDigestMessage(
            1, W, metric="m", sequence=2,
            centroids=((1.0, 1.0), (2.0, 1.0)), minimum=1.0, maximum=2.0,
        )
        collector.on_message(fresh)
        collector.on_message(late)
        assert collector.merged("m").count == 2

    def test_stat_sum_and_max_span_senders(self):
        collector = FleetCollector()
        for node, age in ((1, 0.5), (2, 1.5)):
            uplink = TelemetryUplink(node)
            uplink.set_stat("oldest_pending_age_s", age)
            self._pump(collector, uplink)
        assert collector.stat_sum("oldest_pending_age_s") == 2.0
        assert collector.stat_max("oldest_pending_age_s") == 1.5
        assert collector.stat_max("absent_stat") == 0.0

    def test_empty_metric_reports_zero_count(self):
        assert FleetCollector().percentiles("nothing") == {"count": 0.0}

    def test_report_shape_and_failovers(self):
        collector = FleetCollector()
        uplink = TelemetryUplink(1)
        uplink.observe("m", 1.0)
        self._pump(collector, uplink)
        collector.record_failover(1048576, 1048577, 1, 0.25)
        report = collector.report()
        assert json.loads(json.dumps(report)) == report  # JSON-ready
        assert report["digest_count"] == 1
        assert report["senders"] == [1]
        assert report["metrics"]["m"]["count"] == 1
        assert report["failovers"] == [
            {"dead": 1048576, "successor": 1048577, "epoch": 1, "at": 0.25}
        ]


class TestFleetBench:
    def test_digest_uplink_beats_raw_shipping(self):
        result = fleet_benchmark(
            curve=(2, 4), samples_per_round=1500, rounds=2, seed=1
        )
        assert [point["n_locals"] for point in result["curve"]] == [2, 4]
        for point in result["curve"]:
            assert point["digest_uplink_bytes"] > 0
            assert point["digest_fraction_of_raw"] < 0.10
            assert point["savings"] == pytest.approx(
                1.0 - point["digest_fraction_of_raw"]
            )


class TestRenderFleet:
    def test_dashboard_shows_the_whole_mesh(self):
        collector = FleetCollector()
        uplink = TelemetryUplink(1)
        uplink.observe("seal_to_result_s", 0.05)
        for frame in uplink.build(W):
            collector.on_message(frame)
        collector.record_failover(1048576, 1048577, 1, 0.25)
        fleet = collector.report()
        fleet.update({
            "windows": {"expected": 4, "answered": 4, "completeness": 1.0},
            "epoch": 1,
            "staleness_s": 0.002,
            "shards": [{
                "index": 0, "node_id": 1048576, "live": True,
                "windows_answered": 4, "windows_expected": 4,
                "windows_adopted": 0, "heartbeat_misses": 0,
            }],
            "relays": [{
                "index": 0, "frames_combined": 8, "sections_combined": 32,
                "singleton_forwards": 0, "frames_replayed": 0,
            }],
        })
        text = render_fleet(fleet)
        assert "windows 4/4 (completeness 1.00) epoch 1" in text
        assert "seal_to_result_s" in text
        assert "METRIC" in text and "SHARD" in text and "RELAY" in text
        assert "failover: shard 1048576 -> 1048577 at 0.250s (epoch 1)" in text

    def test_empty_fleet_renders_without_error(self):
        text = render_fleet(FleetCollector().report())
        assert "windows 0/0" in text
