"""Fleet telemetry on the mesh: off means off, on means honest.

Three contracts:

* ``telemetry=None`` is the bit-identity configuration — no telemetry
  frames, no trace contexts, identical window values to a telemetered
  run of the same workload.
* With telemetry on, the ``/fleet`` view's merged seal→result
  percentiles agree with the centrally computed
  :class:`~repro.network.metrics.LatencyStats` — the shard digests are
  built from exactly the samples the central view aggregates.
* Killing a shard mid-run yields **stitched** timelines: the dead
  shard's pre-crash spans and the successor's adopted work appear in
  one window tree, annotated with the post-failover ShardMap epoch, and
  the fleet view reports the takeover.
"""

import pytest

from repro.bench.generator import GeneratorConfig, workload
from repro.core.query import QuantileQuery
from repro.faults.plan import ToleranceConfig
from repro.mesh.cluster import run_mesh
from tests.mesh.grading import grade_counts
from repro.mesh.config import MeshConfig
from repro.mesh.routing import shard_node_id
from repro.obs.live.config import TelemetryConfig
from repro.obs.live.timeline import timeline_tree, window_timeline
from repro.obs.tracer import RecordingTracer

QUERY = QuantileQuery(q=0.5, gamma=10_000)

# Fast heartbeats drive the failover sweep; the local death threshold
# stays loose so a slow tick under full-suite load cannot spuriously
# degrade windows (same rationale as tests/mesh/test_failover.py).
TOLERANCE = ToleranceConfig(
    heartbeat_interval_s=0.02, declare_dead_after_s=2.0
)

N_LOCALS = 6

#: Sampler off by default in tests: its samples depend on host load.
TELEMETRY = TelemetryConfig(sampler_interval_s=0.0)


def streams_for(duration_s=8.0, seed=42):
    return workload(
        list(range(1, N_LOCALS + 1)),
        GeneratorConfig(event_rate=40.0, duration_s=duration_s, seed=seed),
    )


def mesh_config(**overrides):
    defaults = dict(
        n_locals=N_LOCALS,
        n_shards=2,
        query=QUERY,
        relay_flush_s=0.1,
        timeout_s=30.0,
    )
    defaults.update(overrides)
    return MeshConfig(**defaults)


def values_by_window(report):
    return {
        outcome.window: outcome.value
        for outcome in report.outcomes
        if outcome.value is not None
    }


class TestTelemetryOff:
    def test_off_run_reports_no_telemetry_and_identical_values(self):
        streams = streams_for(duration_s=4.0)
        off = run_mesh(mesh_config(), streams)
        on = run_mesh(mesh_config(telemetry=TELEMETRY), streams)
        assert off.telemetry == {}
        # Telemetry never perturbs results: bit-identical values.
        assert values_by_window(off) == values_by_window(on)
        # ...but its overhead is real, accounted bytes on the wire.
        assert on.total_bytes > off.total_bytes
        assert on.telemetry["fleet"]["bytes"] > 0


class TestFleetView:
    def test_merged_percentiles_match_central_latency_stats(self):
        config = mesh_config(telemetry=TELEMETRY)
        streams = streams_for()
        report = run_mesh(config, streams)
        classes = grade_counts(streams, config, report.outcomes)
        assert classes["lost"] == classes["mismatch"] == 0
        fleet = report.telemetry["fleet"]
        assert fleet["digest_count"] > 0
        assert fleet["stale_frames"] >= 0
        assert fleet["windows"]["completeness"] == 1.0
        # Shard uplinks digest exactly the samples the central
        # LatencyStats aggregates, so the quantiles agree to float
        # precision, not merely t-digest accuracy.
        merged = fleet["metrics"]["seal_to_result_s"]
        central = report.seal_to_result
        assert merged["count"] == central.count > 0
        assert merged["p50"] == pytest.approx(central.p50, rel=1e-9)
        assert merged["p95"] == pytest.approx(central.p95, rel=1e-9)
        assert merged["max"] == pytest.approx(central.max, rel=1e-9)
        # Every local and every shard uplinked something.
        senders = set(fleet["senders"])
        assert set(range(1, N_LOCALS + 1)) <= senders
        assert {shard_node_id(0), shard_node_id(1)} <= senders

    def test_relay_tier_appears_in_the_fleet_view(self):
        config = mesh_config(relay_fanin=3, telemetry=TELEMETRY)
        report = run_mesh(config, streams_for(duration_s=4.0))
        fleet = report.telemetry["fleet"]
        assert len(fleet["relays"]) == 2
        assert all(r["frames_combined"] > 0 for r in fleet["relays"])
        assert fleet["metrics"]["relay_flush_delay_s"]["count"] > 0


class TestStitchedTimelines:
    def _kill_run(self, relay_fanin=0):
        config = mesh_config(
            relay_fanin=relay_fanin, tolerance=TOLERANCE, telemetry=TELEMETRY
        )
        streams = streams_for(duration_s=20.0)
        tracer = RecordingTracer()

        async def disturb(ctx):
            ctx.shards[0].crash_after(1)

        report = run_mesh(config, streams, tracer=tracer, disturb=disturb)
        classes = grade_counts(streams, config, report.outcomes)
        assert classes["lost"] == classes["mismatch"] == 0
        assert report.shard_failovers == 1
        assert report.windows_adopted > 0
        # One seal→result sample per answered window, even across the
        # takeover, and the fleet digest holds exactly those samples.
        merged = report.telemetry["fleet"]["metrics"]["seal_to_result_s"]
        assert merged["count"] == len(report.seal_to_result.samples)
        assert len(report.seal_to_result.samples) <= len(report.outcomes)
        return config, report, tracer

    def test_kill_shard_stitches_dead_and_successor_under_one_tree(self):
        config, report, tracer = self._kill_run()
        stitched = []
        for outcome in report.outcomes:
            timeline = window_timeline(tracer.spans, outcome.window.start)
            if timeline["failover"]:
                stitched.append(timeline)
        # One stitched timeline per adopted window, each annotated with
        # the post-failover ShardMap epoch and spanning both shards.
        assert len(stitched) == report.windows_adopted
        for timeline in stitched:
            assert timeline["epochs"] == [1]
            assert "live_failover_replay" in timeline["phases"]
            assert shard_node_id(0) in timeline["nodes"]  # dead shard
            assert shard_node_id(1) in timeline["nodes"]  # successor
            # The replayed work nests under the window's tree: the only
            # roots are the documented ones (stream batches, the
            # synopsis seal) plus the replay spans themselves — never a
            # disconnected forest of successor-side work.
            roots = timeline_tree(timeline)
            assert {row["name"] for row in roots} <= {
                "live_stream_batch", "live_synopsis", "live_failover_replay"
            }

    def test_failover_lands_in_the_fleet_report(self):
        config, report, tracer = self._kill_run()
        fleet = report.telemetry["fleet"]
        assert fleet["epoch"] == 1
        assert len(fleet["failovers"]) == 1
        event = fleet["failovers"][0]
        assert event["dead"] == 0 and event["successor"] == 1
        victim_row = fleet["shards"][0]
        assert victim_row["live"] is False
        assert victim_row["windows_adopted"] == 0
        successor_row = fleet["shards"][1]
        assert successor_row["windows_adopted"] == report.windows_adopted


class TestRelayTimelineStitching:
    def test_section_contexts_keep_shard_spans_parented(self):
        # Without per-section contexts, a relay-combined frame arrives
        # at the shard with at most the *relay's* context, and every
        # shard-side span for the constituent locals becomes an orphan
        # root — the timeline truncates at the relay boundary.  With
        # them, shard dispatch spans parent onto the originating local's
        # span and the tree stays connected.
        config = mesh_config(relay_fanin=3, telemetry=TELEMETRY)
        streams = streams_for(duration_s=4.0)
        tracer = RecordingTracer()
        report = run_mesh(config, streams, tracer=tracer)
        checked = 0
        for outcome in report.outcomes:
            timeline = window_timeline(tracer.spans, outcome.window.start)
            if "relay_combine" not in timeline["phases"]:
                continue
            checked += 1
            ids = {row["id"] for row in timeline["spans"]}
            for row in timeline["spans"]:
                if row["name"] in ("live_identification", "live_calculation"):
                    assert row["parent"] in ids, (
                        f"{row['name']} orphaned at the relay boundary"
                    )
        assert checked > 0
