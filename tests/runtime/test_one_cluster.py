"""One live cluster: what the flat/mesh unification must not move, and
what it newly composes.

* **Golden wire** — values, bytes and frame counts per layer of one
  small seeded workload on three topologies equal constants recorded
  from a clone of the commit *before* the two drivers were merged: no
  frame was added, dropped or re-addressed.
* **Relay start-up race** — a relay awaits its founding children by id,
  connected yet or not, so it never decides a window is complete from
  the partial set that happens to have dialed so far.
* **Telemetry is one plane** — ``telemetry=`` means the same on every
  topology: stream-batch spans, per-node uplinks, ``/summary`` *and*
  ``/fleet``.
* **Adaptive γ on one shard** — the mesh's blanket ban is lifted where
  it never applied.
"""

import contextlib
import signal
import time
from types import SimpleNamespace

import pytest

from repro.bench.generator import GeneratorConfig, workload, workload_columns
from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.core.root_node import WindowOutcome
from repro.mesh import MeshConfig, run_mesh
from repro.mesh.routing import relay_node_id, shard_node_id
from repro.network.topology import TopologyConfig
from repro.obs.live.config import TelemetryConfig
from repro.obs.tracer import RecordingTracer
from repro.runtime.cluster import (
    ClusterReport,
    LiveClusterConfig,
    _cluster_summary,
    run_live,
)
from repro.streaming.windows import Window


@contextlib.contextmanager
def hard_timeout(seconds: int):
    def on_alarm(signum, frame):
        raise TimeoutError(f"cluster test exceeded {seconds}s wall clock")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_each_pair_is_two_names_for_one_object():
    import repro.mesh as mesh
    import repro.runtime as runtime

    assert mesh.MeshConfig is LiveClusterConfig
    assert mesh.run_mesh is run_live
    # The report and the driver coroutine have one name each.
    for package, names in (
        (mesh, ("MeshRunReport", "run_mesh_cluster")),
        (runtime, ("LiveRunReport", "run_live_cluster")),
    ):
        for name in names:
            assert not hasattr(package, name), name


# ----------------------------------------------------------------------
# Golden wire: recorded at the parent commit with
#   workload_columns([1..4], GeneratorConfig(200.0, 3.0, seed=5)),
#   QuantileQuery(q=0.5, gamma=64), memory transport, 2 streams a local.
# Uplink bytes re-recorded for wire version 2 (candidate runs ship 8-byte
# values): 16,128 fewer on every uplink layer, 1,344 candidates × 12 B;
# values and message counts unchanged.  Re-recorded for wire version 3
# (a synopsis is one 20-byte record on every link): 48 synopses, 28 B
# fewer each local→root or local→relay (1,344 B) and 16 B fewer each
# relay→root (768 B); values and message counts unchanged.  Re-recorded
# for wire version 4 (a local's synopses are its n + 1 slice boundaries
# after local size and gamma): 48 synopses in 12 sections, 12·n − 12 B
# fewer a synopsis frame (432 B each local→root or local→relay) and
# 12·n − 8 B fewer a relay section (480 B relay→root); candidates, values
# and message counts unchanged.  Stream → local re-recorded for the
# last-batch watermark (a window's sealing watermark rides its last batch,
# none rides the phase's last batch): 8 streams × 3 windows, one 40-byte
# watermark frame fewer a stream (320 B, 8 messages); every uplink layer,
# the values and the wire version unchanged.
# ----------------------------------------------------------------------

GOLDEN_VALUES = [34.952524624106594, 35.08097862671282, 54.22207658633975]

GOLDEN = {
    "flat": (
        dict(n_shards=1, relay_fanin=0),
        {"local_root": 13340, "stream_local": 50176},
        {"local_root": 49, "stream_local": 56},
    ),
    "sharded": (
        dict(n_shards=2, relay_fanin=0),
        {"local_root": 13516, "stream_local": 50176},
        {"local_root": 53, "stream_local": 56},
    ),
    "relayed": (
        dict(n_shards=2, relay_fanin=2),
        {"local_relay": 13340, "relay_root": 13439, "stream_local": 50176},
        {"local_relay": 49, "relay_root": 28, "stream_local": 56},
    ),
}


@pytest.mark.parametrize("topology", sorted(GOLDEN))
def test_golden_wire(topology):
    shape, golden_bytes, golden_messages = GOLDEN[topology]
    streams = workload_columns(
        [1, 2, 3, 4], GeneratorConfig(event_rate=200.0, duration_s=3.0, seed=5)
    )
    config = LiveClusterConfig(
        n_locals=4,
        streams_per_local=2,
        query=QuantileQuery(q=0.5, gamma=64),
        transport="memory",
        **shape,
    )
    with hard_timeout(120):
        report = run_live(config, streams)
    assert isinstance(report, ClusterReport)
    assert report.values == GOLDEN_VALUES
    assert report.bytes_by_layer == golden_bytes
    assert report.messages_by_layer == golden_messages


# ----------------------------------------------------------------------
# The relay must not decide "complete" from who has connected so far.
# ----------------------------------------------------------------------


def test_no_relay_flushes_before_its_siblings_are_wired():
    """One event per local on tcp, sixteen locals behind four relays:
    every relay's synopsis frame must carry all four children.  When
    eligibility meant "connected", a child that reported while its
    siblings were still dialing was forwarded alone and the other three
    rode the flush deadline — 12 of 16 sections combined, one
    ``relay_flush_s`` of wall."""
    n_locals = 16
    streams = {
        local_id: share[:1]
        for local_id, share in workload_columns(
            range(1, n_locals + 1),
            GeneratorConfig(event_rate=100.0, duration_s=1.0, seed=42),
        ).items()
    }
    config = MeshConfig(
        n_locals=n_locals,
        n_shards=2,
        relay_fanin=4,
        query=QuantileQuery(q=0.5, gamma=100),
        transport="tcp",
        relay_flush_s=5.0,
        timeout_s=60.0,
    )
    with hard_timeout(120):
        started = time.perf_counter()
        report = run_mesh(config, streams)
        wall = time.perf_counter() - started
    assert report.values[0] is not None
    assert report.relay_sections_combined == n_locals
    assert wall < 2.5  # nowhere near the 5 s flush deadline


# ----------------------------------------------------------------------
# Telemetry is one plane, whatever the topology.
# ----------------------------------------------------------------------

#: Sampler off in tests: its samples depend on host load.
TELEMETRY = TelemetryConfig(sampler_interval_s=0.0)


def _streams(n_locals):
    return workload(
        list(range(1, n_locals + 1)),
        GeneratorConfig(event_rate=150.0, duration_s=3.0, seed=31),
    )


def test_sharded_relayed_run_traces_stream_batches_and_serves_summary():
    tracer = RecordingTracer()
    config = MeshConfig(
        n_locals=4,
        n_shards=2,
        relay_fanin=2,
        query=QuantileQuery(q=0.5, gamma=64),
        telemetry=TELEMETRY,
    )
    with hard_timeout(120):
        report = run_mesh(config, _streams(4), tracer=tracer)
    batches = [s for s in tracer.spans if s.name == "live_stream_batch"]
    assert batches
    # Stream ids sit above every other id space: the timeline now starts
    # at the stream, not at the local.
    assert all(span.node_id > relay_node_id(0) for span in batches)
    assert report.telemetry["traced_live_spans"] >= len(batches)
    # The /summary document, exactly as the endpoint builds it.  The
    # run's streams are gone by now; the span digest is what is asserted.
    summary = _cluster_summary(
        transport="memory", expected_windows=report.windows, shards=(),
        tracer=tracer, dialed=(),
    )
    nodes = {entry["node"] for entry in summary["nodes"]}
    assert {shard_node_id(0), shard_node_id(1)} <= nodes
    assert {1, 2, 3, 4} <= nodes
    # Relays host no operator, so they report through the fleet view.
    fleet = report.telemetry["fleet"]
    assert {relay_node_id(0), relay_node_id(1)} <= set(fleet["senders"])
    assert len(fleet["relays"]) == 2


def test_a_window_answered_on_two_shards_is_one_answered_window():
    """A race on a takeover boundary can answer one window on the dead
    shard and on its successor (identically): ``/summary`` counts it once,
    as the report keeps one outcome for it."""
    window = Window(0, 1000)
    outcome = WindowOutcome(window, 1.0, 4, 0.0, 0, 0, 0, 64)
    shards = [
        SimpleNamespace(node=SimpleNamespace(outcomes=[outcome]))
        for _ in range(2)
    ]
    summary = _cluster_summary(
        transport="memory", expected_windows=1, shards=shards,
        tracer=RecordingTracer(), dialed=(),
    )
    assert summary["windows_done"] == 1


def test_summary_and_fleet_are_both_served_mid_run():
    """Both documents from one run, scraped while it serves, on a
    topology that is neither "flat" nor the fleet smoke's."""
    import json
    import queue
    import threading
    import urllib.request

    ports: "queue.Queue[int]" = queue.Queue()
    config = MeshConfig(
        n_locals=4,
        n_shards=2,
        relay_fanin=2,
        query=QuantileQuery(q=0.5, gamma=64),
        time_scale=0.5,
        telemetry=TelemetryConfig(
            http_port=0, announce=ports.put, sampler_interval_s=0.05
        ),
    )
    outcome: dict = {}

    def runner():
        try:
            outcome["report"] = run_mesh(config, _streams(4))
        except BaseException as exc:
            outcome["error"] = exc

    def get(port, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10.0
        ) as response:
            return json.loads(response.read().decode("utf-8"))

    thread = threading.Thread(target=runner, daemon=True)
    with hard_timeout(120):
        thread.start()
        port = ports.get(timeout=30.0)
        roots = {shard_node_id(0), shard_node_id(1)}
        while True:  # until a window has reached a root (or the run ends)
            summary = get(port, "/summary")
            fleet = get(port, "/fleet")
            if roots & {entry["node"] for entry in summary["nodes"]}:
                break
            time.sleep(0.05)
        thread.join(timeout=60.0)
    assert "error" not in outcome, outcome.get("error")
    assert {link["layer"] for link in summary["links"]} == {
        "stream_local", "local_relay", "relay_root",
    }
    assert [shard["node_id"] for shard in fleet["shards"]] == [
        shard_node_id(0), shard_node_id(1),
    ]
    assert len(fleet["relays"]) == 2


def test_flat_run_serves_a_fleet_document():
    config = LiveClusterConfig(
        n_locals=2,
        streams_per_local=2,
        query=QuantileQuery(q=0.5, gamma=64),
        telemetry=TELEMETRY,
    )
    with hard_timeout(120):
        on = run_live(config, _streams(2))
        off = run_live(
            LiveClusterConfig(
                n_locals=2,
                streams_per_local=2,
                query=QuantileQuery(q=0.5, gamma=64),
            ),
            _streams(2),
        )
    fleet = on.telemetry["fleet"]
    assert fleet["digest_count"] > 0
    assert {1, 2, shard_node_id(0)} <= set(fleet["senders"])
    merged = fleet["metrics"]["seal_to_result_s"]
    assert merged["count"] == on.seal_to_result.count > 0
    # Off means off: no report, and telemetry never moves a value.
    assert off.telemetry == {}
    assert off.values == on.values


# ----------------------------------------------------------------------
# Adaptive gamma: per-root state, so one shard takes it.
# ----------------------------------------------------------------------


def test_adaptive_gamma_on_one_shard_still_equals_the_oracle():
    query = QuantileQuery(q=0.5, gamma=8, adaptive=True)
    streams = _streams(3)
    config = MeshConfig(n_locals=3, n_shards=1, query=query)
    with hard_timeout(120):
        report = run_mesh(config, streams)
    truth = {
        outcome.window: outcome.value
        for outcome in DemaEngine(
            QuantileQuery(q=0.5, gamma=8), TopologyConfig(n_local_nodes=3)
        ).run(streams).outcomes
    }
    # Gamma only moves how many candidates travel, never the answer.
    assert len(truth) >= 3
    assert {o.window: o.value for o in report.outcomes} == truth
