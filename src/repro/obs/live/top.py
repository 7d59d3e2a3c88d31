"""``python -m repro top``: attach to a serving cluster and watch it.

A tiny text-mode client for the telemetry endpoint: fetches ``/summary``
(and liveness from ``/healthz``) over plain HTTP and renders a per-node
phase table plus per-link queue/stall figures, refreshing in place until
interrupted.  ``--once`` prints a single snapshot and exits — the mode CI
smoke-tests.

With no ``--port``, there is nothing to attach to, so ``top`` spawns a
small in-process demo cluster with telemetry enabled in a background
thread and watches that — a one-command way to see the plane working
(and a self-contained smoke test).

``--mesh`` switches the scrape target to ``/fleet`` and the rendering to
the mesh-wide fleet view: cluster percentiles merged from every node's
t-digest uplinks, per-shard and per-relay health, window completeness,
staleness and failover events.  The no-port demo then runs a small
sharded mesh instead of the flat cluster.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Callable, TextIO

__all__ = ["fetch_json", "render_summary", "render_fleet", "run_top"]


def fetch_json(
    host: str, port: int, path: str, timeout: float = 5.0
) -> dict:
    """GET ``http://host:port/path`` and parse the JSON body."""
    url = f"http://{host}:{port}{path}"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def render_summary(summary: dict) -> str:
    """One snapshot of the cluster as a fixed-width text dashboard."""
    lines = [
        "repro top — live cluster "
        f"[{summary.get('transport', '?')}] "
        f"windows {summary.get('windows_done', 0)}"
        f"/{summary.get('windows_expected', 0)}",
        "",
        f"{'NODE':>8}  {'PHASE':<22} {'COUNT':>7} {'SECONDS':>10}",
    ]
    for node in summary.get("nodes", []):
        node_id = node.get("node")
        phases = node.get("phases", {})
        if not phases:
            lines.append(f"{node_id:>8}  {'(no live spans yet)':<22}")
            continue
        first = True
        for name, entry in phases.items():
            label = f"{node_id:>8}" if first else f"{'':>8}"
            lines.append(
                f"{label}  {name:<22} {entry['count']:>7} "
                f"{entry['seconds']:>10.4f}"
            )
            first = False
    lines += [
        "",
        f"{'LINK':<14} {'SRC':>8} {'DST':>8} {'BACKLOG':>8} "
        f"{'STALL_S':>9} {'FR_SENT':>8} {'FR_RECV':>8}",
    ]
    for link in summary.get("links", []):
        lines.append(
            f"{link['layer']:<14} {link['src']:>8} {link['dst']:>8} "
            f"{link['send_backlog']:>8} {link['send_stall_s']:>9.4f} "
            f"{link['frames_sent']:>8} {link['frames_received']:>8}"
        )
    return "\n".join(lines)


def render_fleet(fleet: dict) -> str:
    """One snapshot of the mesh fleet view as a text dashboard."""
    windows = fleet.get("windows", {})
    lines = [
        "repro top — fleet "
        f"windows {windows.get('answered', 0)}"
        f"/{windows.get('expected', 0)} "
        f"(completeness {windows.get('completeness', 0.0):.2f}) "
        f"epoch {fleet.get('epoch', 0)}",
        f"telemetry: {fleet.get('frames', 0)} frames, "
        f"{fleet.get('bytes', 0)} bytes, "
        f"{fleet.get('digest_count', 0)} digests from "
        f"{len(fleet.get('senders', []))} nodes, "
        f"staleness {fleet.get('staleness_s', 0.0):.3f}s",
        "",
        f"{'METRIC':<24} {'COUNT':>8} {'P50':>12} {'P95':>12} {'P99':>12}",
    ]
    for metric, row in sorted(fleet.get("metrics", {}).items()):
        if row.get("count", 0.0) <= 0:
            lines.append(f"{metric:<24} {0:>8}")
            continue
        lines.append(
            f"{metric:<24} {int(row['count']):>8} "
            f"{row['p50']:>12.6f} {row['p95']:>12.6f} {row['p99']:>12.6f}"
        )
    lines += [
        "",
        f"{'SHARD':>6} {'LIVE':>5} {'ANSWERED':>9} {'EXPECTED':>9} "
        f"{'ADOPTED':>8} {'HB_MISS':>8}",
    ]
    for shard in fleet.get("shards", []):
        lines.append(
            f"{shard['index']:>6} {str(shard['live']):>5} "
            f"{shard['windows_answered']:>9} {shard['windows_expected']:>9} "
            f"{shard['windows_adopted']:>8} {shard['heartbeat_misses']:>8}"
        )
    if fleet.get("relays"):
        lines += [
            "",
            f"{'RELAY':>6} {'COMBINED':>9} {'SECTIONS':>9} "
            f"{'SINGLETON':>10} {'REPLAYED':>9}",
        ]
        for relay in fleet["relays"]:
            lines.append(
                f"{relay['index']:>6} {relay['frames_combined']:>9} "
                f"{relay['sections_combined']:>9} "
                f"{relay['singleton_forwards']:>10} "
                f"{relay['frames_replayed']:>9}"
            )
    for event in fleet.get("failovers", []):
        lines.append(
            f"failover: shard {event['dead']} -> {event['successor']} "
            f"at {event['at']:.3f}s (epoch {event['epoch']})"
        )
    return "\n".join(lines)


def _watch(
    host: str,
    port: int,
    *,
    interval_s: float,
    once: bool,
    out: TextIO,
    path: str = "/summary",
    render: "Callable[[dict], str]" = render_summary,
) -> int:
    while True:
        try:
            summary = fetch_json(host, port, path)
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            print(
                f"repro top: cannot fetch http://{host}:{port}{path}: "
                f"{exc}",
                file=sys.stderr,
            )
            return 1
        if not once:
            out.write("\x1b[2J\x1b[H")  # clear screen, home cursor
        out.write(render(summary) + "\n")
        out.flush()
        if once:
            return 0
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:
            return 0


def _demo(
    *, interval_s: float, once: bool, out: TextIO, mesh: bool = False
) -> int:
    """Spawn a small telemetry-enabled cluster in a thread and watch it."""
    import queue
    import threading

    # Imported here, not at module top: repro.obs.live must stay importable
    # without repro.runtime (the codec depends on the former).
    from repro.bench.generator import GeneratorConfig, workload
    from repro.core.query import QuantileQuery
    from repro.obs.live.config import TelemetryConfig

    if mesh:
        # Mesh replays are unpaced, so a demo run is over in well under
        # a refresh interval — scrape-while-running would race the run.
        # Run it to completion and render the final fleet view instead;
        # ``--port`` is the live-scrape path for a real serving mesh.
        from repro.mesh import MeshConfig, run_mesh

        config = MeshConfig(
            n_locals=4,
            n_shards=2,
            relay_fanin=2,
            query=QuantileQuery(q=0.9, window_length_ms=500, gamma=64),
            telemetry=TelemetryConfig(sampler_interval_s=0.01),
        )
        streams = workload(
            [1, 2, 3, 4],
            GeneratorConfig(event_rate=200.0, duration_s=2.0, seed=41),
        )
        print(
            "repro top: no --port given; running a demo mesh",
            file=sys.stderr,
        )
        report = run_mesh(config, streams)
        out.write(render_fleet(report.telemetry["fleet"]) + "\n")
        out.flush()
        return 0

    from repro.runtime.cluster import LiveClusterConfig, run_live

    ports: "queue.Queue[int]" = queue.Queue()
    config = LiveClusterConfig(
        n_locals=2,
        streams_per_local=2,
        query=QuantileQuery(q=0.9, window_length_ms=500, gamma=64),
        transport="memory",
        time_scale=1.0,  # pace the replay so there is something to watch
        telemetry=TelemetryConfig(http_port=0, announce=ports.put),
    )
    streams = workload(
        [1, 2], GeneratorConfig(event_rate=200.0, duration_s=2.0, seed=41)
    )
    print("repro top: no --port given; running a demo cluster", file=sys.stderr)
    runner = threading.Thread(
        target=run_live, args=(config, streams), daemon=True
    )
    runner.start()
    try:
        port = ports.get(timeout=10.0)
    except queue.Empty:
        print("repro top: demo cluster never came up", file=sys.stderr)
        return 1
    if once:
        # Give the demo a moment to produce spans worth printing.
        time.sleep(1.0)
        status = _watch(
            "127.0.0.1", port, interval_s=interval_s, once=True, out=out
        )
    else:
        status = 0
        while runner.is_alive():
            status = _watch(
                "127.0.0.1", port, interval_s=interval_s, once=True, out=out
            )
            if status != 0:
                break
            time.sleep(interval_s)
    runner.join(timeout=30.0)
    return status


def run_top(
    host: str = "127.0.0.1",
    port: int | None = None,
    *,
    interval_s: float = 1.0,
    once: bool = False,
    out: TextIO | None = None,
    mesh: bool = False,
) -> int:
    """Entry point behind ``python -m repro top``; returns an exit code."""
    out = out if out is not None else sys.stdout
    if port is None:
        return _demo(interval_s=interval_s, once=once, out=out, mesh=mesh)
    return _watch(
        host, port, interval_s=interval_s, once=once, out=out,
        path="/fleet" if mesh else "/summary",
        render=render_fleet if mesh else render_summary,
    )
