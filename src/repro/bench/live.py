"""Wall-clock benchmark of the live asyncio runtime.

Unlike every other benchmark in :mod:`repro.bench`, which measures a
*simulated* clock, this one measures the real one: how many events per
second the live cluster actually moves through real serialization and a
real transport, and how long a sealed window takes to come back as a
quantile.  The result is written as ``BENCH_live.json`` so regressions in
the runtime path show up as artifact diffs.
"""

from __future__ import annotations

import json
import platform
import sys
from typing import Any

from repro.bench.generator import GeneratorConfig, workload_columns
from repro.core.query import QuantileQuery
from repro.network.metrics import LatencyStats
from repro.obs.live.config import TelemetryConfig
from repro.runtime.cluster import LiveClusterConfig, LiveRunReport, run_live

__all__ = ["live_benchmark", "write_live_bench", "DEFAULT_BENCH_PATH"]

DEFAULT_BENCH_PATH = "BENCH_live.json"


def _latency_dict(stats: LatencyStats) -> dict[str, float]:
    if stats.count == 0:
        return {"count": 0}
    return {
        "count": stats.count,
        "mean_ms": stats.mean * 1e3,
        "p50_ms": stats.p50 * 1e3,
        "p95_ms": stats.p95 * 1e3,
        "max_ms": stats.max * 1e3,
    }


def report_dict(
    config: LiveClusterConfig, report: LiveRunReport, *, seed: int
) -> dict[str, Any]:
    """JSON-serializable summary of one live run."""
    completed = [o for o in report.outcomes if o.value is not None]
    return {
        "benchmark": "live_runtime",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "config": {
            "n_locals": config.n_locals,
            "streams_per_local": config.streams_per_local,
            "transport": config.transport,
            "batch_size": config.batch_size,
            "time_scale": config.time_scale,
            "q": config.query.q,
            "gamma": config.query.gamma,
            "window_length_ms": config.query.window_length_ms,
            "seed": seed,
        },
        "windows": report.windows,
        "windows_with_results": len(completed),
        "events_sent": report.events_sent,
        "wall_seconds": report.wall_seconds,
        "events_per_second": report.events_per_second,
        "seal_to_result": _latency_dict(report.seal_to_result),
        "bytes_by_layer": report.bytes_by_layer,
        "messages_by_layer": report.messages_by_layer,
        "total_bytes": report.total_bytes,
        "reconnects": report.reconnects,
        "heartbeat_misses": report.heartbeat_misses,
        "degraded_windows": report.degraded_windows,
        "dropped_sends": report.dropped_sends,
        "telemetry": report.telemetry,
    }


def live_benchmark(
    *,
    n_locals: int = 2,
    streams_per_local: int = 2,
    rate: float = 20_000.0,
    duration_s: float = 3.0,
    transport: str = "tcp",
    time_scale: float = 0.0,
    gamma: int = 100,
    q: float = 0.5,
    seed: int = 42,
    telemetry: "TelemetryConfig | None" = None,
) -> tuple[LiveClusterConfig, LiveRunReport]:
    """Generate a workload, run the live cluster once, return both halves.

    ``rate`` is the target aggregate events/second: the generator produces
    ``rate / n_locals`` events per second of event time per local node, so
    a ``time_scale`` of 1.0 replays at exactly that wall-clock rate and
    0.0 measures the runtime's ceiling.  ``telemetry`` turns the live
    telemetry plane on for the benchmarked run; the report's
    ``telemetry`` section carries what it measured.
    """
    query = QuantileQuery(q=q, gamma=gamma)
    config = LiveClusterConfig(
        n_locals=n_locals,
        streams_per_local=streams_per_local,
        query=query,
        transport=transport,
        time_scale=time_scale,
        telemetry=telemetry,
    )
    streams = workload_columns(
        list(range(1, n_locals + 1)),
        GeneratorConfig(
            event_rate=max(1.0, rate / n_locals),
            duration_s=duration_s,
            seed=seed,
        ),
    )
    report = run_live(config, streams)
    return config, report


def write_live_bench(
    path: str, config: LiveClusterConfig, report: LiveRunReport, *, seed: int
) -> dict[str, Any]:
    """Write the benchmark artifact; returns the written dict."""
    payload = report_dict(config, report, seed=seed)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
