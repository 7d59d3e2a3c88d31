"""Throughput-vs-locals scaling curve for the live cluster.

The mesh work (ROADMAP item 1) scales the cluster *out* and the columnar
work (item 3) scales each node *up*; this curve is where both are
measured together.  It replays the same aggregate workload through
clusters of increasing local-node counts and records the wall-clock
events/second of each point, so a change that speeds one node but
serializes the fan-in (or vice versa) is visible as a bent curve rather
than a single lucky number.

Written as ``BENCH_scaling.json`` by ``python -m repro perf --curve``
and uploaded by the CI perf job next to ``BENCH_hotpath.json``.
"""

from __future__ import annotations

import json
import platform
import sys
from typing import Any, Callable, Sequence

from repro.bench.live import live_benchmark

__all__ = [
    "DEFAULT_SCALING_PATH",
    "FULL_LOCALS",
    "SMOKE_LOCALS",
    "scaling_curve",
    "write_scaling",
]

DEFAULT_SCALING_PATH = "BENCH_scaling.json"

#: Local-node counts measured by a full curve.
FULL_LOCALS = (1, 2, 4, 8)

#: CI-sized curve: fewer and smaller points.
SMOKE_LOCALS = (1, 2, 4)


def scaling_curve(
    *,
    locals_counts: Sequence[int] = FULL_LOCALS,
    rate: float = 20_000.0,
    duration_s: float = 3.0,
    transport: str = "tcp",
    streams_per_local: int = 2,
    seed: int = 42,
    progress: "Callable[[int, float], None] | None" = None,
) -> list[dict[str, Any]]:
    """One curve point per entry of ``locals_counts``.

    ``rate`` is the *aggregate* event rate, held constant across points —
    every cluster size moves the same total workload, so the curve shows
    how adding locals redistributes a fixed load rather than growing it.
    """
    points: list[dict[str, Any]] = []
    for n_locals in locals_counts:
        config, report = live_benchmark(
            n_locals=n_locals,
            streams_per_local=streams_per_local,
            rate=rate,
            duration_s=duration_s,
            transport=transport,
            seed=seed,
        )
        point = {
            "n_locals": n_locals,
            "streams_per_local": streams_per_local,
            "events_sent": report.events_sent,
            "wall_seconds": report.wall_seconds,
            "events_per_second": report.events_per_second,
            "windows": report.windows,
            "total_bytes": report.total_bytes,
        }
        points.append(point)
        if progress is not None:
            progress(n_locals, report.events_per_second)
    return points


def write_scaling(
    path: str,
    points: list[dict[str, Any]],
    *,
    mode: str = "full",
    transport: str = "tcp",
    rate: float = 20_000.0,
) -> dict[str, Any]:
    """Write the curve artifact; returns the written dict."""
    payload: dict[str, Any] = {
        "benchmark": "scaling_curve",
        "mode": mode,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "config": {
            "transport": transport,
            "aggregate_rate": rate,
        },
        "points": points,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
