"""Hot-path microbenchmarks: the perf-regression harness.

Every PR is supposed to make a hot path measurably faster (ROADMAP north
star); this module is the ruler.  It times the five paths a live event
actually crosses — local ingest + sort, window cut + γ-slicing, t-digest
merging, wire codec round trips, and the end-to-end live cluster — and
writes ``BENCH_hotpath.json`` with the numbers next to the committed
pre-optimization baseline, so a regression shows up as an artifact diff
*and* as a nonzero exit from ``python -m repro perf --smoke``.

Benchmark boundaries are chosen to stay comparable across refactors:

``ingest_columnar``
    N shuffled events through :class:`SortedLocalWindow` (add_all of
    512-event batches + seal), i.e. everything between "batch arrives"
    and "sorted run exists", regardless of where an implementation
    chooses to pay the sort.
``cut_slice``
    γ-slicing an already sorted run into synopses.
``tdigest_merge``
    Root-style :meth:`TDigest.merge_all` over pre-built digests.
``codec_columnar``
    ``encode_frame`` + ``decode_frame`` of full event batches.
``live``
    The live asyncio cluster, same configuration as ``BENCH_live.json``.

All rates are events (or merges) per second of wall clock, best of
``repeats`` runs so background noise biases every comparison the same
direction (down).
"""

from __future__ import annotations

import gc
import json
import platform
import random
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable

from repro.core.slicing import slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow
from repro.network.messages import EventBatchMessage
from repro.runtime.codec import decode_frame, encode_frame
from repro.sketches.tdigest import TDigest
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event
from repro.streaming.windows import Window

__all__ = [
    "DEFAULT_HOTPATH_PATH",
    "FULL",
    "SMOKE",
    "HotpathConfig",
    "REGRESSION_TOLERANCE",
    "baseline_key",
    "check_regressions",
    "run_hotpath",
    "write_hotpath",
]

DEFAULT_HOTPATH_PATH = "BENCH_hotpath.json"

#: A current metric may fall this far below its committed baseline before
#: the smoke check fails the build (machines differ; optimizations should
#: clear the pre-optimization numbers by far more than this).
REGRESSION_TOLERANCE = 0.25


@dataclass(frozen=True)
class HotpathConfig:
    """Sizes for one harness run; ``SMOKE`` shrinks them for CI."""

    ingest_events: int = 200_000
    slice_events: int = 200_000
    gamma: int = 100
    merge_digests: int = 200
    merge_values_per_digest: int = 1_000
    codec_batch: int = 512
    codec_rounds: int = 200
    live_rate: float = 20_000.0
    live_duration_s: float = 3.0
    live_transport: str = "tcp"
    repeats: int = 3
    seed: int = 42


FULL = HotpathConfig()

#: CI-sized configuration.  Only the expensive end-to-end live benchmark
#: is shrunk; the microbenchmarks keep their full sizes because they cost
#: seconds anyway and sub-millisecond timed regions are too noisy to gate
#: a build on (a 20k-event slice pass varies 2× run to run; the 200k one
#: is stable within a few percent).
SMOKE = HotpathConfig(
    live_rate=4_000.0,
    live_duration_s=2.0,
    repeats=2,
)


def _best_of(fn: Callable[[], int], repeats: int) -> float:
    """Best observed rate over ``repeats`` runs of ``fn``.

    ``fn`` performs one full benchmark run and returns the number of items
    it processed; the rate is items per wall second.

    Garbage left behind by *earlier* benchmarks must not be collected
    inside a later benchmark's timed region (it halves the measured rate
    of the sub-millisecond ones), so each run collects first and then
    times with the collector disabled — the same hygiene :mod:`timeit`
    applies.
    """
    best = 0.0
    for _ in range(max(1, repeats)):
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            items = fn()
            elapsed = time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()
        if elapsed > 0:
            best = max(best, items / elapsed)
    return best


def _shuffled_events(n: int, seed: int) -> list[Event]:
    rng = random.Random(f"hotpath:{seed}")
    return [
        Event(value=rng.random() * 1000.0, timestamp=i % 1000,
              node_id=1, seq=i)
        for i in range(n)
    ]


def bench_cut_slice(config: HotpathConfig) -> float:
    """Events/s through γ-slicing of an already sorted run."""
    events = SortedLocalWindow(
        EventColumns.from_events(
            _shuffled_events(config.slice_events, config.seed + 1)
        )
    ).seal()

    def run() -> int:
        slice_sorted_events(events, config.gamma, node_id=1)
        return len(events)

    return _best_of(run, config.repeats)


def bench_tdigest_merge(config: HotpathConfig) -> float:
    """Digest merges/s through TDigest.merge_all (root-side aggregation)."""
    rng = random.Random(f"hotpath-digest:{config.seed}")
    digests = []
    for _ in range(config.merge_digests):
        digest = TDigest()
        digest.add_all(
            rng.random() * 100.0
            for _ in range(config.merge_values_per_digest)
        )
        digest.centroids()  # flush buffers outside the timed region
        digests.append(digest)

    def run() -> int:
        TDigest.merge_all(digests)
        return len(digests)

    return _best_of(run, config.repeats)


def bench_ingest_columnar(config: HotpathConfig) -> float:
    """Events/s through batch ingest (add_all + seal on arrays), fed the
    way the live path feeds it: batches of :class:`EventColumns`."""
    events = EventColumns.from_events(
        _shuffled_events(config.ingest_events, config.seed)
    )
    batch = max(1, config.codec_batch)
    chunks = [events[i:i + batch] for i in range(0, len(events), batch)]

    def run() -> int:
        window = SortedLocalWindow()
        for chunk in chunks:
            window.add_all(chunk)
        window.seal()
        return len(events)

    return _best_of(run, config.repeats)


def bench_codec_columnar(config: HotpathConfig) -> float:
    """Events/s through encode_frame + decode_frame of full event batches
    (no object materialization on either side)."""
    events = EventColumns.from_events(
        _shuffled_events(config.codec_batch, config.seed + 2)
    )
    message = EventBatchMessage(
        sender=1, window=Window(0, 1000), events=events
    )

    def run() -> int:
        for _ in range(config.codec_rounds):
            decode_frame(encode_frame(message))
        return config.codec_rounds * len(events)

    return _best_of(run, config.repeats)


def bench_live(config: HotpathConfig) -> float:
    """Events/s through the live asyncio cluster (BENCH_live configuration)."""
    from repro.bench.live import live_benchmark

    best = 0.0
    for _ in range(max(1, min(2, config.repeats))):
        _, report = live_benchmark(
            rate=config.live_rate,
            duration_s=config.live_duration_s,
            transport=config.live_transport,
            seed=config.seed,
        )
        best = max(best, report.events_per_second)
    return best


#: Metric name → benchmark callable; iteration order is report order.
BENCHMARKS: dict[str, Callable[[HotpathConfig], float]] = {
    "ingest_columnar_events_per_s": bench_ingest_columnar,
    "cut_slice_events_per_s": bench_cut_slice,
    "tdigest_merges_per_s": bench_tdigest_merge,
    "codec_columnar_events_per_s": bench_codec_columnar,
    "live_events_per_s": bench_live,
}


def run_hotpath(
    config: HotpathConfig = FULL,
    *,
    include_live: bool = True,
    progress: Callable[[str, float], None] | None = None,
) -> dict[str, float]:
    """Run every hot-path benchmark; returns metric name → rate."""
    metrics: dict[str, float] = {}
    for name, bench in BENCHMARKS.items():
        if name == "live_events_per_s" and not include_live:
            continue
        rate = bench(config)
        metrics[name] = rate
        if progress is not None:
            progress(name, rate)
    return metrics


def check_regressions(
    current: dict[str, float],
    baseline: dict[str, float],
    *,
    tolerance: float = REGRESSION_TOLERANCE,
) -> list[str]:
    """Metrics that regressed more than ``tolerance`` below ``baseline``.

    Metrics missing from either side are skipped — a new benchmark must
    not fail the build before its baseline lands.
    """
    failures = []
    for name, reference in baseline.items():
        measured = current.get(name)
        if measured is None or reference <= 0:
            continue
        if measured < (1.0 - tolerance) * reference:
            failures.append(
                f"{name}: {measured:,.0f}/s is "
                f"{1.0 - measured / reference:.1%} below the committed "
                f"baseline {reference:,.0f}/s (tolerance {tolerance:.0%})"
            )
    return failures


def load_artifact(path: str) -> dict[str, Any] | None:
    """Read a previously written ``BENCH_hotpath.json``; ``None`` if absent."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def baseline_key(mode: str) -> str:
    """The artifact key holding ``mode``'s committed baseline numbers.

    Smoke runs shrink the live benchmark, so their numbers live under
    ``baseline_smoke`` and are only ever compared against smoke runs;
    full runs compare against ``baseline``.  Comparing across modes is
    exactly the bug this split exists to prevent.
    """
    return "baseline_smoke" if mode == "smoke" else "baseline"


def write_hotpath(
    path: str,
    config: HotpathConfig,
    current: dict[str, float],
    baselines: "dict[str, dict[str, float]] | None",
    *,
    mode: str = "full",
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Write the benchmark artifact; returns the written dict.

    ``baselines`` maps artifact key (``"baseline"``, ``"baseline_smoke"``)
    to that mode's committed pre-optimization numbers.  **Both** keys are
    always written back, so a smoke run can never clobber the full-mode
    baseline (or vice versa); ``speedup`` is current/baseline against the
    *running* mode's own baseline only.
    """
    baselines = baselines or {}
    own = baselines.get(baseline_key(mode)) or {}
    payload: dict[str, Any] = {
        "benchmark": "hotpath",
        "mode": mode,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "config": asdict(config),
        "baseline": baselines.get("baseline") or {},
        "baseline_smoke": baselines.get("baseline_smoke") or {},
        "current": current,
        "speedup": {
            name: current[name] / own[name]
            for name in current
            if own.get(name)
        },
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def smoke_config() -> HotpathConfig:
    """The CI-sized configuration (exported for tests)."""
    return replace(SMOKE)
