"""Fleet amortization benchmark: digest uplink vs. raw-sample shipping.

The fleet plane's byte claim is the paper's claim in miniature: a node
that summarizes its latency samples into a t-digest and uplinks the
centroids ships a small, bounded number of bytes per interval, while a
node that ships every raw sample pays linearly in sample volume.  This
benchmark measures both sides with the *real* wire messages — the digest
side runs actual :class:`~repro.obs.fleet.uplink.TelemetryUplink`
instances and sums the built frames' ``wire_bytes``; the raw side
charges the identical framing (header, metric name, count prefix) with
f64 samples in place of centroids.  ``repro fleet`` prints the curve and
exits nonzero when a point costs more than 10% of raw shipping.
"""

from __future__ import annotations

import random
from typing import Any

from repro.runtime import wire
from repro.obs.fleet.uplink import TelemetryUplink
from repro.streaming.windows import CONTROL_WINDOW

__all__ = ["fleet_benchmark"]

#: Locals-curve points; 100 is the acceptance point (digest ≤ 10% raw).
DEFAULT_CURVE = (10, 50, 100)

#: Metrics every node uplinks, mirroring the live mesh wiring.
DEFAULT_METRICS = (
    "seal_to_result_s",
    "event_loop_lag_s",
    "relay_flush_delay_s",
)


def _raw_frame_bytes(metric: str, n_samples: int) -> int:
    """Wire bytes to ship ``n_samples`` raw f64 samples of one metric.

    Charged with the same framing as a ``TelemetryDigestMessage`` —
    32-byte header, length-prefixed metric name, u64 sequence, u32
    count — so the comparison isolates payload encoding (samples vs.
    centroids), not framing overhead.
    """
    return (
        wire.MESSAGE_HEADER_BYTES
        + wire.COUNT_BYTES
        + len(metric.encode("utf-8"))
        + wire.U64_BYTES
        + wire.COUNT_BYTES
        + n_samples * wire.F64_BYTES
    )


def fleet_benchmark(
    *,
    curve: "tuple[int, ...]" = DEFAULT_CURVE,
    metrics: "tuple[str, ...]" = DEFAULT_METRICS,
    samples_per_round: int = 2000,
    rounds: int = 5,
    seed: int = 42,
) -> "dict[str, Any]":
    """Measure digest-uplink vs. raw-sample bytes along the locals curve.

    Each simulated node observes ``samples_per_round`` log-normal latency
    samples per metric per uplink round (a realistic heavy-tailed shape),
    then uplinks.  Digest bytes are summed from the actual built frames;
    raw bytes assume every sample is shipped under identical framing.
    """
    rng = random.Random(seed)
    points: "list[dict[str, Any]]" = []
    for n_locals in curve:
        digest_bytes = 0
        raw_bytes = 0
        total_samples = 0
        for node in range(1, n_locals + 1):
            uplink = TelemetryUplink(node)
            uplink.set_stat("events_ingested", 0.0)
            for _ in range(rounds):
                for metric in metrics:
                    for _ in range(samples_per_round):
                        uplink.observe(metric, rng.lognormvariate(-4.0, 1.0))
                    raw_bytes += _raw_frame_bytes(metric, samples_per_round)
                    total_samples += samples_per_round
                digest_bytes += sum(
                    frame.wire_bytes for frame in uplink.build(CONTROL_WINDOW)
                )
        points.append({
            "n_locals": n_locals,
            "samples": total_samples,
            "digest_uplink_bytes": digest_bytes,
            "raw_sample_bytes": raw_bytes,
            "digest_fraction_of_raw": digest_bytes / raw_bytes,
            "savings": 1.0 - digest_bytes / raw_bytes,
        })
    return {
        "config": {
            "metrics": list(metrics),
            "samples_per_round": samples_per_round,
            "rounds": rounds,
            "seed": seed,
        },
        "curve": points,
    }
