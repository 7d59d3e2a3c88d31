"""An approximate sketch versus exact Dema: the accuracy/network trade-off.

The paper evaluates Dema against the t-digest.  The sketch ships a tiny
summary but answers approximately; Dema ships slightly more (synopses plus
candidate events) and answers exactly.  This example quantifies that
trade-off on one dataset.

Run with::

    python examples/approximate_vs_exact.py
"""

import random

from repro import TDigest, dema_quantile, exact_quantile, make_events
from repro.bench.reporting import format_bytes, format_table
from repro.streaming.events import EVENT_WIRE_BYTES


def main() -> None:
    rng = random.Random(2025)
    per_node = 40_000
    readings = {
        1: [rng.lognormvariate(3.0, 0.6) for _ in range(per_node)],
        2: [rng.lognormvariate(3.2, 0.5) for _ in range(per_node)],
    }
    all_values = [v for values in readings.values() for v in values]
    q = 0.95
    truth = exact_quantile(all_values, q)

    # --- Dema: exact, ships synopses + candidates ---------------------
    windows = {
        node_id: make_events(values, node_id=node_id)
        for node_id, values in readings.items()
    }
    dema = dema_quantile(windows, q=q, gamma=400)
    dema_bytes = dema.transfer_events * EVENT_WIRE_BYTES

    # --- t-digest: approximate, ships centroids ------------------------
    digests = []
    for values in readings.values():
        digest = TDigest(100)
        digest.add_all(values)
        digests.append(digest)
    merged = TDigest.merge_all(digests)
    tdigest_value = merged.quantile(q)
    tdigest_bytes = sum(len(d.to_centroid_tuples()) * 16 for d in digests)

    def error(value: float) -> str:
        relative = abs(value - truth) / truth
        return "exact" if relative == 0 else f"{relative:.3%}"

    rows = [
        ["dema", f"{dema.value:9.3f}", error(dema.value),
         format_bytes(dema_bytes)],
        ["t-digest", f"{tdigest_value:9.3f}", error(tdigest_value),
         format_bytes(tdigest_bytes)],
    ]
    print(f"95th percentile over {len(all_values):,} readings "
          f"(ground truth {truth:.3f})")
    print(format_table(["method", "answer", "error", "bytes shipped"], rows))
    print()
    print("The sketch ships the least but drifts from the truth; Dema pays a")
    print("small, bounded premium in bytes for a bit-exact answer.")


if __name__ == "__main__":
    main()
