"""t-digest baseline: decentralized approximate aggregation.

Local nodes fold their window's events into a t-digest and ship only the
centroids; the root merges the digests and answers the quantile from the
merged sketch.  Network cost is tiny and constant in the window size, CPU
cost per event is low — which is why the paper expects Tdigest to beat even
Dema on throughput — but the answer is approximate (Fig. 7b).
"""

from __future__ import annotations

from repro.network.messages import DigestMessage
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window
from repro.sketches.tdigest import DEFAULT_COMPRESSION, TDigest
from repro.baselines.base import Summary

__all__ = ["TDigestSummary"]


class TDigestSummary(Summary):
    """A local window as a t-digest's centroids; the root merges them."""

    message = DigestMessage
    span = "digest_merge"
    #: Buffered insert plus an amortized share of the periodic compression.
    ops_per_event = 8.0
    #: Abstract CPU ops per centroid, paid to ship and again to merge.
    ops_per_item = 16.0

    def new(self, node_id: int) -> TDigest:
        return TDigest(DEFAULT_COMPRESSION)

    def fold(self, state: TDigest, rows: EventColumns) -> float:
        state.add_all(rows.values.tolist())
        return 0.0

    def ship(self, state: TDigest, sender: int, window: Window):
        centroids = state.to_centroid_tuples()
        message = DigestMessage(
            sender=sender,
            window=window,
            centroids=centroids,
            # Ship the exact extremes: tail centroid means sit inside the
            # data range, so without these the root's extreme quantiles
            # flatten toward the tail means.
            minimum=state.min if centroids else 0.0,
            maximum=state.max if centroids else 0.0,
        )
        return message, self.ops_per_item * len(centroids)

    def merge(self, messages: list):
        merged = TDigest(DEFAULT_COMPRESSION)
        for incoming in messages:
            if incoming.centroids:
                merged.merge(
                    TDigest.from_centroid_tuples(
                        incoming.centroids,
                        DEFAULT_COMPRESSION,
                        minimum=incoming.minimum,
                        maximum=incoming.maximum,
                    )
                )
        centroids = sum(len(m.centroids) for m in messages)
        value = merged.quantile(self.q) if merged.count else None
        ops = self.ops_per_item * centroids
        return value, int(merged.count), ops, {"centroids": centroids}
