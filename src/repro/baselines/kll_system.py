"""KLL baseline: the DataSketches-style mergeable sketch as a full system.

KLL (Karnin-Lang-Liberty) is the quantile sketch production systems reach
for today (Apache DataSketches); it slots into the same decentralized
pattern as the t-digest baseline: local nodes sketch their windows, ship
``(value, weight)`` pairs, and the root merges sketches and answers with a
provable normalized-rank-error bound.  Its serialized form rides in a
:class:`~repro.network.messages.DigestMessage` — the pairs are 16 bytes
each, exactly like centroids.
"""

from __future__ import annotations

from repro.network.messages import DigestMessage
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window
from repro.sketches.kll import KllSketch
from repro.baselines.base import Summary

__all__ = ["KllSummary", "DEFAULT_K"]

#: Accuracy parameter; ~0.9 % normalized rank error.
DEFAULT_K = 200


class KllSummary(Summary):
    """A local window as a KLL sketch's weighted items (each local seeds
    its sketch with its node id); the root merges them."""

    message = DigestMessage
    span = "digest_merge"
    #: Append plus an amortized share of compaction.
    ops_per_event = 6.0
    #: Abstract CPU ops per retained item, paid to ship and again to merge.
    ops_per_item = 12.0

    def new(self, node_id: int) -> KllSketch:
        return KllSketch(DEFAULT_K, seed=node_id)

    def fold(self, state: KllSketch, rows: EventColumns) -> float:
        state.add_all(rows.values.tolist())
        return 0.0

    def ship(self, state: KllSketch, sender: int, window: Window):
        pairs = state.to_weighted_tuples()
        message = DigestMessage(
            sender=sender,
            window=window,
            centroids=tuple((value, float(weight)) for value, weight in pairs),
            # Compaction may have dropped the extreme points from the
            # retained items; ship the sketch's exact extremes so the
            # root's q→0/q→1 answers stay exact.
            minimum=state.min if pairs else 0.0,
            maximum=state.max if pairs else 0.0,
        )
        return message, self.ops_per_item * len(pairs)

    def merge(self, messages: list):
        merged = KllSketch(DEFAULT_K, seed=0)
        for incoming in messages:
            if incoming.centroids:
                merged.merge(
                    KllSketch.from_weighted_tuples(
                        tuple(
                            (value, int(weight))
                            for value, weight in incoming.centroids
                        ),
                        k=DEFAULT_K,
                        minimum=incoming.minimum,
                        maximum=incoming.maximum,
                    )
                )
        items = sum(len(m.centroids) for m in messages)
        value = merged.quantile(self.q) if merged.count else None
        return value, merged.count, self.ops_per_item * items, {"items": items}
