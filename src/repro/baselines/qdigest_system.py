"""q-digest baseline: the sensor-network sketch as a full system.

Shrivastava et al.'s q-digest is the second approximate competitor the
paper cites (Section 5).  Local nodes quantize values into a fixed integer
universe, maintain per-window q-digests, and ship the compressed tree
nodes; the root merges digests node-wise and answers with bounded rank
error.  Compared to the t-digest system it trades a coarser value grid for
deterministic worst-case error guarantees.
"""

from __future__ import annotations

from repro.network.messages import QDigestMessage
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window
from repro.sketches.qdigest import QDigest
from repro.baselines.base import Summary

__all__ = ["QDigestSummary", "DEFAULT_VALUE_RANGE"]

#: Value range quantized into the integer universe.  The synthetic DEBS
#: generator produces values in roughly [0, 2·mean·scale]; the range
#: covers scale rates up to 10 with headroom.
DEFAULT_VALUE_RANGE = (0.0, 1_000.0)

#: Tree depth: 2^14 buckets over the value range.
DEFAULT_DEPTH = 14

#: Compression factor k (digest size ~ 3k nodes).
DEFAULT_K = 256

_LOW, _HIGH = DEFAULT_VALUE_RANGE
_BUCKETS = (1 << DEFAULT_DEPTH) - 1


def _bucket(value: float) -> int:
    clamped = min(max(value, _LOW), _HIGH)
    return int((clamped - _LOW) / (_HIGH - _LOW) * _BUCKETS)


class QDigestSummary(Summary):
    """A local window as a q-digest over quantized values; the root
    merges the digests node-wise."""

    message = QDigestMessage
    span = "digest_merge"
    ops_per_event = 6.0
    #: Abstract CPU ops per tree node, paid to ship and again to merge.
    ops_per_item = 8.0

    def new(self, node_id: int) -> QDigest:
        return QDigest(DEFAULT_K, DEFAULT_DEPTH)

    def fold(self, state: QDigest, rows: EventColumns) -> float:
        state.add_all(map(_bucket, rows.values.tolist()))
        return 0.0

    def ship(self, state: QDigest, sender: int, window: Window):
        nodes = state.to_node_tuples()
        message = QDigestMessage(
            sender=sender, window=window, nodes=nodes, local_count=state.n
        )
        return message, self.ops_per_item * len(nodes)

    def merge(self, messages: list):
        merged = QDigest(DEFAULT_K, DEFAULT_DEPTH)
        for incoming in messages:
            if incoming.nodes:
                merged.merge(
                    QDigest.from_node_tuples(
                        incoming.nodes, DEFAULT_K, DEFAULT_DEPTH
                    )
                )
        nodes = sum(len(m.nodes) for m in messages)
        value = None
        if merged.n:
            bucket = merged.quantile(self.q)
            value = _LOW + bucket / _BUCKETS * (_HIGH - _LOW)
        return value, merged.n, self.ops_per_item * nodes, {"nodes": nodes}
