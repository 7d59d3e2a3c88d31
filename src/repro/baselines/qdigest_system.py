"""q-digest baseline: the sensor-network sketch as a full system.

Shrivastava et al.'s q-digest is the second approximate competitor the
paper cites (Section 5).  Local nodes quantize values into a fixed integer
universe, maintain per-window q-digests, and ship the compressed tree
nodes; the root merges digests node-wise and answers with bounded rank
error.  Compared to the t-digest system it trades a coarser value grid for
deterministic worst-case error guarantees.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import AggregationError
from repro.network.messages import EventBatchMessage, Message, QDigestMessage
from repro.network.simulator import INGEST_OPS, SimulatedNode, receive_ops
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window
from repro.core.query import QuantileQuery
from repro.sketches.qdigest import QDigest
from repro.baselines.base import BaselineRootMixin, bucket_by_window

__all__ = ["QDigestLocalNode", "QDigestRootNode", "DEFAULT_VALUE_RANGE"]

#: Value range quantized into the integer universe.  The synthetic DEBS
#: generator produces values in roughly [0, 2·mean·scale]; the default
#: covers scale rates up to 10 with headroom.
DEFAULT_VALUE_RANGE = (0.0, 1_000.0)

#: Tree depth: 2^14 buckets over the value range.
DEFAULT_DEPTH = 14

#: Compression factor k (digest size ~ 3k nodes).
DEFAULT_K = 256

#: Abstract CPU ops per event folded into a q-digest.
_DIGEST_OPS_PER_EVENT = 6.0

#: Abstract CPU ops per tree node during merge/compress at the root.
_MERGE_OPS_PER_NODE = 8.0


class QDigestLocalNode(SimulatedNode):
    """Local operator: quantizes events into per-window q-digests."""

    def __init__(
        self,
        node_id: int,
        *,
        root_id: int,
        query: QuantileQuery,
        ops_per_second: float = 1e8,
        k: int = DEFAULT_K,
        depth: int = DEFAULT_DEPTH,
        value_range: tuple[float, float] = DEFAULT_VALUE_RANGE,
    ) -> None:
        super().__init__(node_id, ops_per_second=ops_per_second)
        self._root_id = root_id
        self._query = query
        self._assigner = query.assigner()
        self._k = k
        self._depth = depth
        self._low, self._high = value_range
        self._buckets = (1 << depth) - 1
        self._open: dict[Window, QDigest] = {}
        self._completed: set[Window] = set()
        self._events_ingested = 0
        self._late_events = 0

    @property
    def events_ingested(self) -> int:
        """Raw events accepted so far."""
        return self._events_ingested

    @property
    def late_events(self) -> int:
        """Events dropped because their window had already shipped."""
        return self._late_events

    def _bucket(self, value: float) -> int:
        clamped = min(max(value, self._low), self._high)
        span = self._high - self._low
        return int((clamped - self._low) / span * self._buckets)

    def ingest(self, events: EventColumns, now: float) -> float:
        """Quantize and fold the batch into the owning window's digest."""
        groups, late = bucket_by_window(
            events, self._assigner.length, self._completed
        )
        self._late_events += late
        for window, rows in groups:
            digest = self._open.get(window)
            if digest is None:
                digest = QDigest(self._k, self._depth)
                self._open[window] = digest
            digest.add_all(map(self._bucket, rows.values.tolist()))
        self._events_ingested += len(events)
        ops = (INGEST_OPS + _DIGEST_OPS_PER_EVENT) * len(events)
        return self.work(ops, now)

    def on_window_complete(self, window: Window, now: float) -> None:
        """Serialize the window's digest and ship it upstream."""
        if window in self._completed:
            return
        self._completed.add(window)
        digest = self._open.pop(window, None)
        nodes = digest.to_node_tuples() if digest is not None else ()
        count = digest.n if digest is not None else 0
        finish = self.work(_MERGE_OPS_PER_NODE * len(nodes), now)
        message = QDigestMessage(
            sender=self.node_id, window=window, nodes=nodes, local_count=count
        )
        self.send(message, self._root_id, finish)

    def on_message(self, message: Message, now: float) -> None:
        if isinstance(message, EventBatchMessage):
            finish = self.work(receive_ops(message.payload_bytes), now)
            self.ingest(message.events, finish)
            return
        raise AggregationError(
            f"q-digest local node received unexpected {type(message).__name__}"
        )


class QDigestRootNode(SimulatedNode, BaselineRootMixin):
    """Root operator: merges q-digests and answers within the error bound."""

    def __init__(
        self,
        node_id: int,
        *,
        local_ids: Sequence[int],
        query: QuantileQuery,
        ops_per_second: float = 2e8,
        k: int = DEFAULT_K,
        depth: int = DEFAULT_DEPTH,
        value_range: tuple[float, float] = DEFAULT_VALUE_RANGE,
    ) -> None:
        SimulatedNode.__init__(self, node_id, ops_per_second=ops_per_second)
        BaselineRootMixin.__init__(self)
        self._local_ids = tuple(local_ids)
        self._query = query
        self._k = k
        self._depth = depth
        self._low, self._high = value_range
        self._buckets = (1 << depth) - 1
        self._digests: dict[Window, dict[int, QDigestMessage]] = {}

    @property
    def open_windows(self) -> int:
        """Windows still awaiting digests."""
        return len(self._digests)

    def on_message(self, message: Message, now: float) -> None:
        """Collect one digest per local node, then merge and answer."""
        if not isinstance(message, QDigestMessage):
            raise AggregationError(
                f"q-digest root received unexpected {type(message).__name__}"
            )
        self.work(receive_ops(message.payload_bytes), now)
        digests = self._digests.setdefault(message.window, {})
        if message.sender in digests:
            raise AggregationError(
                f"duplicate q-digest from node {message.sender} for window "
                f"{message.window}"
            )
        digests[message.sender] = message
        if len(digests) == len(self._local_ids):
            self._close(message.window, now)

    def _close(self, window: Window, now: float) -> None:
        messages = self._digests.pop(window)
        total_nodes = sum(len(m.nodes) for m in messages.values())
        merged = QDigest(self._k, self._depth)
        for incoming in messages.values():
            if incoming.nodes:
                merged.merge(
                    QDigest.from_node_tuples(
                        incoming.nodes, self._k, self._depth
                    )
                )
        finish = self.work(_MERGE_OPS_PER_NODE * total_nodes, now)
        if self._tracer.enabled:
            self._tracer.record(
                "digest_merge",
                self.node_id,
                now,
                finish,
                window=window,
                nodes=total_nodes,
            )
        if merged.n == 0:
            self._emit(window, None, 0, finish)
            return
        bucket = merged.quantile(self._query.q)
        span = self._high - self._low
        value = self._low + bucket / self._buckets * span
        self._emit(window, value, merged.n, finish)
