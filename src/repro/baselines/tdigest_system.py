"""t-digest baseline: decentralized approximate aggregation.

Local nodes fold their window's events into a t-digest and ship only the
centroids; the root merges the digests and answers the quantile from the
merged sketch.  Network cost is tiny and constant in the window size, CPU
cost per event is low — which is why the paper expects Tdigest to beat even
Dema on throughput — but the answer is approximate (Fig. 7b).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import AggregationError
from repro.network.messages import DigestMessage, EventBatchMessage, Message
from repro.network.simulator import INGEST_OPS, SimulatedNode, receive_ops
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window
from repro.core.query import QuantileQuery
from repro.sketches.tdigest import DEFAULT_COMPRESSION, TDigest
from repro.baselines.base import BaselineRootMixin, bucket_by_window

__all__ = ["TDigestLocalNode", "TDigestRootNode"]

#: Abstract CPU ops per event folded into a digest (buffered insert plus an
#: amortized share of the periodic compression pass).
_DIGEST_OPS_PER_EVENT = 8.0

#: Abstract CPU ops per centroid when merging digests at the root.
_MERGE_OPS_PER_CENTROID = 16.0


class TDigestLocalNode(SimulatedNode):
    """Local operator: digests each window, ships centroids at window end."""

    def __init__(
        self,
        node_id: int,
        *,
        root_id: int,
        query: QuantileQuery,
        ops_per_second: float = 1e8,
        compression: float = DEFAULT_COMPRESSION,
    ) -> None:
        super().__init__(node_id, ops_per_second=ops_per_second)
        self._root_id = root_id
        self._query = query
        self._assigner = query.assigner()
        self._compression = compression
        self._open: dict[Window, TDigest] = {}
        self._counts: dict[Window, int] = {}
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

    def ingest(self, events: EventColumns, now: float) -> float:
        """Fold the batch into the owning window's digest."""
        groups, late = bucket_by_window(
            events, self._assigner.length, self._completed
        )
        self._late_events += late
        for window, rows in groups:
            digest = self._open.get(window)
            if digest is None:
                digest = TDigest(self._compression)
                self._open[window] = digest
                self._counts[window] = 0
            digest.add_all(rows.values.tolist())
            self._counts[window] += len(rows)
        self._events_ingested += len(events)
        ops = (INGEST_OPS + _DIGEST_OPS_PER_EVENT) * len(events)
        return self.work(ops, now)

    def on_window_complete(self, window: Window, now: float) -> None:
        """Serialize the window's digest and ship it upstream."""
        if window in self._completed:
            return
        self._completed.add(window)
        digest = self._open.pop(window, None)
        self._counts.pop(window, None)
        centroids = digest.to_centroid_tuples() if digest is not None else ()
        finish = self.work(_MERGE_OPS_PER_CENTROID * len(centroids), now)
        message = DigestMessage(
            sender=self.node_id,
            window=window,
            centroids=centroids,
            # Ship the exact extremes: tail centroid means sit inside the
            # data range, so without these the root's extreme quantiles
            # flatten toward the tail means.
            minimum=digest.min if centroids else 0.0,
            maximum=digest.max if centroids else 0.0,
        )
        self.send(message, self._root_id, finish)

    def on_message(self, message: Message, now: float) -> None:
        if isinstance(message, EventBatchMessage):
            finish = self.work(receive_ops(message.payload_bytes), now)
            self.ingest(message.events, finish)
            return
        raise AggregationError(
            f"t-digest local node received unexpected {type(message).__name__}"
        )


class TDigestRootNode(SimulatedNode, BaselineRootMixin):
    """Root operator: merges per-node digests and answers approximately."""

    def __init__(
        self,
        node_id: int,
        *,
        local_ids: Sequence[int],
        query: QuantileQuery,
        ops_per_second: float = 2e8,
        compression: float = DEFAULT_COMPRESSION,
    ) -> None:
        SimulatedNode.__init__(self, node_id, ops_per_second=ops_per_second)
        BaselineRootMixin.__init__(self)
        self._local_ids = tuple(local_ids)
        self._query = query
        self._compression = compression
        self._digests: dict[Window, dict[int, DigestMessage]] = {}

    @property
    def open_windows(self) -> int:
        """Windows still awaiting digests."""
        return len(self._digests)

    def on_message(self, message: Message, now: float) -> None:
        """Collect one digest per local node, then merge and answer."""
        if not isinstance(message, DigestMessage):
            raise AggregationError(
                f"t-digest root received unexpected {type(message).__name__}"
            )
        self.work(receive_ops(message.payload_bytes), now)
        digests = self._digests.setdefault(message.window, {})
        if message.sender in digests:
            raise AggregationError(
                f"duplicate digest from node {message.sender} for window "
                f"{message.window}"
            )
        digests[message.sender] = message
        if len(digests) == len(self._local_ids):
            self._close(message.window, now)

    def _close(self, window: Window, now: float) -> None:
        messages = self._digests.pop(window)
        total_centroids = sum(len(m.centroids) for m in messages.values())
        merged = TDigest(self._compression)
        for incoming in messages.values():
            if incoming.centroids:
                merged.merge(
                    TDigest.from_centroid_tuples(
                        incoming.centroids,
                        self._compression,
                        minimum=incoming.minimum,
                        maximum=incoming.maximum,
                    )
                )
        finish = self.work(_MERGE_OPS_PER_CENTROID * total_centroids, now)
        if self._tracer.enabled:
            self._tracer.record(
                "digest_merge",
                self.node_id,
                now,
                finish,
                window=window,
                centroids=total_centroids,
            )
        if merged.count == 0:
            self._emit(window, None, 0, finish)
            return
        value = merged.quantile(self._query.q)
        self._emit(window, value, int(merged.count), finish)
