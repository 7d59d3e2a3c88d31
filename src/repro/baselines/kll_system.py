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

from typing import Sequence

from repro.errors import AggregationError
from repro.network.messages import DigestMessage, EventBatchMessage, Message
from repro.network.simulator import INGEST_OPS, SimulatedNode, receive_ops
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window
from repro.core.query import QuantileQuery
from repro.sketches.kll import KllSketch
from repro.baselines.base import BaselineRootMixin, bucket_by_window

__all__ = ["KllLocalNode", "KllRootNode", "DEFAULT_K"]

#: Default accuracy parameter; ~0.9 % normalized rank error.
DEFAULT_K = 200

#: Abstract CPU ops per event folded into a KLL sketch (append plus an
#: amortized share of compaction).
_SKETCH_OPS_PER_EVENT = 6.0

#: Abstract CPU ops per retained item during root-side merging.
_MERGE_OPS_PER_ITEM = 12.0


class KllLocalNode(SimulatedNode):
    """Local operator: sketches each window, ships weighted items."""

    def __init__(
        self,
        node_id: int,
        *,
        root_id: int,
        query: QuantileQuery,
        ops_per_second: float = 1e8,
        k: int = DEFAULT_K,
    ) -> None:
        super().__init__(node_id, ops_per_second=ops_per_second)
        self._root_id = root_id
        self._query = query
        self._assigner = query.assigner()
        self._k = k
        self._open: dict[Window, KllSketch] = {}
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
        """Fold the batch into the owning window's sketch."""
        groups, late = bucket_by_window(
            events, self._assigner.length, self._completed
        )
        self._late_events += late
        for window, rows in groups:
            sketch = self._open.get(window)
            if sketch is None:
                sketch = KllSketch(self._k, seed=self.node_id)
                self._open[window] = sketch
            sketch.add_all(rows.values.tolist())
        self._events_ingested += len(events)
        ops = (INGEST_OPS + _SKETCH_OPS_PER_EVENT) * len(events)
        return self.work(ops, now)

    def on_window_complete(self, window: Window, now: float) -> None:
        """Serialize the window's sketch and ship it upstream."""
        if window in self._completed:
            return
        self._completed.add(window)
        sketch = self._open.pop(window, None)
        pairs = sketch.to_weighted_tuples() if sketch is not None else ()
        finish = self.work(_MERGE_OPS_PER_ITEM * len(pairs), now)
        message = DigestMessage(
            sender=self.node_id,
            window=window,
            centroids=tuple((value, float(weight)) for value, weight in pairs),
            # Compaction may have dropped the extreme points from the
            # retained items; ship the sketch's exact extremes so the
            # root's q→0/q→1 answers stay exact.
            minimum=sketch.min if pairs else 0.0,
            maximum=sketch.max if pairs else 0.0,
        )
        self.send(message, self._root_id, finish)

    def on_message(self, message: Message, now: float) -> None:
        if isinstance(message, EventBatchMessage):
            finish = self.work(receive_ops(message.payload_bytes), now)
            self.ingest(message.events, finish)
            return
        raise AggregationError(
            f"KLL local node received unexpected {type(message).__name__}"
        )


class KllRootNode(SimulatedNode, BaselineRootMixin):
    """Root operator: merges per-node KLL sketches and answers."""

    def __init__(
        self,
        node_id: int,
        *,
        local_ids: Sequence[int],
        query: QuantileQuery,
        ops_per_second: float = 2e8,
        k: int = DEFAULT_K,
    ) -> None:
        SimulatedNode.__init__(self, node_id, ops_per_second=ops_per_second)
        BaselineRootMixin.__init__(self)
        self._local_ids = tuple(local_ids)
        self._query = query
        self._k = k
        self._sketches: dict[Window, dict[int, DigestMessage]] = {}

    @property
    def open_windows(self) -> int:
        """Windows still awaiting sketches."""
        return len(self._sketches)

    def on_message(self, message: Message, now: float) -> None:
        """Collect one sketch per local node, then merge and answer."""
        if not isinstance(message, DigestMessage):
            raise AggregationError(
                f"KLL root received unexpected {type(message).__name__}"
            )
        self.work(receive_ops(message.payload_bytes), now)
        sketches = self._sketches.setdefault(message.window, {})
        if message.sender in sketches:
            raise AggregationError(
                f"duplicate KLL sketch from node {message.sender} for "
                f"window {message.window}"
            )
        sketches[message.sender] = message
        if len(sketches) == len(self._local_ids):
            self._close(message.window, now)

    def _close(self, window: Window, now: float) -> None:
        messages = self._sketches.pop(window)
        total_items = sum(len(m.centroids) for m in messages.values())
        merged = KllSketch(self._k, seed=0)
        for incoming in messages.values():
            if incoming.centroids:
                merged.merge(
                    KllSketch.from_weighted_tuples(
                        tuple(
                            (value, int(weight))
                            for value, weight in incoming.centroids
                        ),
                        k=self._k,
                        minimum=incoming.minimum,
                        maximum=incoming.maximum,
                    )
                )
        finish = self.work(_MERGE_OPS_PER_ITEM * total_items, now)
        if self._tracer.enabled:
            self._tracer.record(
                "digest_merge",
                self.node_id,
                now,
                finish,
                window=window,
                items=total_items,
            )
        if merged.count == 0:
            self._emit(window, None, 0, finish)
            return
        self._emit(window, merged.quantile(self._query.q), merged.count, finish)
