"""Scotty-style centralized aggregation baseline.

Scotty's general stream slicing cannot pre-aggregate non-decomposable
functions, so for quantiles it degenerates to centralized aggregation: local
nodes forward every raw event to the root as it arrives, and the root sorts
the complete global window when it closes (the paper notes Scotty matches
native Flink for single-window processing).  This system is also the exact
ground truth of the accuracy experiment (Fig. 7b).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import AggregationError
from repro.network.messages import (
    EventBatchMessage,
    Message,
    WatermarkMessage,
)
from repro.network.simulator import (
    INGEST_OPS,
    SimulatedNode,
    receive_ops,
    sort_cost,
)
from repro.streaming.aggregates import quantile_rank
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window
from repro.core.query import QuantileQuery
from repro.core.sorted_window import SortedLocalWindow
from repro.baselines.base import BaselineRootMixin, bucket_by_window

__all__ = ["ScottyLocalNode", "ScottyRootNode"]


class ScottyLocalNode(SimulatedNode):
    """Local operator that forwards raw events immediately."""

    def __init__(
        self,
        node_id: int,
        *,
        root_id: int,
        query: QuantileQuery,
        ops_per_second: float = 1e8,
    ) -> None:
        super().__init__(node_id, ops_per_second=ops_per_second)
        self._root_id = root_id
        self._query = query
        self._assigner = query.assigner()
        self._events_ingested = 0

    @property
    def events_ingested(self) -> int:
        """Raw events accepted so far."""
        return self._events_ingested

    def ingest(self, events: EventColumns, now: float) -> float:
        """Forward the batch upstream unchanged."""
        self._events_ingested += len(events)
        finish = self.work(INGEST_OPS * len(events), now)
        if len(events):
            # The window tag is advisory; the root files each event by its
            # own timestamp, so mixed-window batches are fine.
            window = self._assigner.assign(events.timestamp_at(0))[0]
            message = EventBatchMessage(
                sender=self.node_id, window=window, events=events
            )
            self.send(message, self._root_id, finish)
        return finish

    def on_window_complete(self, window: Window, now: float) -> None:
        """Announce event-time progress so the root can close the window."""
        self.send(
            WatermarkMessage(
                sender=self.node_id, window=window, watermark_time=window.end
            ),
            self._root_id,
            now,
        )

    def on_message(self, message: Message, now: float) -> None:
        if isinstance(message, EventBatchMessage):
            finish = self.work(receive_ops(message.payload_bytes), now)
            self.ingest(message.events, finish)
            return
        raise AggregationError(
            f"Scotty local node received unexpected {type(message).__name__}"
        )


class ScottyRootNode(SimulatedNode, BaselineRootMixin):
    """Root operator: buffers all raw events, sorts, selects the quantile."""

    def __init__(
        self,
        node_id: int,
        *,
        local_ids: Sequence[int],
        query: QuantileQuery,
        ops_per_second: float = 2e8,
    ) -> None:
        SimulatedNode.__init__(self, node_id, ops_per_second=ops_per_second)
        BaselineRootMixin.__init__(self)
        self._local_ids = tuple(local_ids)
        self._query = query
        self._assigner = query.assigner()
        self._buffers: dict[Window, SortedLocalWindow] = {}
        self._watermarks: dict[Window, set[int]] = {}
        self._closed: set[Window] = set()
        self._late_events = 0

    @property
    def open_windows(self) -> int:
        """Windows still awaiting events or watermarks."""
        return len(self._watermarks) + sum(
            1 for w in self._buffers if w not in self._watermarks
        )

    @property
    def late_events(self) -> int:
        """Events dropped because their window had already closed."""
        return self._late_events

    def on_message(self, message: Message, now: float) -> None:
        """Buffer raw events; close windows once all locals reported.

        Events are filed by their own event-time windows — the batch's
        window tag is advisory, so batches may mix windows (out-of-order
        streams).
        """
        if isinstance(message, EventBatchMessage):
            ops = receive_ops(message.payload_bytes)
            ops += INGEST_OPS * len(message.events)
            self.work(ops, now)
            groups, late = bucket_by_window(
                message.events, self._assigner.length, self._closed
            )
            self._late_events += late
            for window, rows in groups:
                self._buffers.setdefault(
                    window, SortedLocalWindow()
                ).add_all(rows)
        elif isinstance(message, WatermarkMessage):
            seen = self._watermarks.setdefault(message.window, set())
            seen.add(message.sender)
            if len(seen) == len(self._local_ids):
                self._close(message.window, now)
        else:
            raise AggregationError(
                f"Scotty root received unexpected {type(message).__name__}"
            )

    def _close(self, window: Window, now: float) -> None:
        self._watermarks.pop(window, None)
        self._closed.add(window)
        events = self._buffers.pop(window, None)
        if events is None:
            self._emit(window, None, 0, now)
            return
        finish = self.work(sort_cost(len(events)), now)
        if self._tracer.enabled:
            self._tracer.record(
                "sort",
                self.node_id,
                now,
                finish,
                window=window,
                events=len(events),
            )
        ordered = events.seal()
        rank = quantile_rank(self._query.q, len(ordered))
        self._emit(window, float(ordered[rank - 1]), len(ordered), finish)
