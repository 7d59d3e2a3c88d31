"""Desis baseline: decentralized sorting, centralized merge.

Desis performs partial aggregation at the edge for decomposable functions;
for quantiles the paper's authors modified it so that local nodes sort their
windows and the root merges the pre-sorted runs.  Network cost equals
centralized aggregation — every event still crosses the wire — but the root
replaces an O(n log n) sort with an O(n log r) merge over r runs, and the
sorting cost moves to the edge.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import AggregationError
from repro.network.messages import EventBatchMessage, Message, SortedRunMessage
from repro.network.simulator import (
    INGEST_OPS,
    SimulatedNode,
    merge_cost,
    receive_ops,
)
from repro.streaming.aggregates import quantile_rank
from repro.streaming.columns import EventColumns, select_rank
from repro.streaming.windows import Window
from repro.core.calculation import merge_candidate_runs
from repro.core.query import QuantileQuery
from repro.core.sorted_window import SortedLocalWindow
from repro.baselines.base import BaselineRootMixin, bucket_by_window

# Hot-path module: windows are sorted, shipped and rank-selected as
# ``EventColumns`` — no per-event ``Event`` objects (enforced by
# tests/test_hotpath_lint.py).

__all__ = ["DesisLocalNode", "DesisRootNode"]


class DesisLocalNode(SimulatedNode):
    """Local operator: incrementally sorts windows, ships full sorted runs."""

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
        self._open: dict[Window, SortedLocalWindow] = {}
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
        """Insert events into their window's sorted buffer.

        Sorting is incremental, so the per-event insertion cost is charged
        here — the same model as Dema's local node.
        """
        groups, late = bucket_by_window(
            events, self._assigner.length, self._completed
        )
        self._late_events += late
        insert_ops = 0.0
        for window, rows in groups:
            sorted_window = self._open.setdefault(window, SortedLocalWindow())
            sorted_window.add_all(rows)
            insert_ops += len(rows) * math.log2(max(len(sorted_window), 2))
        self._events_ingested += len(events)
        return self.work(INGEST_OPS * len(events) + insert_ops, now)

    def on_window_complete(self, window: Window, now: float) -> None:
        """Seal the window and ship the entire sorted run upstream."""
        if window in self._completed:
            return
        self._completed.add(window)
        sorted_window = self._open.pop(window, SortedLocalWindow())
        message = SortedRunMessage(
            sender=self.node_id, window=window, events=sorted_window.seal()
        )
        self.send(message, self._root_id, now)

    def on_message(self, message: Message, now: float) -> None:
        if isinstance(message, EventBatchMessage):
            finish = self.work(receive_ops(message.payload_bytes), now)
            self.ingest(message.events, finish)
            return
        raise AggregationError(
            f"Desis local node received unexpected {type(message).__name__}"
        )


class DesisRootNode(SimulatedNode, BaselineRootMixin):
    """Root operator: k-way merges sorted runs and selects the quantile."""

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
        self._runs: dict[Window, dict[int, EventColumns]] = {}

    @property
    def open_windows(self) -> int:
        """Windows still awaiting sorted runs."""
        return len(self._runs)

    def on_message(self, message: Message, now: float) -> None:
        """Collect one sorted run per local node, then merge and answer."""
        if not isinstance(message, SortedRunMessage):
            raise AggregationError(
                f"Desis root received unexpected {type(message).__name__}"
            )
        self.work(receive_ops(message.payload_bytes), now)
        runs = self._runs.setdefault(message.window, {})
        if message.sender in runs:
            raise AggregationError(
                f"duplicate sorted run from node {message.sender} for "
                f"window {message.window}"
            )
        runs[message.sender] = message.events
        if len(runs) == len(self._local_ids):
            self._close(message.window, now)

    def _close(self, window: Window, now: float) -> None:
        runs = self._runs.pop(window)
        total = sum(len(run) for run in runs.values())
        if total == 0:
            self._emit(window, None, 0, now)
            return
        non_empty = [run for run in runs.values() if len(run)]
        finish = self.work(merge_cost(total, len(non_empty)), now)
        if self._tracer.enabled:
            self._tracer.record(
                "merge",
                self.node_id,
                now,
                finish,
                window=window,
                events=total,
                runs=len(non_empty),
            )
        rank = quantile_rank(self._query.q, total)
        selected = select_rank(non_empty, rank)
        if selected is None:  # NaN values: the k-way merge owns their order
            selected = merge_candidate_runs(non_empty)[rank - 1]
        self._emit(window, selected.value, total, finish)
