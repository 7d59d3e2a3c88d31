"""Desis baseline: decentralized sorting, centralized merge.

Desis performs partial aggregation at the edge for decomposable functions;
for quantiles the paper's authors modified it so that local nodes sort their
windows and the root merges the pre-sorted runs.  Every event still
crosses the wire, but only as its value: the root reads nothing else, so a
run ships 8 bytes an event where centralized aggregation ships the 20-byte
tuple.  The root replaces an O(n log n) sort with an O(n log r) merge over
r runs, and the sorting cost moves to the edge.
"""

from __future__ import annotations

import math
from operator import attrgetter

from repro.network.messages import SortedRunMessage
from repro.network.simulator import merge_cost
from repro.streaming.aggregates import quantile_rank
from repro.streaming.columns import EventColumns, select_rank
from repro.streaming.windows import Window
from repro.core.sorted_window import SortedLocalWindow
from repro.baselines.base import Summary

# Hot-path module: windows are sorted as ``EventColumns`` and shipped and
# rank-selected as value runs — no per-event ``Event`` objects (enforced
# by tests/test_hotpath_lint.py).

__all__ = ["DesisSummary"]


class DesisSummary(Summary):
    """A local window as one sorted value run; the root selects the
    quantile from the runs, stacked in sender order."""

    message = SortedRunMessage
    span = "merge"

    def new(self, node_id: int) -> SortedLocalWindow:
        return SortedLocalWindow()

    def fold(self, state: SortedLocalWindow, rows: EventColumns) -> float:
        # Sorting is incremental, so the per-event insertion cost is
        # charged here — the same model as Dema's local node.
        state.add_all(rows)
        return len(rows) * math.log2(max(len(state), 2))

    def ship(self, state: SortedLocalWindow, sender: int, window: Window):
        return SortedRunMessage(
            sender=sender, window=window,
            events=state.seal(),
        ), None

    def merge(self, messages: list):
        # Sender order is key order among tied values, as for Dema's runs.
        runs = [
            m.events for m in sorted(messages, key=attrgetter("sender"))
            if len(m.events)
        ]
        total = sum(len(run) for run in runs)
        if total == 0:
            return None, 0, None, {}
        rank = quantile_rank(self.q, total)
        selected = select_rank(runs, rank)
        ops = merge_cost(total, len(runs))
        return selected, total, ops, {"events": total, "runs": len(runs)}
