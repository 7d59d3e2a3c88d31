"""Shared-slice sliding windows: sealed pane runs, one sort per window.

Overlapping sliding windows share events; re-sorting every window from
scratch sorts every shared event once per *slide*.  For a non-decomposable
function the partial that overlapping windows can share is the **sorted
pane run**: events are bucketed into fixed panes of ``gcd(length, step)``
ms, each pane is sorted exactly once, and a window's run is one sort of
the concatenation of its panes' runs.  Because the total order
:func:`~repro.streaming.events.event_key` is strict (no two events compare
equal) that is the byte-identical sequence a full sort of the window gives
(property-tested in ``tests/queries``).  There is no merge tree over the
runs: on columns merging two sorted runs *is* a sort of their
concatenation, so each node of a tree would re-sort its inputs
(docs/queries.md has the measurements).

Two pieces:

* :class:`PaneStore` — columnar batches split by ``timestamp // pane_ms``
  into one :class:`~repro.core.sorted_window.SortedLocalWindow` per pane,
  sealed exactly once into a cached sorted run.  Stores are shared across
  every query group with the same (selector, pane length), so one ingest
  sort serves all of them.
* :class:`SlidingRunAggregator` — a group's FIFO of sealed pane runs;
  ``query()`` returns the current window's full sorted run.
"""

from __future__ import annotations

from collections import deque

from repro.core.sorted_window import SortedLocalWindow
from repro.errors import QueryError
from repro.streaming.columns import (
    EMPTY_EVENTS,
    EventColumns,
    concat_columns,
    merge_runs,
)

# Hot-path module: panes, pane runs and window runs are ``EventColumns``
# from ingest to the slicer; no per-event object is built and no batch is
# iterated here (enforced by tests/test_hotpath_lint.py).

__all__ = ["PaneStore", "SlidingRunAggregator"]


class PaneStore:
    """Fixed panes of sorted events, sealed once, shared across groups.

    A pane is the half-open interval ``[k * pane_ms, (k+1) * pane_ms)``.
    Ingest hands each pane its rows of the batch unconverted (no per-event
    work); :meth:`sealed_run` sorts the pane exactly once and caches the
    run, so every window overlapping the pane reuses the same sorted
    slice.  Rows arriving for a pane that is already sealed or pruned are
    counted and dropped — on the live path the min-watermark seal
    guarantee makes this impossible, but the store is also a direct API
    for tests.
    """

    def __init__(self, pane_ms: int) -> None:
        if pane_ms <= 0:
            raise QueryError(f"pane length must be > 0 ms, got {pane_ms}")
        self._pane_ms = pane_ms
        self._open: dict[int, SortedLocalWindow] = {}
        self._sealed: dict[int, EventColumns] = {}
        #: Start of the oldest pane not yet pruned; everything below it is
        #: gone for good (a pruned pane was sealed or will never be read).
        self._floor = 0
        #: Rows (not calls) that arrived for a pane already sealed or
        #: pruned — late beyond the watermark guarantee — and were dropped.
        self.late_dropped = 0

    @property
    def pane_ms(self) -> int:
        """Pane length in event-time milliseconds."""
        return self._pane_ms

    def pane_start(self, timestamp: int) -> int:
        """The start of the pane containing ``timestamp``."""
        return (timestamp // self._pane_ms) * self._pane_ms

    def add(self, batch: EventColumns) -> None:
        """Ingest a batch, splitting its rows over the panes they fall in."""
        for start, rows in batch.by_window(self._pane_ms):
            self._add_rows(start, rows)

    def _add_rows(self, start: int, rows: EventColumns) -> None:
        if start < self._floor or start in self._sealed:
            self.late_dropped += len(rows)
            return
        pane = self._open.get(start)
        if pane is None:
            pane = self._open[start] = SortedLocalWindow()
        pane.add_all(rows)

    def sealed_run(self, start: int) -> EventColumns:
        """The pane's sorted run; seals (sorts) the pane on first call."""
        run = self._sealed.get(start)
        if run is None:
            pane = self._open.pop(start, None)
            run = EMPTY_EVENTS if pane is None else pane.seal()
            self._sealed[start] = run
        return run

    def prune_before(self, timestamp: int) -> None:
        """Drop every pane entirely before ``timestamp``, for good."""
        self._floor = max(self._floor, self.pane_start(timestamp))
        for panes in (self._open, self._sealed):
            for start in [s for s in panes if s < self._floor]:
                del panes[start]


class SlidingRunAggregator:
    """A group's sliding window as a FIFO of sealed pane runs.

    :meth:`push` admits the newest pane, :meth:`evict` retires the oldest,
    and :meth:`query` returns everything in between as one sorted run.
    Sliding costs O(panes entering + leaving) bookkeeping; the sort itself
    is paid once per window, over runs each pane sorted once.
    """

    def __init__(self) -> None:
        #: ``(pane start, sealed run)`` of the panes in the window, oldest
        #: first.
        self._panes: deque[tuple[int, EventColumns]] = deque()

    def __len__(self) -> int:
        return len(self._panes)

    @property
    def covered(self) -> "tuple[int, ...]":
        """Pane starts currently aggregated, oldest first."""
        return tuple(start for start, _ in self._panes)

    def push(self, pane_start: int, run: EventColumns) -> None:
        """Admit the next pane's sorted run (panes must arrive in order)."""
        if self._panes and pane_start <= self._panes[-1][0]:
            raise QueryError(
                f"panes must be pushed in ascending order; got {pane_start} "
                f"after {self._panes[-1][0]}"
            )
        self._panes.append((pane_start, run))

    def evict(self) -> None:
        """Retire the oldest pane still in the window."""
        if not self._panes:
            raise QueryError("cannot evict from an empty aggregator")
        self._panes.popleft()

    def query(self) -> EventColumns:
        """The current window's full sorted run."""
        runs = [run for _, run in self._panes if len(run)]
        stacked = concat_columns(runs)
        # A lone pane's run is already the window's run.
        return stacked if len(runs) <= 1 else merge_runs(None, stacked)
