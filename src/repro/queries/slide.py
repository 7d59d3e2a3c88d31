"""Shared-slice sliding windows: panes of arrived batches, one sort per window.

Overlapping sliding windows share events.  Events are bucketed into fixed
panes of ``gcd(length, step)`` ms, and a window is the panes it covers.  A
pane keeps its rows as the batches they arrived in and is never sorted on
its own: on columns, merging sorted runs *is* a sort of their
concatenation, so sorting each pane first would only add a sort.  A
window's run is one :func:`~repro.streaming.columns.sort_values` of its
panes' batches — the sorted value column a full sort of the window gives,
bit for bit (property-tested in ``tests/queries``; docs/queries.md has
the measurements).

Two pieces:

* :class:`PaneStore` — columnar batches split by ``timestamp // pane_ms``
  into one list of batches per pane, closed exactly once.  Stores are
  shared across every query group with the same (selector, pane length),
  so one ingest split serves all of them.
* :class:`SlidingRunAggregator` — a group's FIFO of closed panes;
  ``query()`` sorts the current window's values.
"""

from __future__ import annotations

from collections import deque

from repro.errors import QueryError
from repro.streaming.columns import EventColumns, sort_values

# Hot-path module: panes hold ``EventColumns`` batches from ingest to the
# window's sort; no per-event object is built and no batch is iterated
# here (enforced by tests/test_hotpath_lint.py).

__all__ = ["PaneStore", "SlidingRunAggregator"]


class PaneStore:
    """Fixed panes of arrived batches, closed once, shared across groups.

    A pane is the half-open interval ``[k * pane_ms, (k+1) * pane_ms)``.
    Ingest hands each pane its rows of the batch unconverted (no per-event
    work); :meth:`sealed_pane` closes the pane on first call and caches
    its batches, so every window overlapping the pane reads the same rows.
    Rows arriving for a pane that is already closed or pruned are counted
    and dropped — on the live path the min-watermark seal guarantee makes
    this impossible, but the store is also a direct API for tests.
    """

    def __init__(self, pane_ms: int) -> None:
        if pane_ms <= 0:
            raise QueryError(f"pane length must be > 0 ms, got {pane_ms}")
        self._pane_ms = pane_ms
        self._open: dict[int, list[EventColumns]] = {}
        self._sealed: dict[int, tuple[EventColumns, ...]] = {}
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
        self._open.setdefault(start, []).append(rows)

    def sealed_pane(self, start: int) -> tuple[EventColumns, ...]:
        """The pane's batches, in arrival order; closes the pane on first
        call."""
        pane = self._sealed.get(start)
        if pane is None:
            pane = self._sealed[start] = tuple(self._open.pop(start, ()))
        return pane

    def prune_before(self, timestamp: int) -> None:
        """Drop every pane entirely before ``timestamp``, for good."""
        self._floor = max(self._floor, self.pane_start(timestamp))
        for panes in (self._open, self._sealed):
            for start in [s for s in panes if s < self._floor]:
                del panes[start]


class SlidingRunAggregator:
    """A group's sliding window as a FIFO of closed panes.

    :meth:`push` admits the newest pane, :meth:`evict` retires the oldest,
    and :meth:`query` sorts everything in between into one value column.
    Sliding costs O(panes entering + leaving) bookkeeping; the sort is paid
    once per window.
    """

    def __init__(self) -> None:
        #: ``(pane start, pane batches)`` of the panes in the window,
        #: oldest first.
        self._panes: deque[tuple[int, tuple[EventColumns, ...]]] = deque()

    def __len__(self) -> int:
        return len(self._panes)

    @property
    def covered(self) -> "tuple[int, ...]":
        """Pane starts currently aggregated, oldest first."""
        return tuple(start for start, _ in self._panes)

    def push(self, pane_start: int, pane: tuple[EventColumns, ...]) -> None:
        """Admit the next pane's batches (panes must arrive in order)."""
        if self._panes and pane_start <= self._panes[-1][0]:
            raise QueryError(
                f"panes must be pushed in ascending order; got {pane_start} "
                f"after {self._panes[-1][0]}"
            )
        self._panes.append((pane_start, pane))

    def evict(self) -> None:
        """Retire the oldest pane still in the window."""
        if not self._panes:
            raise QueryError("cannot evict from an empty aggregator")
        self._panes.popleft()

    def query(self):
        """The current window's values in ascending key order.

        Raises:
            CodecError: If a value is NaN, naming its row.
        """
        return sort_values([rows for _, pane in self._panes for rows in pane])
