"""Batch-sorted local windows.

Dema "incrementally sorts arriving events into windows" (Section 3.1): when
the window ends, its events are already in key order, so slicing is a single
linear pass.  The implementation collects arriving :class:`EventColumns`
batches unconverted and pays for order exactly once, at the window cut:
compaction concatenates the batches and orders the rows via
:func:`repro.streaming.columns.merge_runs` — one unstable ``argsort`` of the
value column, ties repaired by ``(node_id, seq)``, one ``take`` of whole
records — and merges them into the run sorted so far.  That is O(n log n)
total, the same bound as per-event ``insort``, with O(1) ingest cost per
batch; the run *stays* columnar through :meth:`seal` into slicing.

:meth:`seal`, :meth:`sorted_events` and iteration yield the one sequence
``sorted(events, key=event_key)`` yields (the total-order key is strict, so
there is exactly one sorted permutation and no sort needs to be stable to
find it).  A NaN value has no rank: it is refused at the door, and a
wire-fed NaN is refused where it is first ordered — compaction, where
``merge_runs`` raises :class:`~repro.errors.CodecError` naming the row.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import SliceError
from repro.streaming.columns import (
    EMPTY_EVENTS,
    EventColumns,
    concat_columns,
    merge_runs,
)
from repro.streaming.events import Event

# Hot-path module: events stay columnar through compaction; ``Event``
# objects only materialize when a window is iterated, inside columns.py
# (enforced by tests/test_hotpath_lint.py).

__all__ = ["SortedLocalWindow"]


class SortedLocalWindow:
    """Events of one local window, kept sorted by total-order key."""

    __slots__ = ("_run", "_chunks", "_chunked", "_sealed")

    def __init__(self, events: EventColumns = EMPTY_EVENTS) -> None:
        self._run = EMPTY_EVENTS
        self._chunks: list[EventColumns] = []
        #: Events held in ``_chunks`` — ``len()`` runs once per ingested
        #: batch, so it must not walk the chunk list.
        self._chunked = 0
        self._sealed = False
        self.add_all(events)

    def __len__(self) -> int:
        return len(self._run) + self._chunked

    def __iter__(self) -> Iterator[Event]:
        """Iterate events in sorted order (compacts first)."""
        self._compact()
        return iter(self._run)

    @property
    def is_sealed(self) -> bool:
        """Whether the window has been closed to further inserts."""
        return self._sealed

    def add_all(self, events: EventColumns) -> None:
        """Insert a batch of events; ordering is deferred to the cut.

        Raises:
            SliceError: If the window was already sealed.
        """
        if self._sealed:
            raise SliceError("cannot add events to a sealed window")
        n = len(events)
        if n:
            self._chunks.append(events)
            self._chunked += n

    def seal(self) -> EventColumns:
        """Close the window and return its events in sorted order.

        Sealing is idempotent; the returned batch is immutable, an empty
        window's is the shared empty one.
        """
        self._compact()
        self._sealed = True
        return self._run

    def sorted_events(self) -> EventColumns:
        """The events in sorted order, as a snapshot.

        Returns the window's own compacted run without copying, so
        repeated mid-window cuts cost O(1) when nothing new arrived.
        """
        self._compact()
        return self._run

    def _compact(self) -> None:
        if self._chunks:
            pending = concat_columns(self._chunks)
            self._chunks, self._chunked = [], 0
            self._run = merge_runs(self._run, pending)
