"""Batch-sorted local windows.

Dema "incrementally sorts arriving events into windows" (Section 3.1): when
the window ends, its events are already in key order, so slicing is a single
linear pass.  Everything downstream of that sort — slice boundaries,
candidate runs, Desis' runs, Scotty's rank — reads only the values, so a
sealed window *is* its sorted value column.  The implementation collects
arriving :class:`EventColumns` batches unconverted and pays for order
exactly once, at the cut: :func:`repro.streaming.columns.sort_values`
copies the batches' value fields into one ``float64`` array and sorts it in
place.  That is O(n log n) total, the same bound as per-event ``insort``,
with O(1) ingest cost per batch.

:meth:`seal` returns the value column of the one sequence
``sorted(events, key=event_key)`` yields, bit for bit (the total-order key
is strict, and only a ``-0.0``/``0.0`` tie differs in bits; ``sort_values``
puts that tie in key order).  A NaN value has no rank: it is refused at the
door, and a wire-fed NaN is refused where it is first ordered — the seal,
where ``sort_values`` raises :class:`~repro.errors.CodecError` naming the
row.
"""

from __future__ import annotations

from repro.errors import SliceError
from repro.streaming.columns import EMPTY_EVENTS, EventColumns, sort_values

# Hot-path module: events stay columnar until the seal keeps only their
# values; no ``Event`` object is built here (enforced by
# tests/test_hotpath_lint.py).

__all__ = ["SortedLocalWindow"]


class SortedLocalWindow:
    """Events of one local window; sealing sorts their values once."""

    __slots__ = ("_chunks", "_size", "_sealed")

    def __init__(self, events: EventColumns = EMPTY_EVENTS) -> None:
        self._chunks: list[EventColumns] = []
        #: Events added — ``len()`` runs once per ingested batch, so it
        #: must not walk the chunk list.
        self._size = 0
        #: The sorted value column, once sealed.
        self._sealed = None
        self.add_all(events)

    def __len__(self) -> int:
        return self._size

    @property
    def is_sealed(self) -> bool:
        """Whether the window has been closed to further inserts."""
        return self._sealed is not None

    def add_all(self, events: EventColumns) -> None:
        """Insert a batch of events; ordering is deferred to the seal.

        Raises:
            SliceError: If the window was already sealed.
        """
        if self._sealed is not None:
            raise SliceError("cannot add events to a sealed window")
        n = len(events)
        if n:
            self._chunks.append(events)
            self._size += n

    def seal(self):
        """Close the window and return its values in ascending key order:
        a read-only ``float64`` column.  Sealing is idempotent.

        Raises:
            CodecError: If a value is NaN, naming its row.
        """
        if self._sealed is None:
            self._sealed = sort_values(self._chunks)
            self._chunks = []
        return self._sealed
