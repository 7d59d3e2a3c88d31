"""Batch-sorted local windows.

Dema "incrementally sorts arriving events into windows" (Section 3.1): when
the window ends, its events are already in key order, so slicing is a single
linear pass.  The implementation buffers arrivals and pays for order exactly
once, at the window cut.

Two ingest shapes share the class:

* **Object batches** (the simulator and the baselines): arrivals collect in
  a plain appendable list; compaction is one ``list.sort`` of the buffer
  (Timsort, which exploits the near-sorted runs real streams produce)
  followed by a linear merge into the existing sorted run.  That is
  O(n log n) total — the same bound as per-event ``insort`` — but with
  O(1) ingest cost per event and none of the O(n) ``memmove`` traffic
  binary insertion pays on large windows.
* **Columnar batches** (the live hot path and the query plane's panes):
  :class:`EventColumns` chunks collect unconverted; compaction
  concatenates them and orders the rows via
  :func:`repro.streaming.columns.merge_runs` — one unstable ``argsort``
  of the value column, ties repaired by ``(node_id, seq)``, one ``take``
  of whole records — never materializing per-event objects.  The run
  itself then *stays* columnar through :meth:`seal` into slicing.

The observable contract is identical either way: :meth:`seal`,
:meth:`sorted_events` and iteration yield the one sorted sequence the
insertion-based implementation produced (the total-order key is strict,
so there is exactly one sorted permutation and no sort needs to be stable
to find it; with NaN values the columnar merge mirrors the object path's
comparisons bit for bit).  A window fed a *mix* of object and columnar
batches degrades to the object algorithm over the materialized union.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import SliceError
from repro.streaming.columns import EventColumns, concat_columns, merge_runs
from repro.streaming.events import Event, event_key

# Hot-path module: events stay columnar through compaction; ``Event``
# objects only materialize on the mixed-mode degradation path, inside
# columns.py (enforced by tests/test_hotpath_lint.py).

__all__ = ["SortedLocalWindow"]


class SortedLocalWindow:
    """Events of one local window, kept sorted by total-order key."""

    __slots__ = ("_run", "_buffer", "_chunks", "_chunked", "_sealed")

    def __init__(self, events: Iterable[Event] = ()) -> None:
        # _run is list[Event] (object mode) or EventColumns (columnar).
        if isinstance(events, EventColumns):
            self._run: "list[Event] | EventColumns" = merge_runs(None, events)
        else:
            self._run = sorted(events, key=event_key)
        self._buffer: list[Event] = []
        self._chunks: list[EventColumns] = []
        #: Events held in ``_chunks`` — ``len()`` runs once per ingested
        #: batch, so it must not walk the chunk list.
        self._chunked = 0
        self._sealed = False

    def __len__(self) -> int:
        return len(self._run) + len(self._buffer) + self._chunked

    def __iter__(self) -> Iterator[Event]:
        """Iterate events in sorted order (compacts first)."""
        self._compact()
        return iter(self._run)

    @property
    def is_sealed(self) -> bool:
        """Whether the window has been closed to further inserts."""
        return self._sealed

    def add(self, event: Event) -> None:
        """Insert one event in O(1); ordering is deferred to the cut.

        Raises:
            SliceError: If the window was already sealed.
        """
        if self._sealed:
            raise SliceError("cannot add events to a sealed window")
        self._buffer.append(event)

    def add_all(self, events: Iterable[Event]) -> None:
        """Insert a batch of events in one extend.

        Columnar batches are kept columnar (no per-event work) and sorted
        on their arrays at the cut; anything else extends the object
        buffer.

        Raises:
            SliceError: If the window was already sealed.
        """
        if self._sealed:
            raise SliceError("cannot add events to a sealed window")
        if isinstance(events, EventColumns):
            if len(events):
                self._chunks.append(events)
                self._chunked += len(events)
        else:
            self._buffer.extend(events)

    def seal(self):
        """Close the window and return its events in sorted order.

        Sealing is idempotent; the returned sequence — a list or an
        :class:`EventColumns`, depending on how the window was fed — is
        owned by the window (callers slice it, they do not mutate it).
        """
        self._compact()
        self._sealed = True
        return self._run

    def sorted_events(self):
        """The events in sorted order, as a **read-only snapshot**.

        Returns the window's own compacted run without copying, so
        repeated mid-window cuts cost O(1) when nothing new arrived.
        The snapshot is only valid until the next ``add``/``add_all``
        plus compaction; callers that need to keep it across inserts
        must copy it themselves.
        """
        self._compact()
        return self._run

    def _compact(self) -> None:
        chunks = self._chunks
        buf = self._buffer
        if chunks:
            run = self._run
            self._chunks, self._chunked = [], 0
            if not buf and (isinstance(run, EventColumns) or not run):
                # Pure columnar: sort/merge on the parallel arrays.
                pending = concat_columns(chunks)
                self._run = merge_runs(
                    run if isinstance(run, EventColumns) else None, pending
                )
                return
            # Mixed object/columnar feed: degrade to the object algorithm
            # over everything.  Chunk events join the pending buffer; a
            # columnar run rematerializes once.
            for chunk in chunks:
                buf.extend(chunk)
            if isinstance(run, EventColumns):
                self._run = list(run)
        elif isinstance(self._run, EventColumns) and buf:
            # Object arrivals on a columnar run: same degradation.
            self._run = list(self._run)
        if not buf:
            return
        buf.sort(key=event_key)
        run = self._run
        if not run:
            self._run = buf
            self._buffer = []
            return
        # Common cut-time case: the whole batch lands after (or before) the
        # existing run, so the merge degenerates to a concatenation.
        if run[-1].key <= buf[0].key:
            run.extend(buf)
            self._buffer = []
            return
        merged: list[Event] = []
        i = j = 0
        n_run, n_buf = len(run), len(buf)
        while i < n_run and j < n_buf:
            if run[i].key <= buf[j].key:
                merged.append(run[i])
                i += 1
            else:
                merged.append(buf[j])
                j += 1
        merged.extend(run[i:])
        merged.extend(buf[j:])
        self._run = merged
        self._buffer = []
