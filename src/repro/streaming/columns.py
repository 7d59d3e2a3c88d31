"""Columnar event batches: the live hot path's data layout.

An :class:`EventColumns` holds one batch of events as parallel columns
(value f64, timestamp u32, node_id u32, seq u32) instead of per-event
:class:`~repro.streaming.events.Event` objects.  It is built zero-copy
straight off the wire (the 20-byte-stride event array of an event-batch
frame *is* the columnar layout), flows through the stream and local
servers into :class:`~repro.core.sorted_window.SortedLocalWindow`, and is
sorted, merged, sliced and re-encoded without materializing objects.
Events only become :class:`Event` instances at the columnar boundary —
element access, iteration, and the operators' cold fallback paths — which
is exactly where the hot-path lint allows construction.

Two interchangeable backends sit behind one interface:

``numpy``
    Columns are views into one structured ndarray with the exact wire
    dtype (:data:`EVENT_DTYPE`), so decode is ``np.frombuffer`` and encode
    is ``tobytes`` — no per-event work at all.  Sorting uses a stable
    ``np.lexsort`` over the total-order key.
``python``
    Columns are :mod:`array` arrays; sorting mirrors the object path's
    Timsort comparisons index-by-index.  The fallback when numpy is
    unavailable, and the reference the bit-identity tests compare against.

**Bit-identity contract.**  Every operation here produces *exactly* the
sequence the object path produces:

* The total-order key ``(value, node_id, seq)`` is strict (node_id/seq
  pairs are unique), so for NaN-free data any correct sort yields the one
  sorted permutation, and a *stable* sort over ``run ++ buffer`` equals
  the object path's "sort buffer, then merge with run priority on ties"
  even if keys ever collide.  ``np.lexsort`` is stable, so the numpy
  backend qualifies.
* NaN values break comparison sorts deterministically-but-arbitrarily;
  ``np.lexsort`` would instead push NaNs last, diverging from the object
  path.  Batches containing NaN therefore fall back to a comparison
  mirror — index sort with the same key tuples plus the same two-pointer
  merge — which performs the identical comparisons in the identical
  order, reproducing the object path's permutation bit for bit.

Select the backend with ``REPRO_COLUMNS_BACKEND=python|numpy`` (read at
import) or :func:`set_backend` at runtime; the choice affects only where
new batches are constructed, never their observable contents.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from typing import Iterable, Iterator, Sequence

from repro.errors import CalculationError, CodecError, ConfigurationError
from repro.runtime import wire
from repro.streaming.events import Event

try:  # pragma: no cover - the image bakes numpy in; the gate is for ports
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "EVENT_DTYPE",
    "EventColumns",
    "concat_columns",
    "get_backend",
    "merge_runs",
    "select_rank",
    "set_backend",
]

#: The wire layout of one event as a numpy structured dtype.  Packed (no
#: padding), little-endian — ``frombuffer`` of an event-batch payload and
#: ``tobytes`` of a batch are byte-identical to ``struct`` with
#: :data:`repro.runtime.wire.EVENT`.
EVENT_DTYPE = (
    _np.dtype(
        [
            ("value", "<f8"),
            ("timestamp", "<u4"),
            ("node_id", "<u4"),
            ("seq", "<u4"),
        ]
    )
    if _np is not None
    else None
)
if EVENT_DTYPE is not None:
    assert EVENT_DTYPE.itemsize == wire.EVENT_WIRE_BYTES

_BACKENDS = ("numpy", "python")


def _default_backend() -> str:
    requested = os.environ.get("REPRO_COLUMNS_BACKEND", "").strip().lower()
    if requested == "python":
        return "python"
    return "numpy" if _np is not None else "python"


_backend = _default_backend()


def get_backend() -> str:
    """The backend new batches are built with (``numpy`` or ``python``)."""
    return _backend


def set_backend(name: str) -> str:
    """Select the construction backend; returns the previous one.

    Raises:
        ConfigurationError: For an unknown name, or ``numpy`` when numpy
            is not importable.
    """
    global _backend
    if name not in _BACKENDS:
        raise ConfigurationError(
            f"unknown columns backend {name!r}; expected one of {_BACKENDS}"
        )
    if name == "numpy" and _np is None:
        raise ConfigurationError("numpy backend requested but numpy is absent")
    previous = _backend
    _backend = name
    return previous


def _batch_struct(n: int) -> struct.Struct:
    return struct.Struct("<" + "dIII" * n)


class EventColumns:
    """One immutable batch of events in columnar form.

    Behaves as a read-only :class:`Sequence` of :class:`Event` — ``len``,
    integer indexing (materializes one event), slicing with any step
    (returns columns), iteration, and ``==`` against any event sequence —
    while exposing the columns themselves to vectorized consumers.
    """

    __slots__ = ("_arr", "_cols")

    def __init__(self, arr=None, cols=None) -> None:
        # Exactly one representation: a structured ndarray (numpy backend)
        # or a (values, timestamps, node_ids, seqs) tuple of stdlib arrays.
        self._arr = arr
        self._cols = cols

    # -- construction ---------------------------------------------------

    @classmethod
    def from_wire(
        cls, raw: "bytes | memoryview", count: "int | None" = None
    ) -> "EventColumns":
        """Zero-copy view over a wire event array (``n`` × 20 bytes).

        Raises:
            CodecError: If the byte length is not a multiple of the
                20-byte event stride, or disagrees with ``count``.
        """
        stride = wire.EVENT_WIRE_BYTES
        n_bytes = len(raw)
        if n_bytes % stride:
            raise CodecError(
                f"event array of {n_bytes} bytes is not a multiple of the "
                f"{stride}-byte event stride"
            )
        if count is not None and n_bytes != count * stride:
            raise CodecError(
                f"event array of {n_bytes} bytes does not hold the "
                f"announced {count} events ({count * stride} bytes)"
            )
        if _backend == "numpy":
            return cls(arr=_np.frombuffer(raw, dtype=EVENT_DTYPE))
        values = array("d")
        timestamps = array("I")
        node_ids = array("I")
        seqs = array("I")
        for value, timestamp, node_id, seq in wire.EVENT.iter_unpack(raw):
            values.append(value)
            timestamps.append(timestamp)
            node_ids.append(node_id)
            seqs.append(seq)
        return cls(cols=(values, timestamps, node_ids, seqs))

    @classmethod
    def from_arrays(
        cls, values, timestamps, node_ids, seqs=None
    ) -> "EventColumns":
        """Build a batch from numpy arrays (the generator's fast path).

        ``node_ids`` may be a scalar (broadcast); ``seqs`` defaults to
        ``0..n-1``.  Values outside the wire ranges are the caller's bug,
        exactly as they are on the object encode path.
        """
        if _np is None:
            raise ConfigurationError(
                "EventColumns.from_arrays needs numpy; build from events "
                "or wire bytes instead"
            )
        n = len(values)
        arr = _np.empty(n, dtype=EVENT_DTYPE)
        arr["value"] = values
        arr["timestamp"] = timestamps
        arr["node_id"] = node_ids
        arr["seq"] = _np.arange(n, dtype="<u4") if seqs is None else seqs
        if _backend == "numpy":
            return cls(arr=arr)
        if sys.byteorder == "little":
            cols = (array("d"), array("I"), array("I"), array("I"))
            for col, name in zip(
                cols, ("value", "timestamp", "node_id", "seq")
            ):
                col.frombytes(_np.ascontiguousarray(arr[name]).tobytes())
            return cls(cols=cols)
        return cls.from_wire(arr.tobytes())

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventColumns":
        """Build a batch from event objects (tests and cold paths)."""
        events = list(events)
        packed = _batch_struct(len(events)).pack(
            *(
                field
                for ev in events
                for field in (ev.value, ev.timestamp, ev.node_id, ev.seq)
            )
        )
        return cls.from_wire(packed)

    def _take(self, indices) -> "EventColumns":
        if self._arr is not None:
            return EventColumns(arr=self._arr.take(indices))
        values, timestamps, node_ids, seqs = self._cols
        return EventColumns(
            cols=(
                array("d", (values[i] for i in indices)),
                array("I", (timestamps[i] for i in indices)),
                array("I", (node_ids[i] for i in indices)),
                array("I", (seqs[i] for i in indices)),
            )
        )

    # -- sequence protocol ----------------------------------------------

    def __len__(self) -> int:
        if self._arr is not None:
            return len(self._arr)
        return len(self._cols[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            if self._arr is not None:
                return EventColumns(arr=self._arr[index])
            return EventColumns(
                cols=tuple(col[index] for col in self._cols)
            )
        if self._arr is not None:
            rec = self._arr[index]
            return Event(
                value=float(rec["value"]),
                timestamp=int(rec["timestamp"]),
                node_id=int(rec["node_id"]),
                seq=int(rec["seq"]),
            )
        values, timestamps, node_ids, seqs = self._cols
        return Event(
            value=values[index],
            timestamp=timestamps[index],
            node_id=node_ids[index],
            seq=seqs[index],
        )

    def __iter__(self) -> Iterator[Event]:
        if self._arr is not None:
            for value, timestamp, node_id, seq in self._arr.tolist():
                yield Event(
                    value=value, timestamp=timestamp,
                    node_id=node_id, seq=seq,
                )
            return
        values, timestamps, node_ids, seqs = self._cols
        for i in range(len(values)):
            yield Event(
                value=values[i], timestamp=timestamps[i],
                node_id=node_ids[i], seq=seqs[i],
            )

    def __eq__(self, other) -> bool:
        """Elementwise event equality against any event sequence.

        Mirrors object semantics exactly — a NaN value compares unequal
        to itself here just as two ``Event`` dataclasses with NaN values
        do.  Also invoked *reflected* when a message built with a tuple
        of events is compared to its decoded, columnar twin.
        """
        if other is self:
            return True
        if isinstance(other, EventColumns):
            if len(other) != len(self):
                return False
            return all(a == b for a, b in zip(self, other))
        if isinstance(other, (tuple, list)):
            if len(other) != len(self):
                return False
            return all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:
        # Equal to the hash of the equivalent tuple of events, so a
        # frozen message hashes identically whichever form it carries.
        return hash(tuple(self))

    def __repr__(self) -> str:
        backend = "numpy" if self._arr is not None else "python"
        return f"EventColumns(n={len(self)}, backend={backend})"

    # -- columns --------------------------------------------------------

    @property
    def values(self):
        """The value column (f64)."""
        if self._arr is not None:
            return self._arr["value"]
        return self._cols[0]

    @property
    def timestamps(self):
        """The event-time column (u32 milliseconds)."""
        if self._arr is not None:
            return self._arr["timestamp"]
        return self._cols[1]

    @property
    def node_ids(self):
        """The producing-node column (u32)."""
        if self._arr is not None:
            return self._arr["node_id"]
        return self._cols[2]

    @property
    def seqs(self):
        """The per-node sequence column (u32)."""
        if self._arr is not None:
            return self._arr["seq"]
        return self._cols[3]

    # -- scalar accessors (exact Python types, for synopsis keys) -------

    def key_at(self, index: int) -> tuple[float, int, int]:
        """The strict total-order key of event ``index``, as pure floats
        and ints — byte-identical to ``Event.key`` on the object path."""
        if self._arr is not None:
            rec = self._arr[index]
            return (
                float(rec["value"]), int(rec["node_id"]), int(rec["seq"])
            )
        values, _, node_ids, seqs = self._cols
        return (values[index], node_ids[index], seqs[index])

    def timestamp_at(self, index: int) -> int:
        if self._arr is not None:
            return int(self._arr[index]["timestamp"])
        return self._cols[1][index]

    def min_timestamp(self) -> int:
        if self._arr is not None:
            return int(self._arr["timestamp"].min())
        return min(self._cols[1])

    def max_timestamp(self) -> int:
        if self._arr is not None:
            return int(self._arr["timestamp"].max())
        return max(self._cols[1])

    def timestamps_sorted(self) -> bool:
        """Whether timestamps are non-decreasing (ordered replay)."""
        if len(self) < 2:
            return True
        if self._arr is not None:
            ts = self._arr["timestamp"]
            return not bool((ts[1:] < ts[:-1]).any())
        ts = self._cols[1]
        return all(ts[i] <= ts[i + 1] for i in range(len(ts) - 1))

    # -- wire -----------------------------------------------------------

    def to_wire(self) -> bytes:
        """The batch's wire event array — byte-identical to packing each
        event with :data:`repro.runtime.wire.EVENT` in order."""
        if self._arr is not None:
            return _np.ascontiguousarray(self._arr).tobytes()
        values, timestamps, node_ids, seqs = self._cols
        n = len(values)
        return _batch_struct(n).pack(
            *(
                field
                for i in range(n)
                for field in (
                    values[i], timestamps[i], node_ids[i], seqs[i]
                )
            )
        )

    # -- sorting --------------------------------------------------------

    def _keys(self) -> list[tuple[float, int, int]]:
        """All total-order keys as pure-Python tuples, in batch order."""
        if self._arr is not None:
            return [
                (value, node_id, seq)
                for value, _, node_id, seq in self._arr.tolist()
            ]
        values, _, node_ids, seqs = self._cols
        return [
            (values[i], node_ids[i], seqs[i]) for i in range(len(values))
        ]

    def has_nan(self) -> bool:
        if self._arr is not None:
            return bool(_np.isnan(self._arr["value"]).any())
        return any(value != value for value in self._cols[0])


def concat_columns(chunks: Sequence[EventColumns]) -> EventColumns:
    """Concatenate batches in order (converting backends if mixed)."""
    if len(chunks) == 1:
        return chunks[0]
    if not chunks:
        return EventColumns.from_wire(b"")
    if all(chunk._arr is not None for chunk in chunks):
        # As bytes: numpy concatenates packed records field by field,
        # several times slower than the one copy this is.
        raw = _np.concatenate(
            [
                _np.ascontiguousarray(chunk._arr).view(_np.uint8)
                for chunk in chunks
            ]
        )
        return EventColumns(arr=raw.view(EVENT_DTYPE))
    if any(chunk._arr is not None for chunk in chunks):
        # Mixed backends (a runtime set_backend mid-stream): rebuild
        # everything through the wire form, which both speak.
        return EventColumns.from_wire(
            b"".join(chunk.to_wire() for chunk in chunks)
        )
    cols = tuple(array(tc) for tc in ("d", "I", "I", "I"))
    for chunk in chunks:
        for col, src in zip(cols, chunk._cols):
            col.extend(src)
    return EventColumns(cols=cols)


def _merge_comparison_mirror(
    run: "EventColumns | None", pending: EventColumns
) -> EventColumns:
    """The object path's exact algorithm on columns.

    Stable index sort of the pending batch by key tuple (the same Timsort
    comparisons ``list.sort(key=event_key)`` performs), then the same
    two-pointer merge with run priority on ``<=``.  Used whenever NaN
    values make comparison order the contract, and by the python backend
    throughout.

    The object path's append-only early-out (whole batch lands after the
    run) is mirrored too — with a NaN mid-run it is *not* equivalent to
    the merge loop, which dumps the rest of the batch the moment it
    reaches the incomparable key, so skipping it would reorder.
    """
    pending_keys = pending._keys()
    order = sorted(range(len(pending_keys)), key=pending_keys.__getitem__)
    if run is None or not len(run):
        return pending._take(order)
    run_keys = run._keys()
    n_run, n_pending = len(run_keys), len(order)
    if run_keys[-1] <= pending_keys[order[0]]:
        return concat_columns([run, pending._take(order)])
    merged: list[int] = []  # indices into run ++ pending
    i = j = 0
    while i < n_run and j < n_pending:
        if run_keys[i] <= pending_keys[order[j]]:
            merged.append(i)
            i += 1
        else:
            merged.append(n_run + order[j])
            j += 1
    merged.extend(range(i, n_run))
    merged.extend(n_run + order[k] for k in range(j, n_pending))
    return concat_columns([run, pending])._take(merged)


def merge_runs(
    run: "EventColumns | None", pending: EventColumns
) -> EventColumns:
    """Sort ``pending`` and merge it into the sorted ``run``.

    Bit-identical to the object path (see the module docstring): a stable
    ``lexsort`` over ``run ++ pending`` when the numpy backend applies
    and no value is NaN, the comparison mirror otherwise.
    """
    full = pending if run is None or not len(run) else concat_columns(
        [run, pending]
    )
    if full._arr is not None and not full.has_nan():
        arr = full._arr
        order = _np.lexsort((arr["seq"], arr["node_id"], arr["value"]))
        return EventColumns(arr=arr.take(order))
    return _merge_comparison_mirror(run, pending)


def select_rank(runs: Sequence, local_rank: int) -> "Event | None":
    """The event at 1-based ``local_rank`` of the merged sorted ``runs``.

    The root's calculation step as a rank select: one concatenation, a
    vectorised sortedness check, ``np.partition`` for the rank's value and
    a ``(node_id, seq)`` sort over the rows tied at that value only.  It
    picks the row a stable key-sort of the concatenated runs puts at that
    rank, which is the element the object path's k-way merge yields, and
    materialises that one row.

    Returns ``None`` — the caller's object merge owns the case — when a
    run is not a numpy-backed batch or a value is NaN (comparison order is
    the contract there, as in :func:`merge_runs`), or when ``local_rank``
    falls outside the rows.

    Raises:
        CalculationError: If a run is not sorted by event key, naming the
            first offending event exactly as the object path does.
    """
    batches = []
    for run in runs:
        if not isinstance(run, EventColumns) or run._arr is None:
            return None
        if len(run):
            batches.append(run)
    if not batches:
        return None
    stacked = concat_columns(batches)
    arr = stacked._arr
    n = len(arr)
    values = _np.ascontiguousarray(arr["value"])
    if _np.isnan(values.max()):
        return None
    # Only neighbours that are not strictly ascending by value alone need
    # a closer look — there ``values[left] >= values[right]``, so a pair is
    # out of order unless it is a value tie in ``(node_id, seq)`` order.
    # The pair straddling two runs is no constraint and is masked out.
    ascending = values[:-1] < values[1:]
    seams = _np.cumsum([len(b) for b in batches[:-1]], dtype=_np.intp)
    ascending[seams - 1] = True
    left = _np.flatnonzero(~ascending)
    if len(left):
        right = left + 1
        node_ids, seqs = arr["node_id"], arr["seq"]
        unsorted = (
            (values[left] > values[right])
            | (node_ids[left] > node_ids[right])
            | ((node_ids[left] == node_ids[right]) & (seqs[left] > seqs[right]))
        )
        if unsorted.any():
            offender = stacked[int(right[unsorted.argmax()])]
            raise CalculationError(
                "candidate run is not sorted; local node violated the "
                f"protocol near event {offender}"
            )
    if not 1 <= local_rank <= n:
        return None
    kth = local_rank - 1
    pivot = _np.partition(values, kth)[kth]
    tied = _np.flatnonzero(values == pivot)
    row = tied[0]
    if len(tied) > 1:
        order = _np.lexsort((arr["seq"][tied], arr["node_id"][tied]))
        row = tied[order[kth - _np.count_nonzero(values < pivot)]]
    return stacked[int(row)]
