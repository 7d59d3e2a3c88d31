"""Columnar event batches: the one data layout behind every public door.

An :class:`EventColumns` holds one batch of events as parallel columns
(value f64, timestamp u32, node_id u32, seq u32) instead of per-event
:class:`~repro.streaming.events.Event` objects.  It is built zero-copy
straight off the wire (the 20-byte-stride event array of an event-batch
frame *is* the columnar layout) or once at a door from a sequence of
``Event`` (:func:`as_event_columns`), flows through the live servers, the
simulated operators and the baselines into
:class:`~repro.core.sorted_window.SortedLocalWindow`, and is sorted,
merged, sliced and re-encoded without materializing objects.  Events only
become :class:`Event` instances at the columnar boundary — element access,
iteration, and the NaN reference merge — which is exactly where the
hot-path lint allows construction.

The columns are views into one structured ndarray with the exact wire
dtype (:data:`EVENT_DTYPE`), so decode is ``np.frombuffer`` and encode is
``tobytes`` — no per-event work at all.  Sorting is one unstable
``np.argsort`` of the value column plus a repair of the rows whose
values tie (:func:`_key_order`).

**Bit-identity contract.**  Every operation here produces *exactly* the
sequence a comparison sort of ``Event`` objects by key produces
(``sorted(events, key=event_key)``, and for incremental compaction a sort
of the arrivals merged into the run with run priority on ties):

* The total-order key ``(value, node_id, seq)`` is strict (node_id/seq
  pairs are unique), so for NaN-free data there is exactly one sorted
  permutation and any correct sort yields it — stability buys nothing.
  The sort therefore orders by value alone with numpy's fastest
  (unstable) kernel and then puts only the rows inside runs of equal
  values (``-0.0 == 0.0`` included) in ``(node_id, seq)`` order.  Should
  keys ever collide outright, the repair leaves exact twins in arrival
  order over ``run ++ buffer``, which equals "sort the buffer, then merge
  with run priority on ties".
* NaN values break comparison sorts deterministically-but-arbitrarily;
  numpy would instead push NaNs last.  Batches containing NaN (seen on
  the last sorted value) therefore fall back to a comparison mirror —
  index sort with the same key tuples plus the same two-pointer merge —
  which performs the identical comparisons in the identical order,
  reproducing that permutation bit for bit.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as _np

from repro.errors import CalculationError, CodecError, ConfigurationError
from repro.runtime import wire
from repro.streaming.events import Event

__all__ = [
    "EMPTY_EVENTS",
    "EVENT_DTYPE",
    "EventColumns",
    "as_event_columns",
    "check_streams",
    "concat_columns",
    "concat_records",
    "merge_runs",
    "select_rank",
]

#: The wire layout of one event as a numpy structured dtype.  Packed (no
#: padding), little-endian — ``frombuffer`` of an event-batch payload and
#: ``tobytes`` of a batch are byte-identical to ``struct`` with
#: :data:`repro.runtime.wire.EVENT`.
EVENT_DTYPE = _np.dtype(
    [
        ("value", "<f8"),
        ("timestamp", "<u4"),
        ("node_id", "<u4"),
        ("seq", "<u4"),
    ]
)
assert EVENT_DTYPE.itemsize == wire.EVENT_WIRE_BYTES


#: Largest timestamp, node id or sequence number the wire layout holds.
_U32_MAX = 0xFFFFFFFF


class EventColumns:
    """One immutable batch of events in columnar form.

    Behaves as a read-only :class:`Sequence` of :class:`Event` — ``len``,
    integer indexing (materializes one event), slicing with any step or a
    boolean row mask (returns columns), iteration, and ``==`` against any
    event sequence — while exposing the columns themselves to vectorized
    consumers.
    """

    __slots__ = ("_arr",)

    def __init__(self, arr) -> None:
        #: One structured ndarray of :data:`EVENT_DTYPE` records.
        self._arr = arr

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
        return cls(_np.frombuffer(raw, dtype=EVENT_DTYPE))

    @classmethod
    def from_arrays(
        cls, values, timestamps, node_ids, seqs=None
    ) -> "EventColumns":
        """Build a batch from numpy arrays (the generator's fast path).

        ``node_ids`` may be a scalar (broadcast); ``seqs`` defaults to
        ``0..n-1``.  Values outside the wire ranges are the caller's bug
        (:meth:`from_events` checks them).
        """
        n = len(values)
        arr = _np.empty(n, dtype=EVENT_DTYPE)
        arr["value"] = values
        arr["timestamp"] = timestamps
        arr["node_id"] = node_ids
        arr["seq"] = _np.arange(n, dtype="<u4") if seqs is None else seqs
        return cls(arr)

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventColumns":
        """Build a batch from event objects, one pass per column.

        Byte-identical to packing each event with
        :data:`repro.runtime.wire.EVENT` in order.

        Raises:
            OverflowError: If a timestamp, node id or sequence number is
                negative or does not fit the wire's 32 bits (nothing wraps).
            TypeError, ValueError: If a field is not a number.
        """
        if not isinstance(events, (list, tuple)):
            events = list(events)
        n = len(events)
        arr = _np.empty(n, dtype=EVENT_DTYPE)
        arr["value"] = _np.fromiter(
            map(float, map(attrgetter("value"), events)), "<f8", n
        )
        for field in ("timestamp", "node_id", "seq"):
            # Through int64: a direct u32 conversion of an out-of-range
            # integer wraps on numpy < 2.
            column = _np.fromiter(
                map(attrgetter(field), events), _np.int64, n
            )
            if n and not 0 <= column.min() <= column.max() <= _U32_MAX:
                raise OverflowError(
                    f"event {field} outside the wire's 32 bits: "
                    f"{int(column.min())}..{int(column.max())}"
                )
            arr[field] = column
        return cls(arr)

    def _take(self, indices) -> "EventColumns":
        return EventColumns(self._arr.take(indices))

    # -- sequence protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self._arr)

    def __getitem__(self, index):
        if isinstance(index, (slice, _np.ndarray)):
            return EventColumns(self._arr[index])
        rec = self._arr[index]
        return Event(
            value=float(rec["value"]),
            timestamp=int(rec["timestamp"]),
            node_id=int(rec["node_id"]),
            seq=int(rec["seq"]),
        )

    def __iter__(self) -> Iterator[Event]:
        for value, timestamp, node_id, seq in self._arr.tolist():
            yield Event(
                value=value, timestamp=timestamp,
                node_id=node_id, seq=seq,
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
        return f"EventColumns(n={len(self)})"

    # -- columns --------------------------------------------------------

    @property
    def values(self):
        """The value column (f64)."""
        return self._arr["value"]

    @property
    def timestamps(self):
        """The event-time column (u32 milliseconds)."""
        return self._arr["timestamp"]

    @property
    def node_ids(self):
        """The producing-node column (u32)."""
        return self._arr["node_id"]

    @property
    def seqs(self):
        """The per-node sequence column (u32)."""
        return self._arr["seq"]

    # -- scalar accessors (exact Python types, for synopsis keys) -------

    def key_at(self, index: int) -> tuple[float, int, int]:
        """The strict total-order key of event ``index``, as pure floats
        and ints — byte-identical to the ``Event.key`` of that row."""
        rec = self._arr[index]
        return (float(rec["value"]), int(rec["node_id"]), int(rec["seq"]))

    def timestamp_at(self, index: int) -> int:
        return int(self._arr[index]["timestamp"])

    def min_timestamp(self) -> int:
        return int(self._arr["timestamp"].min())

    def max_timestamp(self) -> int:
        return int(self._arr["timestamp"].max())

    def by_window(
        self, length: int, step: "int | None" = None
    ) -> "list[tuple[int, EventColumns]]":
        """``(window start, rows)`` for each fixed-length window the batch
        touches — ``SlidingWindows(length, step).assign`` row by row, on
        the timestamp column (``step`` omitted: tumbling).

        An event at ``t`` is in the windows numbered ``(t - length) // step
        + 1 .. t // step``, window ``k`` starting at ``k * step`` — negative
        for the windows that straddle time zero.  Groups come in the order
        the windows first appear in the batch, earliest window first within
        a row; rows keep batch order.  A batch with one window assignment —
        every batch of an ordered replay — is handed back as is.
        """
        if not len(self):
            return []
        if step is None:
            step = length
        lo, hi = self.min_timestamp(), self.max_timestamp()
        number, last = (lo - length) // step + 1, hi // step
        if (hi - length) // step + 1 == number and lo // step == last:
            return [(k * step, self) for k in range(number, last + 1)]
        # int64: the u32 column wraps below zero and near 2**32.
        timestamps = self._arr["timestamp"].astype(_np.int64)
        groups = []
        while number <= last:
            start = number * step
            rows = (timestamps >= start) & (timestamps < start + length)
            first = int(rows.argmax())
            if rows[first]:
                groups.append((first, start, self[rows]))
                number += 1
            else:
                # Nothing here: on to the oldest window of the next event.
                later = timestamps[timestamps >= start + length]
                number = (int(later.min()) - length) // step + 1
        # Stable, and the walk ascends: a row's windows stay earliest first.
        groups = sorted(groups, key=lambda group: group[0])
        return [group[1:] for group in groups]

    def timestamps_sorted(self) -> bool:
        """Whether timestamps are non-decreasing (ordered replay)."""
        if len(self) < 2:
            return True
        ts = self._arr["timestamp"]
        return not bool((ts[1:] < ts[:-1]).any())

    # -- wire -----------------------------------------------------------

    def to_wire(self) -> bytes:
        """The batch's wire event array — byte-identical to packing each
        event with :data:`repro.runtime.wire.EVENT` in order."""
        return _np.ascontiguousarray(self._arr).tobytes()

    # -- sorting --------------------------------------------------------

    def _keys(self) -> list[tuple[float, int, int]]:
        """All total-order keys as pure-Python tuples, in batch order."""
        return [
            (value, node_id, seq)
            for value, _, node_id, seq in self._arr.tolist()
        ]


#: The batch of no events: what an empty window seals to and a message
#: without events carries.  Shared — batches are immutable.
EMPTY_EVENTS = EventColumns(_np.empty(0, dtype=EVENT_DTYPE))


def as_event_columns(events: "EventColumns | Iterable[Event]") -> EventColumns:
    """``events`` as a batch: itself if columnar, else built from objects.

    The one door every public entry point converts at — the live cluster,
    the simulated deployment, the sensors and the in-memory
    ``dema_quantile(s)`` / ``calculate_quantile`` — so nothing behind them
    asks which form it was handed.
    """
    if isinstance(events, EventColumns):
        return events
    return EventColumns.from_events(events)


def check_streams(
    local_ids: Collection[int], streams: Mapping[int, EventColumns]
) -> None:
    """Refuse streams of locals not in ``local_ids``, a local's stream
    that carries another node's events, and a NaN value: synopsis keys
    order events as ``(value, node_id, seq)`` does only if every local's
    events carry its own id (:mod:`repro.core.synopsis`), else a
    ``-0.0``/``0.0`` tie could take the other sign bit, and a NaN has no
    rank at all.  Two vectorised passes per stream.

    Raises:
        ConfigurationError: Naming the unknown locals, or the first local
            with a foreign id and that id, or the first local with a NaN
            value and its first NaN row.
    """
    unknown = set(streams) - set(local_ids)
    if unknown:
        raise ConfigurationError(
            f"streams reference unknown local nodes {sorted(unknown)}"
        )
    for local_id, events in streams.items():
        foreign = events.node_ids != local_id
        if foreign.any():
            raise ConfigurationError(
                f"local {local_id}'s stream carries events of node "
                f"{int(events.node_ids[foreign.argmax()])}; a local's "
                "events must carry its own id"
            )
        nan = _np.isnan(events.values)
        if nan.any():
            raise ConfigurationError(
                f"local {local_id}'s stream has a NaN value at row "
                f"{int(nan.argmax())}; a quantile needs ordered values"
            )


def concat_records(arrays: Sequence, dtype):
    """Concatenate packed structured arrays of one ``dtype``, in order.

    As bytes: numpy concatenates packed records field by field, several
    times slower than the one copy this is.
    """
    if not arrays:
        return _np.empty(0, dtype=dtype)
    raw = _np.concatenate(
        [_np.ascontiguousarray(arr).view(_np.uint8) for arr in arrays]
    )
    return raw.view(dtype)


def concat_columns(chunks: Sequence[EventColumns]) -> EventColumns:
    """Concatenate batches in order."""
    if len(chunks) == 1:
        return chunks[0]
    return EventColumns(
        concat_records([chunk._arr for chunk in chunks], EVENT_DTYPE)
    )


def _merge_comparison_mirror(
    run: "EventColumns | None", pending: EventColumns
) -> EventColumns:
    """A comparison-sorted window's exact algorithm on columns.

    Stable index sort of the pending batch by key tuple (the same Timsort
    comparisons ``list.sort(key=event_key)`` performs), then a two-pointer
    merge with run priority on ``<=``.  Used whenever NaN values make
    comparison order the contract
    (``tests/property/test_columnar_identity.py`` holds the reference).

    The append-only early-out (whole batch lands after the run) is part
    of that contract too — with a NaN mid-run it is *not* equivalent to
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


#: ``_key_order`` repairs ties in place while at most one neighbouring
#: pair of sorted values in this many is equal; above that (quantised
#: data) one stable sort of everything is cheaper than the repair.
#: Measured, not a setting: on a 50,000-row window the repair wins up to
#: about two equal pairs in five (docs/performance.md).
_TIE_REPAIR_LIMIT = 4


def _key_order(values, node_ids, seqs, kind=None):
    """The permutation ``np.lexsort((seqs, node_ids, values))`` returns —
    rows by ``(value, node_id, seq)``, equal keys in index order — without
    a stable sort of every row.  NaN values come last, in no set order.

    One ``argsort`` of the contiguous value column — numpy's default,
    unstable kernel unless the caller knows a ``kind`` that suits its
    input better — orders all rows whose value is unique.  Rows in runs
    of equal values are taken in index order and sorted by the full key
    among themselves, which fills the positions they occupy; only they
    are touched.
    """
    values = _np.ascontiguousarray(values)
    order = _np.argsort(values, kind=kind)
    ranked = values.take(order)
    tie = ranked[1:] == ranked[:-1]
    ties = _np.count_nonzero(tie)
    if not ties:
        return order
    if ties * _TIE_REPAIR_LIMIT > len(order):
        return _np.lexsort((seqs, node_ids, values))
    tied = _np.zeros(len(order) + 1, dtype=bool)
    tied[1:-1] = tie
    tied = _np.flatnonzero(tied[1:] | tied[:-1])
    rows = _np.sort(order[tied])
    order[tied] = rows[
        _np.lexsort((seqs[rows], node_ids[rows], values[rows]))
    ]
    return order


def merge_runs(
    run: "EventColumns | None", pending: EventColumns
) -> EventColumns:
    """Sort ``pending`` and merge it into the sorted ``run``.

    Bit-identical to a comparison sort (see the module docstring): the one
    permutation the strict key allows over ``run ++ pending`` — exact
    twins in arrival order, run first — when no value is NaN, the
    comparison mirror otherwise.
    """
    full = pending if run is None or not len(run) else concat_columns(
        [run, pending]
    )
    arr = full._arr
    order = _key_order(arr["value"], arr["node_id"], arr["seq"])
    if _np.isnan(arr["value"][order[-1:]]).any():
        return _merge_comparison_mirror(run, pending)
    return EventColumns(arr.take(order))


def select_rank(runs: Sequence, local_rank: int) -> "float | None":
    """The value at 1-based ``local_rank`` of the merged sorted value ``runs``.

    The root's calculation step as a rank select over ``float64`` runs:
    one concatenation, a vectorised sortedness check and ``np.partition``
    for the rank's value.  Values that compare equal but differ in bits
    (``-0.0`` and ``0.0``) resolve in stacking order.  Handed runs in
    ``(node_id, slice_index)`` order, that is the order a k-way merge by
    full event key ``(value, node_id, seq)`` puts them in: a local's events
    carry its own id, and its slices ascend in key.

    Returns ``None`` — the caller's k-way merge owns the case — when a
    value is NaN (comparison order is the contract there, as in
    :func:`merge_runs`) or when ``local_rank`` falls outside the values.

    Raises:
        CalculationError: If a run descends, naming the first offending
            value exactly as ``merge_candidate_runs`` does.
    """
    batches = [run for run in runs if len(run)]
    if not batches:
        return None
    values = _np.concatenate(batches, dtype=_np.float64)
    if _np.isnan(values.max()):
        return None
    # A descent inside a run is a protocol violation; the pair straddling
    # two runs is no constraint and is masked out.
    descent = values[1:] < values[:-1]
    seams = _np.cumsum([len(b) for b in batches[:-1]], dtype=_np.intp)
    descent[seams - 1] = False
    if descent.any():
        offender = float(values[int(descent.argmax()) + 1])
        raise CalculationError(
            "candidate run is not sorted; local node violated the "
            f"protocol near value {offender!r}"
        )
    if not 1 <= local_rank <= len(values):
        return None
    kth = local_rank - 1
    pivot = _np.partition(values, kth)[kth]
    tied = _np.flatnonzero(values == pivot)
    return float(values[tied[kth - _np.count_nonzero(values < pivot)]])
