"""Columnar event batches: the one data layout behind every public door.

An :class:`EventColumns` holds one batch of events as parallel columns
(value f64, timestamp u32, node_id u32, seq u32) instead of per-event
:class:`~repro.streaming.events.Event` objects.  It is built zero-copy
straight off the wire (the 20-byte-stride event array of an event-batch
frame *is* the columnar layout) or once at a door from a sequence of
``Event`` (:func:`as_event_columns`), and flows through the live servers,
the simulated operators and the baselines into
:class:`~repro.core.sorted_window.SortedLocalWindow` without materializing
objects.  A window is sorted as its value column alone
(:func:`sort_values`): slicing, candidate runs and the baselines' ranks
read nothing else.  Events only become :class:`Event` instances at the
columnar boundary — element access and iteration — which is exactly where
the hot-path lint allows construction.

The columns are views into one structured ndarray with the exact wire
dtype (:data:`EVENT_DTYPE`), so decode is ``np.frombuffer`` and encode is
``tobytes`` — no per-event work at all.

**Bit-identity contract.**  :func:`sort_values` produces *exactly* the
value column of the sequence a comparison sort of ``Event`` objects by
key produces (``sorted(events, key=event_key)``):

* The total-order key ``(value, node_id, seq)`` is strict (node_id/seq
  pairs are unique), so there is exactly one sorted permutation.  Two
  values that compare equal have equal bits unless they are ``-0.0`` and
  ``0.0``, so one unstable ``np.sort`` of the values gives that
  permutation's value column everywhere but in the block of zeros; only
  that block is rewritten from the rows, in ``(node_id, seq)`` order.
* A NaN value has no rank, so no sorted order exists with one.  It is
  refused at the door (:func:`check_streams`); a wire-fed NaN is refused
  where it is first ordered: numpy sorts it last, and :func:`sort_values`
  reads the last sorted value and raises :class:`CodecError` naming the
  row.
"""

from __future__ import annotations

import bisect
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
    "select_frame",
    "select_rank",
    "sort_values",
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

#: One event as an opaque 20-byte record.  numpy copies a strided batch of
#: these whole, where a copy of the structured dtype goes field by field
#: (about a third of the time for 512 records, docs/performance.md).
_RECORD = _np.dtype((_np.void, EVENT_DTYPE.itemsize))


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
        """Build a batch from numpy arrays (how the generator builds every stream).

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
        if isinstance(other, (EventColumns, tuple, list)):
            return len(other) == len(self) and all(
                a == b for a, b in zip(self, other)
            )
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

    # -- scalar accessors -----------------------------------------------

    def timestamp_at(self, index: int) -> int:
        return int(self._arr[index]["timestamp"])

    def min_timestamp(self) -> int:
        return int(self._arr["timestamp"].min())

    def max_timestamp(self) -> int:
        return int(self._arr["timestamp"].max())

    def by_window(self, length: int) -> "list[tuple[int, EventColumns]]":
        """``(window start, rows)`` for each tumbling window of ``length``
        the batch touches — ``TumblingWindows(length).assign`` row by row,
        on the timestamp column.

        An event at ``t`` is in window ``t // length``, starting at
        ``(t // length) * length``.  Groups come in the order the windows
        first appear in the batch; rows keep batch order.  A batch within
        one window — every batch of an ordered replay — is handed back as
        is.
        """
        if not len(self):
            return []
        timestamps = self._arr["timestamp"]
        number = int(_np.minimum.reduce(timestamps)) // length
        last = int(_np.maximum.reduce(timestamps)) // length
        if number == last:
            return [(number * length, self)]
        # int64: ``start + length`` can pass 2**32, where u32 wraps.
        timestamps = timestamps.astype(_np.int64)
        groups = []
        while number <= last:
            start = number * length
            rows = (timestamps >= start) & (timestamps < start + length)
            first = int(rows.argmax())
            if rows[first]:
                groups.append((first, start, self[rows]))
                number += 1
            else:
                # Nothing here: on to the window of the next event.
                later = timestamps[timestamps >= start + length]
                number = int(later.min()) // length
        # First-appearance order: DemaLocalNode._insert_ops sums its
        # float charge in it.
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
        return self._arr.view(_RECORD).tobytes()

    def wire_records(self):
        """The wire event array as a buffer ``bytes.join`` takes: the
        batch's own records when they are contiguous, else
        :meth:`to_wire`'s one whole-record copy of a strided batch."""
        arr = self._arr
        return arr if arr.flags.c_contiguous else arr.view(_RECORD).tobytes()


#: The batch of no events: what an empty window seals to and a message
#: without events carries.  Shared — batches are immutable.
EMPTY_EVENTS = EventColumns(_np.empty(0, dtype=EVENT_DTYPE))


def as_event_columns(events: "EventColumns | Iterable[Event]") -> EventColumns:
    """``events`` as a batch: itself if columnar, else built from objects.

    The one door every public entry point converts at — the live cluster,
    the simulated deployment, the sensors and the in-memory
    ``dema_quantile(s)`` — so nothing behind them asks which form it was
    handed.
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

    As opaque records: numpy concatenates (and packs a strided input of)
    a structured dtype field by field, several times slower than the one
    whole-record copy this is.
    """
    if not arrays:
        return _np.empty(0, dtype=dtype)
    record = _np.dtype((_np.void, dtype.itemsize))
    return _np.concatenate([arr.view(record) for arr in arrays]).view(dtype)


def concat_columns(chunks: Sequence[EventColumns]) -> EventColumns:
    """Concatenate batches in order."""
    if len(chunks) == 1:
        return chunks[0]
    return EventColumns(
        concat_records([chunk._arr for chunk in chunks], EVENT_DTYPE)
    )


def sort_values(chunks: Sequence[EventColumns]):
    """The value column of a window that arrived as ``chunks``, in
    ``(value, node_id, seq)`` order: a fresh, read-only ``float64`` array.

    One copy of the chunks' value fields and one in-place ``np.sort`` of
    it, numpy's SIMD kernel.  Equal values are equal bits except ``-0.0``
    and ``0.0``, so the column is bit for bit the value column of the
    full-key order once its zeros are: a window holding a zero has that
    block rewritten from its rows, in ``(node_id, seq)`` order when both
    signs occur; no other block is touched.  Exact twins (the whole key
    equal) keep arrival order.

    Raises:
        CodecError: If a value is NaN (sorted last, whatever its sign
            bit), naming its row's ``node_id`` and ``seq``.  Below
            :func:`check_streams` only a peer's frame can carry one.
    """
    if not chunks:
        values = _np.empty(0)
    else:
        values = _np.concatenate(
            [chunk.values for chunk in chunks], dtype=_np.float64
        )
        values.sort()
    if len(values) and _np.isnan(values[-1]):
        for chunk in chunks:
            nan = _np.isnan(chunk.values)
            if nan.any():
                row = int(nan.argmax())
                raise CodecError(
                    f"event of node {int(chunk.node_ids[row])} seq "
                    f"{int(chunk.seqs[row])} has a NaN value; a quantile "
                    "needs ordered values"
                )
    lo, hi = values.searchsorted(0.0, "left"), values.searchsorted(0.0, "right")
    if lo < hi:
        # The SIMD kernel sorts with min/max, which may hand back one
        # zero's bits for both of a -0.0/0.0 pair: the block is rewritten
        # from the rows, in key order when it holds both signs.
        zeros = concat_columns([chunk[chunk.values == 0] for chunk in chunks])
        zero = zeros.values
        negative = _np.count_nonzero(_np.signbit(zero))
        if 0 < negative < len(zero):
            zero = zero[_np.lexsort((zeros.seqs, zeros.node_ids))]
        values[lo:hi] = zero
    values.flags.writeable = False
    return values


def select_rank(runs: Sequence, local_rank: int) -> float:
    """The value at 1-based ``local_rank`` of the merged sorted value ``runs``.

    The root's calculation step as a rank select over ``float64`` runs:
    one concatenation, a vectorised sortedness check and ``np.partition``
    for the rank's value.  Values that compare equal but differ in bits
    (``-0.0`` and ``0.0``) resolve in stacking order.  Handed runs in
    ``(node_id, slice_index)`` order, that is the order a k-way merge by
    full event key ``(value, node_id, seq)`` puts them in: a local's events
    carry its own id, and its slices ascend in key.

    Raises:
        CalculationError: If ``local_rank`` falls outside the values, a
            value is NaN, or a run descends (naming the first offending
            value).
    """
    return next(select_frame([(list(runs), ((None, local_rank),))]))[0]


def select_frame(windows: Sequence) -> "Iterator[tuple[float, ...]]":
    """:func:`select_rank` for every pick of a frame of windows, each a
    ``(runs, picks)`` pair: the window's value runs in stacking order, and
    its ``(runs mask, local rank)`` picks — the rank of the merged runs the
    mask (over the window's runs) names, or of all of them for ``None``.
    Every run of the frame is stacked into one array and checked once for
    a NaN and a descent; a pick selects from its window's stretch of it.
    Yields each window's values, in frame order.

    Raises:
        CalculationError: As :func:`select_rank`, at the first window in
            frame order that fails — its out-of-range local ranks before
            its values — once the windows before it are yielded.
    """
    runs = [run for window_runs, _ in windows for run in window_runs]
    lengths = [len(run) for run in runs]
    values = (
        _np.concatenate(runs, dtype=_np.float64) if runs else _np.empty(0)
    )
    # Where each window's runs and values start in the stack.
    run_starts = [0]
    value_starts = [0]
    for window_runs, _ in windows:
        end = run_starts[-1] + len(window_runs)
        value_starts.append(value_starts[-1] + sum(lengths[run_starts[-1]:end]))
        run_starts.append(end)
    # The first window whose values hold a NaN or a descent inside a run;
    # the pair straddling two runs is no constraint and is masked out.
    failing = len(windows)
    nan = _np.isnan(values.max(initial=0.0))
    descent = values[1:] < values[:-1]
    seams = _np.cumsum(lengths[:-1], dtype=_np.intp)
    descent[seams[(seams > 0) & (seams < len(values))] - 1] = False
    descends = descent.any()
    if nan or descends:
        at = len(values)
        if nan:
            at = int(_np.isnan(values).argmax())
        if descends:
            at = min(at, int(descent.argmax()) + 1)
        failing = bisect.bisect_right(value_starts, at) - 1
    for window, (_, picks) in enumerate(windows):
        lo, hi = value_starts[window], value_starts[window + 1]
        stretch = values[lo:hi]
        picked_runs = []
        for mask, local_rank in picks:
            picked = stretch
            if mask is not None:
                picked = stretch[_np.repeat(
                    mask, lengths[run_starts[window]:run_starts[window + 1]]
                )]
            if not 1 <= local_rank <= len(picked):
                raise CalculationError(
                    f"local rank {local_rank} outside the {len(picked)} "
                    "fetched events; identification and calculation "
                    "disagree"
                )
            picked_runs.append((picked, local_rank))
        if window == failing:
            if _np.isnan(stretch).any():
                raise CalculationError(
                    "candidate run holds a NaN value; a quantile needs "
                    "ordered values"
                )
            offender = float(values[int(descent[lo:].argmax()) + lo + 1])
            raise CalculationError(
                "candidate run is not sorted; local node violated the "
                f"protocol near value {offender!r}"
            )
        window_values = []
        for picked, local_rank in picked_runs:
            kth = local_rank - 1
            pivot = _np.partition(picked, kth)[kth]
            if pivot == 0.0:
                # Only zeros compare equal with other bits: the rank's
                # zero is the one at its place in stacking order.
                tied = _np.flatnonzero(picked == pivot)
                pivot = picked[tied[kth - _np.count_nonzero(picked < pivot)]]
            window_values.append(float(pivot))
        yield tuple(window_values)
