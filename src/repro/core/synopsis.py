"""Slice synopses: the unit of information in Dema's identification step.

A synopsis describes one slice of a locally sorted window: its first and
last keys, how many events it holds, which slice of how many it is, and
which node owns it.  The root node reasons about quantile ranks exclusively
through synopses; the events themselves stay at the local node until the
calculation step requests them.

A synopsis key is ``(value, owner, position)``: the event's value, the
local that owns the slice and the event's row in that local's sorted
window.  It orders events as ``(value, node_id, seq)`` does — within a
local the window is sorted by that key, across locals every event carries
its local's id (the stream doors check it).

A non-final slice's last key is an **upper bound**, not its largest
event: ``(first value of the next slice, owner, last position of this
slice)``.  It is at least the true last key and strictly below the next
slice's first key (the positions differ), so a local's slices stay
disjoint in key order and every rank bound window-cut derives stays
sound, only looser.  The final slice keeps its true maximum.  So a local
ships its slice *boundaries* — every slice's first value plus the
window's maximum, n + 1 values for n slices, next to its window size and
γ — and the counts, positions and last keys are rebuilt.  This departs
from the paper's synopsis (PAPER §3.1: first event, last event, count).

Two representations, one per grain.  :class:`SliceSynopsis` is the *row*:
what a :class:`~repro.core.window_cut.CutResult` hands out as a candidate
and what tests build by hand.  :class:`SynopsisColumns` is the *batch*: all
of a local window's synopses as one structured ndarray, so the slicer
writes it with a handful of column assignments, the codec packs its
boundary column, the relay passes it through and window-cut reads its
columns — rows are only materialised for the few candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as _np

from repro.errors import CodecError, SliceError
from repro.runtime import wire
from repro.streaming.columns import concat_records
from repro.streaming.events import EventKey

# Hot-path module: a batch of synopses is one array end to end; the only
# ``SliceSynopsis`` constructor call is the row materialiser ``_row``
# (enforced by tests/test_hotpath_lint.py).

__all__ = [
    "MIN_GAMMA",
    "SYNOPSIS_DTYPE",
    "SliceSynopsis",
    "SynopsisColumns",
    "as_synopsis_columns",
    "concat_synopses",
    "slice_bounds",
    "slice_count",
]

#: Every slice must hold at least two events (Section 3.1), hence γ ≥ 2.
MIN_GAMMA = 2


def slice_count(size: int, gamma: int) -> int:
    """How many slices the slicer cuts a ``size``-event window into at
    ``gamma``: γ events each, a trailing one-event remainder folded into
    the slice before it.  ``gamma`` must be ≥ 1 unless ``size <= 1``."""
    if size <= 1:
        return size
    n = -(-size // gamma)
    return n - 1 if n > 1 and size - (n - 1) * gamma == 1 else n


def slice_bounds(size: int, gamma: int) -> _np.ndarray:
    """The slicer's cut as row bounds: slice ``i`` of the
    :func:`slice_count` slices is rows ``bounds[i]:bounds[i + 1]``."""
    n = slice_count(size, gamma)
    bounds = _np.arange(n + 1, dtype=_np.int64)
    bounds *= gamma
    bounds[n] = size
    return bounds


@dataclass(frozen=True, slots=True)
class SliceSynopsis:
    """Summary of one sorted slice of a local window.

    Attributes:
        first_key: Key ``(value, owner, position)`` of the smallest event
            in the slice: its value, the owning node, and its row in the
            owner's sorted window.
        last_key: An upper bound on the same key of the largest event
            in the slice: for a non-final slice the next slice's first
            value with this slice's last position, for the final slice
            its largest event's key.
        count: Number of events in the slice (≥ 1; ≥ 2 for non-final
            slices per the paper, enforced by the slicer, not here).
        node_id: Local node that owns the slice.
        slice_index: 0-based position of the slice within its window.
        n_slices: Total number of slices the window was cut into.
    """

    first_key: EventKey
    last_key: EventKey
    count: int
    node_id: int
    slice_index: int
    n_slices: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SliceError(f"slice count must be >= 1, got {self.count}")
        if not self.first_key <= self.last_key:
            raise SliceError(
                f"slice first_key {self.first_key} exceeds last_key "
                f"{self.last_key}, or a key is NaN"
            )
        if not 0 <= self.slice_index < self.n_slices:
            raise SliceError(
                f"slice_index {self.slice_index} out of range for "
                f"{self.n_slices} slices"
            )

    @property
    def slice_id(self) -> tuple[int, int]:
        """Globally unique id of the slice: ``(node_id, slice_index)``."""
        return (self.node_id, self.slice_index)

    @property
    def first_value(self) -> float:
        """Value component of the smallest event."""
        return self.first_key[0]

    @property
    def last_value(self) -> float:
        """Value component of the largest event."""
        return self.last_key[0]

    def encloses(self, other: "SliceSynopsis") -> bool:
        """Whether ``other``'s key range lies entirely within this one."""
        return (
            self.first_key <= other.first_key
            and other.last_key <= self.last_key
        )

    def certainly_below(self, other: "SliceSynopsis") -> bool:
        """Whether every event here is strictly smaller than all of ``other``."""
        return self.last_key < other.first_key

    def certainly_above(self, other: "SliceSynopsis") -> bool:
        """Whether every event here is strictly larger than all of ``other``."""
        return self.first_key > other.last_key


#: One synopsis in memory: the first value and the (bounding) last value
#: — a local's boundaries on the wire — then what a decoder rebuilds from
#: the local size, γ and the owner: count, both keys' positions, slice
#: index and total, and the owner (the keys' second component).  40 bytes
#: keep every field aligned.
SYNOPSIS_DTYPE = _np.dtype(
    [
        ("first_value", "<f8"),
        ("last_value", "<f8"),
        ("count", "<u4"),
        ("first_pos", "<u4"),
        ("last_pos", "<u4"),
        ("slice_index", "<u4"),
        ("n_slices", "<u4"),
        ("node_id", "<u4"),
    ]
)

#: Why a row whose first key is not at or below its last key is refused.
_INVERTED = "first_key exceeds last_key, or a key is NaN"


def _row(record: tuple) -> SliceSynopsis:
    """One in-memory record (as Python scalars) as a synopsis row."""
    fv, lv, count, fp, lp, slice_index, n_slices, node_id = record
    return SliceSynopsis(
        first_key=(fv, node_id, fp),
        last_key=(lv, node_id, lp),
        count=count,
        node_id=node_id,
        slice_index=slice_index,
        n_slices=n_slices,
    )


class SynopsisColumns:
    """One immutable batch of synopses in columnar form.

    Behaves as a read-only :class:`Sequence` of :class:`SliceSynopsis` —
    ``len``, integer indexing and iteration materialise rows, ``==``
    holds against any sequence of equal rows — while ``records`` exposes
    the columns to vectorised consumers.  Holding one says nothing about
    the rows being a *complete* local batch (window-cut concatenates
    several); the slicer admits a batch through :meth:`validated`, the
    wire decoder through the one check the wire can fail.
    """

    __slots__ = ("records",)

    def __init__(self, records) -> None:
        #: One structured ndarray of :data:`SYNOPSIS_DTYPE` records.
        self.records = records

    # -- construction ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[SliceSynopsis]) -> "SynopsisColumns":
        """Build a batch from synopsis rows (tests and cold paths).

        Raises:
            SliceError: If a key's second component is not the row's
                owner — a record holds the owner once.
        """
        rows = list(rows)
        if any(s.node_id != s.first_key[1] or s.node_id != s.last_key[1]
               for s in rows):
            raise SliceError("a synopsis key must name the slice's owner")
        return cls(_np.array([
            (s.first_key[0], s.last_key[0], s.count, s.first_key[2],
             s.last_key[2], s.slice_index, s.n_slices, s.node_id)
            for s in rows
        ], dtype=SYNOPSIS_DTYPE))

    @classmethod
    def from_wire(
        cls, raw: "bytes | memoryview", node_id: int
    ) -> "tuple[SynopsisColumns, int, int]":
        """Decode the :data:`~repro.runtime.wire.SYNOPSIS_SECTION` at the
        head of ``raw`` as node ``node_id``'s complete batch.

        The counts and key positions are the slicer's cut of the local
        size at γ, row ``i`` is slice ``i`` of them, its first value
        boundary ``i`` and its last value boundary ``i + 1`` (the final
        one the window's maximum), all owned by ``node_id``.

        Returns:
            The batch, the local window size, and the bytes the section
            took from ``raw``.

        Raises:
            CodecError: If the section is cut short, its size overruns a
                ``u32`` position, γ < 2 would cut more than one slice, or
                the boundaries descend or hold a NaN (named as
                :meth:`validated` names an inverted row).
        """
        head = wire.SYNOPSIS_SECTION_BYTES
        if len(raw) < head:
            raise CodecError(
                f"synopsis section truncated: need {head} bytes, "
                f"have {len(raw)}"
            )
        size, gamma = wire.SYNOPSIS_SECTION.unpack_from(raw)
        if size > 2**32:
            raise CodecError(f"local size {size} overruns a u32 position")
        if gamma < MIN_GAMMA and size > 1:
            raise CodecError(
                f"gamma {gamma} < {MIN_GAMMA} cannot cut {size} events "
                "into slices of at least two"
            )
        n = slice_count(size, gamma)
        end = head + (n + 1 if n else 0) * wire.F64_BYTES
        if len(raw) < end:
            raise CodecError(
                f"synopsis section truncated: {n} slices need {end} bytes, "
                f"have {len(raw)}"
            )
        boundaries = _np.frombuffer(raw[head:end], dtype="<f8")
        bounds = slice_bounds(size, gamma)
        records = _np.empty(n, dtype=SYNOPSIS_DTYPE)
        records["first_value"] = boundaries[:-1]
        records["last_value"] = boundaries[1:]
        records["count"] = bounds[1:] - bounds[:-1]
        records["first_pos"] = bounds[:-1]
        records["last_pos"] = bounds[1:] - 1
        records["slice_index"] = _np.arange(n, dtype="<u4")
        records["n_slices"] = n
        records["node_id"] = node_id
        # The decoder wrote every count, label, owner and position from the
        # cut: only the boundaries came off the wire.  Row ``i`` spans
        # boundaries ``i`` and ``i + 1``, which must ascend (a NaN does not).
        bad = ~(boundaries[:-1] <= boundaries[1:])
        if bad.any():
            raise CodecError(
                f"synopsis {int(bad.argmax())} of {n} is malformed: "
                f"{_INVERTED}"
            )
        return cls(records), size, end

    def validated(self, node_id: int, error: type) -> "SynopsisColumns":
        """This batch, checked in one vectorised pass to be what a local
        node cuts from one window: every count ≥ 1, every first key at or
        below its last key (a NaN key is neither), row ``i`` labelled
        slice ``i`` of ``len(self)``, all owned by ``node_id``.

        Raises:
            error: Naming the first offending row.
        """
        arr = self.records
        n = len(arr)
        fv, lv = arr["first_value"], arr["last_value"]
        checks = (
            ("count must be >= 1", arr["count"] < 1),
            (
                _INVERTED,
                ~(fv <= lv)
                | ((fv == lv) & (arr["first_pos"] > arr["last_pos"])),
            ),
            (
                f"not labelled as slice <row> of {n} (complete, ordered batch)",
                (arr["slice_index"] != _np.arange(n, dtype="<u4"))
                | (arr["n_slices"] != n),
            ),
            (f"not owned by node {node_id}", arr["node_id"] != node_id),
        )
        bad = checks[0][1]
        for _, mask in checks[1:]:
            bad = bad | mask
        if bad.any():
            row = int(bad.argmax())
            reason = next(text for text, mask in checks if mask[row])
            raise error(f"synopsis {row} of {n} is malformed: {reason}")
        return self

    # -- sequence protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SynopsisColumns(self.records[index])
        return _row(self.records[index].item())

    def __iter__(self) -> Iterator[SliceSynopsis]:
        return iter(self.rows(slice(None)))

    def rows(self, indices) -> tuple[SliceSynopsis, ...]:
        """The rows ``records[indices]`` selects, materialised — how
        window-cut hands out its few candidates without iterating."""
        return tuple(map(_row, self.records[indices].tolist()))

    def __eq__(self, other) -> bool:
        """Rowwise equality against any synopsis sequence.  Also invoked
        *reflected* when a message built with a tuple of rows is compared
        to its decoded, columnar twin."""
        if other is self:
            return True
        if isinstance(other, (SynopsisColumns, tuple, list)):
            return len(other) == len(self) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __hash__(self) -> int:
        # Equal to the hash of the equivalent tuple of rows, so a frozen
        # message hashes identically whichever form it carries.
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"SynopsisColumns(n={len(self)})"

    # -- columns --------------------------------------------------------

    def event_count(self) -> int:
        """Events covered by the batch: the sum of the slice counts."""
        return int(self.records["count"].sum(dtype=_np.int64))

    def key_ranks(self, segments=None):
        """Ranks of the rows' first and last keys among all ``2n`` of them,
        as two integer arrays: equal keys share a rank, so ``<``, ``<=``
        and ``==`` on ranks are those of the ``(value, owner, position)``
        tuples (:meth:`validated` refuses a NaN key).

        ``segments``, a non-decreasing window id per row, ranks the keys
        of a frame of windows by ``(segment, value, owner, position)``:
        every key of a window ranks above every key of the windows before
        it, and keys of two windows never tie.

        A bounding last key — the next row's first value, same owner, one
        position lower — has no key between it and that first key, so it
        is not sorted: it ranks one below the first key, and every sorted
        key at twice its dense rank.  Sorting only the rest keeps the
        boundaries' value ties out of the sort (they would take it to a
        full three-key ``lexsort``)."""
        arr = self.records
        n = len(arr)
        fv, lv = arr["first_value"], arr["last_value"]
        owners, fp, lp = arr["node_id"], arr["first_pos"], arr["last_pos"]
        bound = _np.zeros(n, dtype=bool)
        bound[:-1] = (
            (lv[:-1] == fv[1:])
            & (owners[:-1] == owners[1:])
            & (fp[1:].astype(_np.int64) - lp[:-1] == 1)
        )
        if segments is not None:
            bound[:-1] &= segments[:-1] == segments[1:]
        ranked = ~bound
        keys, starts, ranks = _dense_ranks(
            _np.concatenate((fv, lv[ranked])),
            _np.concatenate((owners, owners[ranked])),
            _np.concatenate((fp, lp[ranked])),
            None if segments is None
            else _np.concatenate((segments, segments[ranked])),
        )
        first = 2 * ranks[:n]
        last = _np.empty(n, dtype=_np.intp)
        last[ranked] = 2 * ranks[n:]
        last[bound] = first[1:][bound[:-1]] - 1
        # Only a key equal to a bound could lie between it and its first
        # key: the sorted key just below that first key's run of equals.
        # No slicer cut holds one; a hand-built batch may, and then every
        # key is sorted.
        below = starts[ranks[1:n][bound[:-1]] - 1] - 1
        equal = (
            (keys[0][below] == lv[bound])
            & (keys[1][below] == owners[bound])
            & (keys[2][below] == lp[bound])
        )
        if segments is not None:
            equal &= keys[3][below] == segments[bound]
        if equal.any():
            _, _, ranks = _dense_ranks(
                _np.concatenate((fv, lv)),
                _np.concatenate((owners, owners)),
                _np.concatenate((fp, lp)),
                None if segments is None
                else _np.concatenate((segments, segments)),
            )
            return ranks[:n], ranks[n:]
        return first, last

    # -- wire -----------------------------------------------------------

    def to_wire(self, local_window_size: int) -> bytes:
        """The batch as its local's :data:`~repro.runtime.wire.
        SYNOPSIS_SECTION`: ``local_window_size``, γ — the first slice's
        count, which is γ whenever there are two or more slices — and the
        boundaries, every first value then the final last value.

        Raises:
            CodecError: If the batch is not one slicer cut of
                ``local_window_size`` events at that γ: a count differs
                from the cut's, or a non-final last value is not the next
                slice's first value bit for bit.
        """
        arr = self.records
        n = len(arr)
        counts = arr["count"]
        gamma = int(counts[0]) if n else 0
        boundaries = _np.empty(n + 1 if n else 0, dtype="<f8")
        boundaries[:n] = arr["first_value"]
        boundaries[n:] = arr["last_value"][-1:]
        if (
            (gamma < MIN_GAMMA and local_window_size > 1)
            or slice_count(local_window_size, gamma) != n
            or (n and int(counts[-1]) != local_window_size - gamma * (n - 1))
            # Bytes compared, not elements: no per-element ufunc pass.
            or counts[1:-1].tobytes() != wire.U32.pack(gamma) * (n - 2)
            or arr["last_value"][:-1].tobytes() != boundaries[1:n].tobytes()
        ):
            raise CodecError(
                f"{n} synopses are not one slicer cut of "
                f"{local_window_size} events at gamma {gamma}"
            )
        return (
            wire.SYNOPSIS_SECTION.pack(local_window_size, gamma)
            + boundaries.tobytes()
        )


def _dense_ranks(values, owners, positions, segments=None):
    """Sort ``(value, owner, position)`` keys — ``(segment, value, owner,
    position)`` with ``segments`` — : the keys in order, where in it each
    run of equal keys starts, and each key's dense rank from 1 (equal keys
    share one)."""
    # A batch is a few nodes' slices, each node's in key order: on sorted
    # runs numpy's mergesort beats its unstable kernel (0.41 vs 0.70 ms for
    # 40,000 keys; on random keys 3.1 vs 0.5).  Only tied values need the
    # rest of the key.
    order = _np.argsort(values, kind="stable")
    columns = (positions, owners, values)
    if segments is not None:
        # Stable, so each window's keys keep their value order.
        order = order[_np.argsort(segments[order], kind="stable")]
        columns += (segments,)
    ranked = values[order]
    tied = ranked[1:] == ranked[:-1]
    if segments is not None:
        window = segments[order]
        tied &= window[1:] == window[:-1]
    if tied.any():
        order = _np.lexsort(columns)
    keys = tuple(column[order] for column in columns[2::-1] + columns[3:])
    distinct = _np.ones(len(order), dtype=_np.intp)
    distinct[1:] = (
        (keys[0][1:] != keys[0][:-1])
        | (keys[1][1:] != keys[1][:-1])
        | (keys[2][1:] != keys[2][:-1])
    )
    if segments is not None:
        distinct[1:] |= keys[3][1:] != keys[3][:-1]
    ranks = _np.empty(len(order), dtype=_np.intp)
    ranks[order] = _np.cumsum(distinct)
    return keys, _np.flatnonzero(distinct), ranks


def as_synopsis_columns(
    synopses: "SynopsisColumns | Iterable[SliceSynopsis]",
) -> SynopsisColumns:
    """``synopses`` as a batch: itself if columnar, else built from rows."""
    if isinstance(synopses, SynopsisColumns):
        return synopses
    return SynopsisColumns.from_rows(synopses)


def concat_synopses(batches: Sequence[SynopsisColumns]) -> SynopsisColumns:
    """Concatenate batches in order."""
    if len(batches) == 1:
        return batches[0]
    return SynopsisColumns(
        concat_records([batch.records for batch in batches], SYNOPSIS_DTYPE)
    )
