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
its local's id (the stream doors check it) — so only the paper's
``(first, last, count)`` travels; owner and positions are rebuilt.

Two representations, one per grain.  :class:`SliceSynopsis` is the *row*:
what a :class:`~repro.core.window_cut.CutResult` hands out as a candidate
and what tests build by hand.  :class:`SynopsisColumns` is the *batch*: all
of a local window's synopses as one structured ndarray whose leading 20
bytes per record are the wire record, so the slicer writes it with a
handful of column assignments, the codec moves it with one strided copy,
the relay passes it through and window-cut reads its columns — rows are
only materialised for the few candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as _np

from repro.errors import CodecError, SliceError
from repro.runtime import wire
from repro.streaming.columns import _key_order, concat_records
from repro.streaming.events import EventKey

# Hot-path module: a batch of synopses is one array end to end; the only
# ``SliceSynopsis`` constructor call is the row materialiser ``_row``
# (enforced by tests/test_hotpath_lint.py).

__all__ = [
    "SYNOPSIS_DTYPE",
    "SliceSynopsis",
    "SynopsisColumns",
    "as_synopsis_columns",
    "concat_synopses",
]


@dataclass(frozen=True, slots=True)
class SliceSynopsis:
    """Summary of one sorted slice of a local window.

    Attributes:
        first_key: Key ``(value, owner, position)`` of the smallest event
            in the slice: its value, the owning node, and its row in the
            owner's sorted window.
        last_key: The same key of the largest event in the slice.
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
        if self.first_key > self.last_key:
            raise SliceError(
                f"slice first_key {self.first_key} exceeds last_key "
                f"{self.last_key}"
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

    def overlaps(self, other: "SliceSynopsis") -> bool:
        """Whether the two inclusive key ranges share any key."""
        return (
            self.first_key <= other.last_key
            and other.first_key <= self.last_key
        )

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


#: One synopsis in memory: the wire record (:data:`repro.runtime.wire.
#: SYNOPSIS`), then what a decoder rebuilds from the sender and the counts
#: — both keys' positions, slice index and total, and the owner (the keys'
#: second component).  40 bytes keep every field aligned.
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

#: A record's wire prefix as one opaque unit, and a record viewed as its
#: prefix: a batch packs and unpacks with one strided copy, not one a field.
_WIRE_VOID = _np.dtype((_np.void, wire.SYNOPSIS_WIRE_BYTES))
_AS_WIRE = _np.dtype({"names": ["wire"], "formats": [_WIRE_VOID],
                      "itemsize": SYNOPSIS_DTYPE.itemsize})
assert _np.dtype(SYNOPSIS_DTYPE.descr[:3]).itemsize == _WIRE_VOID.itemsize


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
    several); the doors that admit a batch — the slicer and the wire
    decoder — call :meth:`validated`.
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
        cls, raw: "bytes | memoryview", count: int, node_id: int
    ) -> "SynopsisColumns":
        """Node ``node_id``'s complete batch from ``count`` wire records
        (``count`` × 20 bytes), the rest rebuilt: owner ``node_id``, row
        ``i`` as slice ``i`` of ``count``, and key positions from the
        running sum of the counts.

        Raises:
            CodecError: If the byte length disagrees with ``count``, the
                counts overrun a ``u32`` position, or a record fails
                :meth:`validated`.
        """
        if len(raw) != count * wire.SYNOPSIS_WIRE_BYTES:
            raise CodecError(
                f"synopsis array of {len(raw)} bytes does not hold the "
                f"announced {count} synopses of 20 bytes"
            )
        records = _np.empty(count, dtype=SYNOPSIS_DTYPE)
        records.view(_AS_WIRE)["wire"] = _np.frombuffer(raw, _WIRE_VOID)
        counts = records["count"]
        ends = _np.cumsum(counts, dtype=_np.uint64)
        if count and ends[-1] > 2**32:
            raise CodecError("synopsis counts overrun a u32 position")
        _np.subtract(ends, counts, out=records["first_pos"], casting="unsafe")
        _np.subtract(ends, 1, out=records["last_pos"], casting="unsafe")
        records["slice_index"] = _np.arange(count, dtype="<u4")
        records["n_slices"] = count
        records["node_id"] = node_id
        return cls(records).validated(node_id, CodecError)

    def validated(self, node_id: int, error: type) -> "SynopsisColumns":
        """This batch, checked in one vectorised pass to be what a local
        node cuts from one window: every count ≥ 1, no first key above its
        last key (the comparison :class:`SliceSynopsis` makes per row),
        row ``i`` labelled slice ``i`` of ``len(self)``, all owned by
        ``node_id``.

        Raises:
            error: Naming the first offending row.
        """
        arr = self.records
        n = len(arr)
        fv, lv = arr["first_value"], arr["last_value"]
        checks = (
            ("count must be >= 1", arr["count"] < 1),
            (
                "first_key exceeds last_key",
                (fv > lv) | ((fv == lv) & (arr["first_pos"] > arr["last_pos"])),
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
        """Rowwise equality against any synopsis sequence, with object
        semantics (a NaN key is unequal to itself).  Also invoked
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

    def has_nan(self) -> bool:
        arr = self.records
        return bool(
            _np.isnan(arr["first_value"]).any()
            or _np.isnan(arr["last_value"]).any()
        )

    def key_ranks(self):
        """Dense ranks of the rows' first and last keys among all ``2n``
        of them, as two integer arrays: equal keys share a rank, so ``<``,
        ``<=`` and ``==`` on ranks are those of the ``(value, owner,
        position)`` tuples.  Meaningless if :meth:`has_nan`."""
        arr = self.records
        values = _np.concatenate((arr["first_value"], arr["last_value"]))
        owners = _np.concatenate((arr["node_id"], arr["node_id"]))
        positions = _np.concatenate((arr["first_pos"], arr["last_pos"]))
        # A batch is a few nodes' slices, each node's in key order: on
        # sorted runs numpy's mergesort beats its unstable kernel (0.41
        # vs 0.70 ms for 40,000 keys; on random keys 3.1 vs 0.5).
        order = _key_order(values, owners, positions, kind="stable")
        values = values[order]
        owners, positions = owners[order], positions[order]
        distinct = _np.ones(len(order), dtype=_np.intp)
        distinct[1:] = (
            (values[1:] != values[:-1])
            | (owners[1:] != owners[:-1])
            | (positions[1:] != positions[:-1])
        )
        ranks = _np.empty(len(order), dtype=_np.intp)
        ranks[order] = _np.cumsum(distinct)
        return ranks[:len(arr)], ranks[len(arr):]

    # -- wire -----------------------------------------------------------

    def to_wire(self) -> bytes:
        """The batch's wire synopsis array — byte-identical to packing
        each row's first value, last value and count with
        :data:`repro.runtime.wire.SYNOPSIS` in order."""
        return self.records.view(_AS_WIRE)["wire"].tobytes()


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
