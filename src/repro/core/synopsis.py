"""Slice synopses: the unit of information in Dema's identification step.

A synopsis describes one slice of a locally sorted window: its first and
last event keys, how many events it holds, which slice of how many it is, and
which node owns it.  The root node reasons about quantile ranks exclusively
through synopses; the events themselves stay at the local node until the
calculation step requests them.

Two representations, one per grain.  :class:`SliceSynopsis` is the *row*:
what a :class:`~repro.core.window_cut.CutResult` hands out as a candidate
and what tests build by hand.  :class:`SynopsisColumns` is the *batch*: all
of a local window's synopses as one structured ndarray whose packed dtype
is the 48-byte wire record, so the slicer writes it with a handful of
column assignments, the codec moves it with ``tobytes``/``frombuffer``, the
relay passes it through and window-cut reads its columns — rows are only
materialised for the few candidates.
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
    "RELAY_SYNOPSIS_DTYPE",
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
        first_key: Total-order key of the smallest event in the slice.
        last_key: Total-order key of the largest event in the slice.
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


#: The wire layout of one synopsis as a numpy structured dtype.  Packed
#: (no padding), little-endian — ``frombuffer`` of a synopsis payload and
#: ``tobytes`` of a batch are byte-identical to ``struct`` with
#: :data:`repro.runtime.wire.SYNOPSIS`.
SYNOPSIS_DTYPE = _np.dtype(
    [
        ("first_value", "<f8"),
        ("first_node", "<u4"),
        ("first_seq", "<u4"),
        ("last_value", "<f8"),
        ("last_node", "<u4"),
        ("last_seq", "<u4"),
        ("count", "<u4"),
        ("slice_index", "<u4"),
        ("n_slices", "<u4"),
        ("node_id", "<u4"),
    ]
)
assert SYNOPSIS_DTYPE.itemsize == wire.SYNOPSIS_WIRE_BYTES

#: The compact record of a relay-combined section
#: (:data:`repro.runtime.wire.RELAY_SYNOPSIS`): the leading fields of
#: :data:`SYNOPSIS_DTYPE` up to ``count``.  ``slice_index`` / ``n_slices``
#: are a row's position and the section's length, ``node_id`` the section
#: header's — exactly what :meth:`SynopsisColumns.validated` demands.
RELAY_SYNOPSIS_DTYPE = _np.dtype(SYNOPSIS_DTYPE.descr[:7])
assert RELAY_SYNOPSIS_DTYPE.itemsize == wire.RELAY_SYNOPSIS_WIRE_BYTES


def _row(record: tuple) -> SliceSynopsis:
    """One wire record (as Python scalars) as a synopsis row."""
    fv, fn, fs, lv, ln, ls, count, slice_index, n_slices, node_id = record
    return SliceSynopsis(
        first_key=(fv, fn, fs),
        last_key=(lv, ln, ls),
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
    several); the doors that admit a batch — the slicer and both wire
    decoders — call :meth:`validated`.
    """

    __slots__ = ("records",)

    def __init__(self, records) -> None:
        #: One structured ndarray of :data:`SYNOPSIS_DTYPE` records.
        self.records = records

    # -- construction ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[SliceSynopsis]) -> "SynopsisColumns":
        """Build a batch from synopsis rows (tests and cold paths)."""
        return cls(
            _np.array(
                [
                    (*s.first_key, *s.last_key, s.count, s.slice_index,
                     s.n_slices, s.node_id)
                    for s in rows
                ],
                dtype=SYNOPSIS_DTYPE,
            )
        )

    @classmethod
    def from_wire(
        cls, raw: "bytes | memoryview", count: int, node_id: int
    ) -> "SynopsisColumns":
        """Zero-copy view over a wire synopsis array (``count`` × 48 bytes)
        that must be node ``node_id``'s complete batch.

        Raises:
            CodecError: If the byte length disagrees with ``count``, or a
                record fails :meth:`validated`.
        """
        _check_length(raw, count, wire.SYNOPSIS_WIRE_BYTES)
        batch = cls(_np.frombuffer(raw, dtype=SYNOPSIS_DTYPE))
        return batch.validated(node_id, CodecError)

    @classmethod
    def from_relay_wire(
        cls, raw: "bytes | memoryview", count: int, node_id: int
    ) -> "SynopsisColumns":
        """One relay section (``count`` × 36 bytes) as node ``node_id``'s
        batch, the dropped fields rebuilt from position and header.

        Raises:
            CodecError: As :meth:`from_wire`.
        """
        _check_length(raw, count, wire.RELAY_SYNOPSIS_WIRE_BYTES)
        compact = _np.frombuffer(raw, dtype=RELAY_SYNOPSIS_DTYPE)
        records = _np.empty(count, dtype=SYNOPSIS_DTYPE)
        for name in RELAY_SYNOPSIS_DTYPE.names:
            records[name] = compact[name]
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
        fn, ln = arr["first_node"], arr["last_node"]
        checks = (
            ("count must be >= 1", arr["count"] < 1),
            (
                "first_key exceeds last_key",
                (fv > lv) | ((fv == lv) & (
                    (fn > ln)
                    | ((fn == ln) & (arr["first_seq"] > arr["last_seq"]))
                )),
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
        ``<=`` and ``==`` on ranks are those of the ``(value, node_id,
        seq)`` tuples.  Meaningless if :meth:`has_nan`."""
        arr = self.records
        values = _np.concatenate((arr["first_value"], arr["last_value"]))
        nodes = _np.concatenate((arr["first_node"], arr["last_node"]))
        seqs = _np.concatenate((arr["first_seq"], arr["last_seq"]))
        # A batch is a few nodes' slices, each node's in key order: on
        # sorted runs numpy's mergesort beats its unstable kernel (0.41
        # vs 0.70 ms for 40,000 keys; on random keys 3.1 vs 0.5).
        order = _key_order(values, nodes, seqs, kind="stable")
        values = values[order]
        nodes, seqs = nodes[order], seqs[order]
        distinct = _np.ones(len(order), dtype=_np.intp)
        distinct[1:] = (
            (values[1:] != values[:-1])
            | (nodes[1:] != nodes[:-1])
            | (seqs[1:] != seqs[:-1])
        )
        ranks = _np.empty(len(order), dtype=_np.intp)
        ranks[order] = _np.cumsum(distinct)
        return ranks[:len(arr)], ranks[len(arr):]

    # -- wire -----------------------------------------------------------

    def to_wire(self) -> bytes:
        """The batch's wire synopsis array — byte-identical to packing
        each row with :data:`repro.runtime.wire.SYNOPSIS` in order."""
        return _np.ascontiguousarray(self.records).tobytes()

    def to_relay_wire(self) -> bytes:
        """The batch as compact relay-section records
        (:data:`repro.runtime.wire.RELAY_SYNOPSIS` per row)."""
        compact = _np.empty(len(self.records), dtype=RELAY_SYNOPSIS_DTYPE)
        for name in RELAY_SYNOPSIS_DTYPE.names:
            compact[name] = self.records[name]
        return compact.tobytes()


def _check_length(raw, count: int, stride: int) -> None:
    if len(raw) != count * stride:
        raise CodecError(
            f"synopsis array of {len(raw)} bytes does not hold the "
            f"announced {count} synopses ({count * stride} bytes)"
        )


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
