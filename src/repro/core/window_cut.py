"""The window-cut algorithm (Section 3.2, Algorithm 1).

Given all slice synopses of a global window and the quantile rank
``k = Pos(q)``, window-cut selects the minimal set of **candidate slices**
whose events must be fetched to answer the quantile exactly, plus the exact
number of events that rank below every candidate (``n_below``) so the
calculation step can select the right element from the merged candidates.

* :func:`rank_bound_candidates` — the reference: computes per-slice rank
  bounds for every slice and keeps those whose bound interval contains
  ``k``.  Obviously correct, works on rows and :mod:`repro.core.units`.
* :func:`cut_frame` — the paper's algorithm: a sweep in ascending
  position order up to the unit containing ``k`` (the "scan from the
  edges toward the quantile position, then break" of Algorithm 1),
  pruning inside that unit with the same rank bounds.  Cover-slices
  enclosed by a candidate are kept whenever their bound interval can
  reach ``k``, exactly as Section 3.2 prescribes.  One sweep, vectorised
  over a :class:`~repro.core.synopsis.SynopsisColumns` batch of a frame of
  windows, serves any number of ``(window, rank)`` picks, as arrays.  Its
  keys are never NaN: the stream doors refuse a NaN value, and the
  batch's doors (the slicer and the wire decoder) a NaN boundary.
* :func:`window_cut` / :func:`window_cut_multi` — its one-window form,
  each rank's cut a :class:`CutResult` of candidate rows.

All three return identical candidates and ``n_below`` (property-tested).
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as _np

from repro.errors import IdentificationError
from repro.core.synopsis import (
    SliceSynopsis,
    SynopsisColumns,
    as_synopsis_columns,
)
from repro.core.units import SliceKind, SliceUnit, build_units, classify_slice

# Hot-path module: the sweep reads a ``SynopsisColumns`` batch's columns
# and materialises rows for the candidates only — through
# ``SynopsisColumns.rows``, never by iterating the batch or constructing
# ``SliceSynopsis`` here (enforced by tests/test_hotpath_lint.py).

__all__ = [
    "CutResult",
    "FrameCut",
    "cut_frame",
    "rank_bound_candidates",
    "window_cut",
    "window_cut_multi",
]


@dataclass(frozen=True, slots=True)
class CutResult:
    """Outcome of candidate-slice selection for one quantile rank.

    Attributes:
        rank: The global rank ``k`` being located.
        candidates: Candidate synopses in ``(node_id, slice_index)``
            order, however they were handed in: the order the calculation
            step stacks their runs in, which is what breaks ties between
            ``-0.0`` and ``0.0`` as the full event key does.
        n_below: Events guaranteed to rank strictly below rank ``k`` that are
            *not* part of any candidate slice.  The answer is the element at
            local rank ``rank - n_below`` of the merged candidate events.
        units_scanned: How many units the algorithm examined (work metric).
        kinds: Taxonomy census of the candidate slices.
    """

    rank: int
    candidates: tuple[SliceSynopsis, ...]
    n_below: int
    units_scanned: int = 0
    kinds: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(
            sorted(self.candidates, key=attrgetter("slice_id"))
        ))

    @property
    def candidate_events(self) -> int:
        """Total events that the calculation step will transfer."""
        return sum(synopsis.count for synopsis in self.candidates)

    @property
    def candidate_ids(self) -> set[tuple[int, int]]:
        """The ``(node_id, slice_index)`` ids of all candidates."""
        return {synopsis.slice_id for synopsis in self.candidates}

    @property
    def local_rank(self) -> int:
        """Rank of the answer within the merged candidate events (1-based)."""
        return self.rank - self.n_below


def _validate_rank(rank: int, total: int) -> None:
    if total <= 0:
        raise IdentificationError("cannot cut an empty global window")
    if not 1 <= rank <= total:
        raise IdentificationError(
            f"rank {rank} outside the global window of {total} events"
        )


def _cut_unit(unit: SliceUnit, rank: int) -> tuple[list[SliceSynopsis], int]:
    """Select candidates within the unit containing ``rank``.

    Returns the candidate members (ascending key order) and the number of
    certainly-below events contributed by pruned members of this unit.
    """
    members = unit.members
    offset = unit.offset
    n = len(members)
    # Rank bounds for all members are computed together: one sorted pass
    # plus two bisects per member replaces the O(members²) pairwise
    # certainly-above/-below scans of :meth:`SliceUnit.min_rank` /
    # :meth:`SliceUnit.max_rank`, with identical results.  Members arrive
    # in ascending ``first_key`` order (``build_units`` sorts), so the
    # slices certainly above a member — ``first_key > member.last_key`` —
    # form a suffix of that order; ``cum[i]`` holds the events in
    # ``members[:i]``.
    counts = [member.count for member in members]
    first_keys = [member.first_key for member in members]
    cum = [0] * (n + 1)
    for i, count in enumerate(counts):
        cum[i + 1] = cum[i] + count
    # Certainly below — ``last_key < member.first_key`` — needs the same
    # prefix trick in ascending ``last_key`` order.
    by_last = sorted(zip((member.last_key for member in members), counts))
    last_keys = [key for key, _ in by_last]
    below_cum = [0] * (n + 1)
    for i, (_, count) in enumerate(by_last):
        below_cum[i + 1] = below_cum[i] + count
    candidates = []
    below_in_unit = 0
    for member in members:
        min_rank = (
            offset
            + below_cum[bisect.bisect_left(last_keys, member.first_key)]
            + 1
        )
        max_rank = offset + cum[
            bisect.bisect_right(first_keys, member.last_key)
        ]
        if min_rank <= rank <= max_rank:
            candidates.append(member)
        elif max_rank < rank:
            below_in_unit += member.count
    return candidates, below_in_unit


def rank_bound_candidates(
    synopses: Iterable[SliceSynopsis], rank: int
) -> CutResult:
    """Reference candidate selection via exhaustive rank bounds.

    Args:
        synopses: All slice synopses of the global window.
        rank: The 1-based global rank ``k = Pos(q)`` to locate.

    Raises:
        IdentificationError: If the window is empty or ``rank`` is out of
            range.
    """
    units = build_units(synopses)
    total = sum(unit.size for unit in units)
    _validate_rank(rank, total)

    candidates: list[SliceSynopsis] = []
    n_below = 0
    for unit in units:
        if not unit.contains_rank(rank):
            if unit.pos_end < rank:
                n_below += unit.size
            continue
        unit_candidates, below_in_unit = _cut_unit(unit, rank)
        candidates.extend(unit_candidates)
        n_below += below_in_unit
    return CutResult(
        rank=rank,
        candidates=tuple(candidates),
        n_below=n_below,
        units_scanned=len(units),
        kinds=_census(units, candidates),
    )


class FrameCut(NamedTuple):
    """Window-cut's answer to every ``(segment, rank)`` pick of a frame,
    as arrays (:func:`cut_frame`).  Pick ``i``'s candidates are the frame
    rows ``chosen[bounds[i]:bounds[i + 1]]`` of ``rows``, in sweep order,
    and ``n_below[i]`` events of its window rank below all of them.  The
    rest is the sweep, which :meth:`results` reads for the picks'
    ``units_scanned`` and taxonomy census."""

    rows: _np.ndarray
    bounds: _np.ndarray
    n_below: _np.ndarray
    #: The sweep: the picks' candidates as positions in it, each
    #: position's first- and last-key rank, and where each pick's window
    #: starts in it.
    chosen: _np.ndarray
    first: _np.ndarray
    last: _np.ndarray
    window_starts: list[int]

    def results(
        self, columns: SynopsisColumns, ranks: Sequence[int]
    ) -> list[CutResult]:
        """Every pick as a :class:`CutResult`, pick ``i`` being of rank
        ``ranks[i]`` in its window, its candidates materialised as rows."""
        first, last = self.first, self.last
        n = len(last)
        # A row opens a unit when its first key lies beyond every last key
        # of its window so far (a window's keys rank above every earlier
        # window's, so the frame's running maximum serves); it is enclosed
        # (a cover-slice) when an earlier row reaches at least as far, or
        # the next row starts at the same key (and, sorted after it, ends
        # no earlier).
        reach = _np.maximum.accumulate(last)
        opens = _np.ones(n + 1, dtype=bool)
        opens[1:-1] = first[1:] > reach[:-1]
        enclosed = _np.zeros(n, dtype=bool)
        enclosed[1:] = reach[:-1] >= last[1:]
        enclosed[:-1] |= first[1:] == first[:-1]
        unit_number = _np.cumsum(opens)
        results = []
        for pick, rank in enumerate(ranks):
            lo, hi = self.bounds[pick], self.bounds[pick + 1]
            chosen = self.chosen[lo:hi]
            head = chosen[0]
            alone = bool(opens[head] and opens[head + 1])
            covers = int(enclosed[chosen].sum())
            results.append(CutResult(
                rank=rank,
                candidates=columns.rows(self.rows[lo:hi]),
                n_below=int(self.n_below[pick]),
                units_scanned=int(
                    unit_number[head]
                    - unit_number[self.window_starts[pick]] + 1
                ),
                kinds={
                    SliceKind.SEPARATE.value: int(alone),
                    SliceKind.COMPOUND.value: len(chosen) - covers - alone,
                    SliceKind.COVER.value: covers,
                },
            ))
        return results


def cut_frame(
    columns: SynopsisColumns,
    pick_segments: Sequence[int],
    pick_ranks: Sequence[int],
    segments=None,
) -> FrameCut:
    """Window-cut per Algorithm 1 for every pick of a frame of windows, in
    **one** sweep over the frame's synopses.

    A frame is several global windows' synopses concatenated, ``segments``
    naming each row's window (non-decreasing ids from 0; ``None`` is a
    one-window frame).  Keys rank by ``(segment, value, owner,
    position)`` (:meth:`~repro.core.synopsis.SynopsisColumns.key_ranks`),
    so the frame sweeps as its windows one after another: every unit lies
    inside one window, and a window's ranks sit above the events of the
    windows before it.  Pick ``i`` locates the 1-based rank
    ``pick_ranks[i]`` of window ``pick_segments[i]``; picks are validated
    in the order given.

    Slices are visited in ascending position order (ascending
    ``first_key`` after unit grouping).  Units entirely left of a rank
    only contribute their sizes to its ``n_below``; the unit whose exact
    rank interval contains it ends its sweep — the early exits of lines 7
    and 14 in Algorithm 1.  Within that unit, compound members are kept
    when their rank-bound interval can reach the rank and cover-slices
    enclosed by a candidate are kept under the same test (Section 3.2's
    cover-slice rule).  Every key comparison is an integer one.

    Raises:
        IdentificationError: On a pick of an empty window or an
            out-of-range rank, or a row whose first key ranks above its
            last (keys not totally ordered, e.g. a NaN in a batch that
            skipped ``validated``), named by its row in its window.
    """
    counts = columns.records["count"].astype(_np.int64)
    n = len(counts)
    # Each window's first row, and the events of the windows before it.
    if segments is None:
        row_starts = [0, n]
        offsets = [0, int(counts.sum())]
    else:
        starts = _np.searchsorted(
            segments, _np.arange(max(pick_segments) + 2)
        )
        cum = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(counts, out=cum[1:])
        row_starts, offsets = starts.tolist(), cum[starts].tolist()
    before = [offsets[segment] for segment in pick_segments]
    for segment, rank in zip(pick_segments, pick_ranks):
        _validate_rank(rank, offsets[segment + 1] - offsets[segment])
    first, last = columns.key_ranks(segments)
    # A slicer's cut has first <= last on every row (a bounding last key
    # ranks one below the next first key); keys that are not totally
    # ordered, in a batch that skipped ``validated``, may not.  With it,
    # every rank in range has a row that brackets it.
    unordered = first > last
    if unordered.any():
        row = int(unordered.argmax())
        if segments is not None:
            row -= int(row_starts[segments[row]])
        raise IdentificationError(
            f"synopsis keys are not totally ordered: row {row}'s "
            f"first key ranks above its last"
        )
    # Sweep order: ascending (first_key, last_key), stable like ``sorted``;
    # window after window, as every key of a window ranks above the last.
    by_first = _np.lexsort((last, first))
    first, last = first[by_first], last[by_first]
    counts = counts[by_first]
    # ``_cut_unit``'s rank bounds for every row at once.  Rows starting at
    # or before a row's last key are a prefix of the sweep order, rows
    # ending before its first key a prefix of ascending-last order; rows of
    # earlier units — and windows — are in both prefixes and rows of later
    # ones in neither, so the offsets come with the prefix sums.
    started = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(counts, out=started[1:])
    max_rank = started[_np.searchsorted(first, last, side="right")]
    by_last = _np.argsort(last, kind="stable")
    ended = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(counts[by_last], out=ended[1:])
    min_rank = ended[_np.searchsorted(last[by_last], first, side="left")] + 1
    # Only rows of the unit holding a rank can bracket it; every row of a
    # unit below it, and nothing of a unit above, tops out short.  So a
    # pick is compared with its own window's rows only — a stretch of the
    # sweep, as the windows sweep one after another — and the work grows
    # with the frame's size, not its square.  Each (pick, row) pair:
    lo = _np.array([row_starts[s] for s in pick_segments], dtype=_np.intp)
    widths = _np.array(
        [row_starts[s + 1] for s in pick_segments], dtype=_np.intp
    ) - lo
    pair_starts = _np.zeros(len(lo), dtype=_np.intp)
    _np.cumsum(widths[:-1], out=pair_starts[1:])
    row = _np.arange(int(widths.sum())) + _np.repeat(lo - pair_starts, widths)
    # In frame ranks, a window's rank is above the events of the windows
    # before it.
    column = _np.repeat(
        _np.array(before, dtype=_np.int64)
        + _np.array(pick_ranks, dtype=_np.int64),
        widths,
    )
    short = max_rank[row] < column
    hit = _np.flatnonzero((min_rank[row] <= column) & ~short)
    chosen = row[hit]
    return FrameCut(
        rows=by_first[chosen],
        bounds=_np.searchsorted(hit, _np.append(pair_starts, len(row))),
        n_below=_np.add.reduceat(short * counts[row], pair_starts),
        chosen=chosen,
        first=first,
        last=last,
        window_starts=[row_starts[segment] for segment in pick_segments],
    )


def window_cut(
    synopses: "SynopsisColumns | Iterable[SliceSynopsis]",
    rank: int,
    *,
    global_window_size: int | None = None,
) -> CutResult:
    """Window-cut per Algorithm 1 for one rank: :func:`window_cut_multi`
    with ``(rank,)``, same arguments and errors."""
    return window_cut_multi(
        synopses, (rank,), global_window_size=global_window_size
    )[rank]


def window_cut_multi(
    synopses: "SynopsisColumns | Iterable[SliceSynopsis]",
    ranks: Sequence[int],
    *,
    global_window_size: int | None = None,
) -> dict[int, CutResult]:
    """Resolve several ranks of one global window from **one** sweep: the
    one-window frame of :func:`cut_frame`, each pick as a
    :class:`CutResult`.  N queries sharing a (key, window) get their N
    ranks from the one pass, each result what a sweep for that rank alone
    produces.  Rows handed in are converted to a batch here.

    Args:
        synopses: All slice synopses of the global window.
        ranks: The 1-based global ranks to locate; duplicates collapse.
        global_window_size: Optional cross-check; when provided it must
            equal the sum of synopsis counts.

    Returns:
        A :class:`CutResult` per distinct rank, keyed by rank.

    Raises:
        IdentificationError: On no ranks, a ``global_window_size``
            mismatch, or what :func:`cut_frame` refuses (checked in
            ascending rank order).
    """
    if not ranks:
        raise IdentificationError("need at least one rank to cut for")
    columns = as_synopsis_columns(synopses)
    total = columns.event_count()
    if global_window_size is not None and global_window_size != total:
        raise IdentificationError(
            f"synopses cover {total} events but the global window reports "
            f"{global_window_size}"
        )
    pending = sorted(set(ranks))
    cut = cut_frame(columns, [0] * len(pending), pending)
    return dict(zip(pending, cut.results(columns, pending)))


def _census(
    units: Sequence[SliceUnit], candidates: Sequence[SliceSynopsis]
) -> dict:
    """Count candidate slices by taxonomy kind."""
    chosen = {synopsis.slice_id for synopsis in candidates}
    counts = {kind.value: 0 for kind in SliceKind}
    for unit in units:
        for member in unit.members:
            if member.slice_id in chosen:
                counts[classify_slice(unit, member).value] += 1
    return counts
