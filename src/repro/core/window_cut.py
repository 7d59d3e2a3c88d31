"""The window-cut algorithm (Section 3.2, Algorithm 1).

Given all slice synopses of a global window and the quantile rank
``k = Pos(q)``, window-cut selects the minimal set of **candidate slices**
whose events must be fetched to answer the quantile exactly, plus the exact
number of events that rank below every candidate (``n_below``) so the
calculation step can select the right element from the merged candidates.

* :func:`rank_bound_candidates` — the reference: computes per-slice rank
  bounds for every slice and keeps those whose bound interval contains
  ``k``.  Obviously correct, works on rows and :mod:`repro.core.units`.
* :func:`window_cut` / :func:`window_cut_multi` — the paper's algorithm: a
  sweep in ascending position order up to the unit containing ``k`` (the
  "scan from the edges toward the quantile position, then break" of
  Algorithm 1), pruning inside that unit with the same rank bounds.
  Cover-slices enclosed by a candidate are kept whenever their bound
  interval can reach ``k``, exactly as Section 3.2 prescribes.  One sweep,
  vectorised over a :class:`~repro.core.synopsis.SynopsisColumns` batch,
  serves any number of ranks.  Its keys are never NaN: the stream doors
  refuse a NaN value, and the batch's doors (the slicer and the wire
  decoder) a NaN boundary.

All three return identical candidates and ``n_below`` (property-tested).
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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
    """Resolve several ranks from **one** sweep over the synopses.

    Slices are visited in ascending position order (ascending ``first_key``
    after unit grouping).  Units entirely left of a rank only contribute
    their sizes to its ``n_below``; the unit whose exact rank interval
    contains it ends its sweep — the early exits of lines 7 and 14 in
    Algorithm 1 — and ``units_scanned`` counts the units up to there.
    Within that unit, compound members are kept when their rank-bound
    interval can reach the rank and cover-slices enclosed by a candidate
    are kept under the same test (Section 3.2's cover-slice rule).  N
    queries sharing a (key, window) get their N ranks from the one pass,
    each :class:`CutResult` what a sweep for that rank alone produces.

    The sweep is vectorised over the batch's columns (rows handed in are
    converted here): every key comparison is an integer one.

    Args:
        synopses: All slice synopses of the global window.
        ranks: The 1-based global ranks to locate; duplicates collapse.
        global_window_size: Optional cross-check; when provided it must
            equal the sum of synopsis counts.

    Returns:
        A :class:`CutResult` per distinct rank, keyed by rank.

    Raises:
        IdentificationError: On an empty window, no ranks, an out-of-range
            rank, a ``global_window_size`` mismatch, or a row whose first
            key ranks above its last (keys not totally ordered, e.g. a NaN
            in a batch that skipped ``validated``).
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
    for rank in pending:
        _validate_rank(rank, total)
    first, last = columns.key_ranks()
    # A slicer's cut has first <= last on every row (a bounding last key
    # ranks one below the next first key); keys that are not totally
    # ordered, in a batch that skipped ``validated``, may not.  With it,
    # every rank in range has a row that brackets it.
    unordered = _np.flatnonzero(first > last)
    if unordered.size:
        raise IdentificationError(
            f"synopsis keys are not totally ordered: row {unordered[0]}'s "
            f"first key ranks above its last"
        )
    n = len(first)
    # Sweep order: ascending (first_key, last_key), stable like ``sorted``.
    by_first = _np.lexsort((last, first))
    first, last = first[by_first], last[by_first]
    counts = columns.records["count"][by_first].astype(_np.int64)
    # A row opens a unit when its first key lies beyond every last key so
    # far; it is enclosed (a cover-slice) when an earlier row reaches at
    # least as far, or the next row starts at the same key (and, sorted
    # after it, ends no earlier).
    reach = _np.maximum.accumulate(last)
    opens = _np.ones(n + 1, dtype=bool)
    opens[1:-1] = first[1:] > reach[:-1]
    enclosed = _np.zeros(n, dtype=bool)
    enclosed[1:] = reach[:-1] >= last[1:]
    enclosed[:-1] |= first[1:] == first[:-1]
    unit_number = _np.cumsum(opens)
    # ``_cut_unit``'s rank bounds for every row at once.  Rows starting at
    # or before a row's last key are a prefix of the sweep order, rows
    # ending before its first key a prefix of ascending-last order; rows of
    # earlier units are in both prefixes and rows of later units in
    # neither, so the unit offsets come with the prefix sums.
    started = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(counts, out=started[1:])
    max_rank = started[_np.searchsorted(first, last, side="right")]
    by_last = _np.argsort(last, kind="stable")
    ended = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(counts[by_last], out=ended[1:])
    min_rank = ended[_np.searchsorted(last[by_last], first, side="left")] + 1

    cuts: dict[int, CutResult] = {}
    for rank in pending:
        # Only rows of the unit holding ``rank`` can bracket it; every row
        # of a unit below it, and nothing of a unit above, tops out short.
        chosen = _np.flatnonzero((min_rank <= rank) & (rank <= max_rank))
        head = chosen[0]
        alone = bool(opens[head] and opens[head + 1])
        covers = int(enclosed[chosen].sum())
        cuts[rank] = CutResult(
            rank=rank,
            candidates=columns.rows(by_first[chosen]),
            n_below=int(counts[max_rank < rank].sum()),
            units_scanned=int(unit_number[head]),
            kinds={
                SliceKind.SEPARATE.value: int(alone),
                SliceKind.COMPOUND.value: len(chosen) - covers - alone,
                SliceKind.COVER.value: covers,
            },
        )
    return cuts


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
