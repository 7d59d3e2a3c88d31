"""The window-cut algorithm (Section 3.2, Algorithm 1).

Given all slice synopses of a global window and the quantile rank
``k = Pos(q)``, window-cut selects the minimal set of **candidate slices**
whose events must be fetched to answer the quantile exactly, plus the exact
number of events that rank below every candidate (``n_below``) so the
calculation step can select the right element from the merged candidates.

* :func:`rank_bound_candidates` — the reference: computes per-slice rank
  bounds for every slice and keeps those whose bound interval contains
  ``k``.  Obviously correct, works on rows and :mod:`repro.core.units`.
* :func:`cut_frame` — the paper's algorithm, by search: the candidates
  of a rank are the slices whose rank bounds bracket it (Section 3.2's
  test, cover-slices included), and along each local's slices both bounds
  ascend, so they are one run of that local's slices.  The run's ends are
  two binary searches in the local's sorted boundaries, for the two keys
  at which the window's events, counted in key order, reach the rank;
  those come from a stable merge of the keys near them, found by
  counting to every ``√m``-th key of each local.  Vectorised over a
  :class:`~repro.core.synopsis.SynopsisColumns` batch of a frame of
  windows, it serves any number of ``(window, rank)`` picks, as arrays.
  Its keys are never NaN: the stream doors refuse a NaN value, and the
  batch's doors (the slicer and the wire decoder) a NaN boundary.

Both return identical candidates and ``n_below`` (property-tested).
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as _np

from repro.errors import IdentificationError
from repro.core.synopsis import SliceSynopsis, SynopsisColumns
from repro.core.units import SliceUnit, build_units

# Hot-path module: the cut reads a ``SynopsisColumns`` batch's columns
# and materialises rows for the candidates only — through
# ``SynopsisColumns.rows``, never by iterating the batch or constructing
# ``SliceSynopsis`` here (enforced by tests/test_hotpath_lint.py).

__all__ = [
    "CutResult",
    "FrameCut",
    "cut_frame",
    "rank_bound_candidates",
]


@dataclass(frozen=True, slots=True)
class CutResult:
    """Outcome of candidate-slice selection for one quantile rank, as
    rows: what the reference :func:`rank_bound_candidates` returns, and the
    cut :func:`~repro.core.identification.identify` carries to
    :func:`~repro.core.calculation.calculate_quantile`.

    Attributes:
        rank: The global rank ``k`` being located.
        candidates: Candidate synopses in ``(node_id, slice_index)``
            order, however they were handed in: the order the calculation
            step stacks their runs in, which is what breaks ties between
            ``-0.0`` and ``0.0`` as the full event key does.
        n_below: Events guaranteed to rank strictly below rank ``k`` that are
            *not* part of any candidate slice.  The answer is the element at
            local rank ``rank - n_below`` of the merged candidate events.
    """

    rank: int
    candidates: tuple[SliceSynopsis, ...]
    n_below: int

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
        rank=rank, candidates=tuple(candidates), n_below=n_below
    )


class FrameCut(NamedTuple):
    """Window-cut's answer to every ``(segment, rank)`` pick of a frame,
    as arrays (:func:`cut_frame`).  Pick ``i``'s candidates are the frame
    rows ``rows[bounds[i]:bounds[i + 1]]``, local after local in frame
    order, and ``n_below[i]`` events of its window rank below all of
    them."""

    rows: _np.ndarray
    bounds: _np.ndarray
    n_below: _np.ndarray


#: Rows in a frame's largest local above which :func:`cut_frame` merges
#: only the rows between sampled keys, not each window whole.
_SAMPLE_ABOVE = 512

#: The two kinds of key, as ``(2, 1, 1)`` masks: first keys (``x``'s)
#: and last keys (``y``'s).
_LAST = _np.arange(2).reshape(2, 1, 1)
_FIRST = 1 - _LAST


def cut_frame(
    columns: SynopsisColumns,
    pick_segments: Sequence[int],
    pick_ranks: Sequence[int],
    segments=None,
) -> FrameCut:
    """Window-cut per Algorithm 1 for every pick of a frame of windows,
    by searching each local's sorted boundaries.

    A frame is several global windows' synopses concatenated, ``segments``
    naming each row's window (non-decreasing ids from 0; ``None`` is a
    one-window frame).  Within a window, a *local* is a run of one owner's
    rows, which must ascend in key order (first key at or below last key,
    that below the next row's first key), as a slicer's cut does.  Pick
    ``i`` locates the 1-based rank ``pick_ranks[i]`` of window
    ``pick_segments[i]``; picks are validated in the order given.

    A row is a candidate when its rank bounds (``_cut_unit``'s, which
    :func:`rank_bound_candidates` keeps a row by) bracket the rank ``k``:
    ``upper``, the events of rows whose first key is at or below its last
    key, at least ``k``; ``lower``, one more than the events of rows whose
    last key is below its first key, at most ``k``.  Counted along the
    window's first keys in order, the events reach ``k`` at a first key
    ``x``, and ``upper < k`` exactly when the row's last key is below
    ``x``.  Counted along the last keys, they reach ``k`` at a last key
    ``y``, and ``lower <= k`` exactly when the row's first key is at or
    below ``y``.  So a local's candidates are one run of its rows, from
    a binary search for ``x`` among its last keys to one for ``y`` among
    its first keys, and its events before the run rank below ``k``.

    ``x`` and ``y`` come from a stable merge: of each window's keys whole
    in a frame of small locals, else of the rows between the two sampled
    keys that bracket each threshold (every ``s``-th key of each local,
    ``s`` about ``3√(n / picks)``, counted to by one binary search per
    local of its window): fewer than ``s`` of each local.  A frame costs
    a fixed number of numpy calls however many windows, locals and picks
    it has.

    Raises:
        IdentificationError: On a pick of an empty window or an
            out-of-range rank, or a local whose rows do not ascend in key
            order (e.g. a NaN key, in a batch that skipped ``validated``),
            named by its row in its window.
    """
    records = columns.records
    n = len(records)
    counts = records["count"].astype(_np.int64)
    cum = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(counts, out=cum[1:])
    # Each window's first row, and the events of the windows before it.
    if segments is None:
        row_starts = [0, n]
    else:
        row_starts = _np.searchsorted(
            segments, _np.arange(max(pick_segments) + 2)
        ).tolist()
    offsets = cum[row_starts]
    sizes = offsets.tolist()
    for segment, rank in zip(pick_segments, pick_ranks):
        _validate_rank(rank, sizes[segment + 1] - sizes[segment])
    first_values, last_values = records["first_value"], records["last_value"]
    first_pos, last_pos = records["first_pos"], records["last_pos"]
    owners = records["node_id"]
    # A new local wherever the owner or the window changes: locals are
    # rows ``edges[j]..edges[j + 1]``.
    new = _np.ones(n + 1, dtype=bool)
    new[1:n] = owners[1:] != owners[:-1]
    if segments is not None:
        new[1:n] |= segments[1:] != segments[:-1]
    edges = _np.flatnonzero(new)
    starts = edges[:-1]
    lengths = edges[1:] - starts
    n_locals = len(starts)
    local = _np.repeat(_np.arange(n_locals), lengths)
    # Keys as ``(value, position)``, a local's owner being one: each
    # row's first key at or below its last, that below the next row's
    # first in its local.  A NaN is neither.
    ordered = (first_values < last_values) | (
        (first_values == last_values) & (first_pos <= last_pos)
    )
    ordered[1:] &= new[1:n] | (last_values[:-1] < first_values[1:]) | (
        (last_values[:-1] == first_values[1:]) & (last_pos[:-1] < first_pos[1:])
    )
    windows = _np.zeros(n_locals, dtype=_np.int64)
    if segments is not None:
        windows[:] = segments[starts]
    # Tie ranks order a window's locals by owner, then run: a value tie
    # goes to the lower.  One owner split into runs by another's rows (a
    # hand-built batch) must ascend from run to run too.
    grouping = (windows << 32) | owners[starts]
    by_owner = _np.argsort(grouping, kind="stable")
    split = grouping[by_owner[1:]] == grouping[by_owner[:-1]]
    if split.any():
        below = edges[by_owner[:-1][split] + 1] - 1
        above = starts[by_owner[1:][split]]
        ordered[above] &= (last_values[below] < first_values[above]) | (
            (last_values[below] == first_values[above])
            & (last_pos[below] < first_pos[above])
        )
    if not ordered.all():
        row = int(ordered.argmin())
        if segments is not None:
            row -= int(_np.searchsorted(segments, segments[row]))
        raise IdentificationError(
            f"synopsis keys are not totally ordered: row {row}'s first "
            "key is not above the key before it in its local, or is above "
            "its last key"
        )
    ties = _np.empty(n_locals, dtype=_np.intp)
    ties[by_owner] = _np.arange(n_locals)
    # Every local's first values, then its last values, as ``(local,
    # value)`` (``n_locals`` on for last values): sorted stretches.
    keys = _np.empty(2 * n, dtype=complex)
    keys.real[:n] = local
    keys.real[n:] = local + n_locals
    keys.imag[:n], keys.imag[n:] = first_values, last_values
    # Each window's first local (frame order and tie order agree on it).
    window_firsts = _np.searchsorted(windows, _np.arange(windows[-1] + 2))

    def below(kind, value, holder, own, locals_):
        """The frame row where each of ``locals_``'s rows whose ``kind``
        of key is below ``holder``'s key of ``value`` end: ``own`` in the
        holder, else one search, a value tie below when the tie rank is
        the lower."""
        needles = _np.empty(_np.broadcast(value, locals_).shape, complex)
        needles.real = locals_ + kind * n_locals
        needles.imag = value
        return _np.where(locals_ == holder, own, _np.where(
            ties[locals_] < ties[holder],
            _np.searchsorted(keys, needles, side="right"),
            _np.searchsorted(keys, needles, side="left"),
        ) - kind * n)

    pick_windows = _np.asarray(pick_segments)
    if segments is None:
        pairs, real = by_owner[None], True
    else:
        pairs, real = _slots(window_firsts, pick_windows)
        pairs = by_owner[pairs]
    sought = offsets[pick_windows] + _np.asarray(pick_ranks)
    if lengths.max() <= _SAMPLE_ABOVE:
        # Each window's keys whole, as indices into ``keys``: first keys,
        # then last keys, whose count goes on from the first keys' total.
        in_tie_order = _np.argsort(ties[local], kind="stable")
        members = _np.concatenate((in_tie_order, in_tie_order + n))
        groups = windows[local[in_tie_order]]
        groups = _np.concatenate((groups, groups + n))
        targets = sought + _LAST[:, 0] * cum[n]
    else:
        # The frame rank of every stride-th key of each local, both
        # kinds, counted in each local of its window.  A pick's threshold
        # lies above the last sample short of its rank and at or below
        # the first reaching it: fewer than ``stride`` rows of each local
        # lie between.
        stride = int(3 * (n / len(pick_windows)) ** 0.5) + 1
        per_local = (lengths - 1) // stride + 1
        sampled = stride * _np.arange(per_local.sum()) + _np.repeat(
            starts - stride * (_np.cumsum(per_local) - per_local), per_local
        )
        sample_local = local[sampled]
        sample_windows = windows[sample_local]
        sample_pairs, sample_real = _slots(window_firsts, sample_windows)
        sample_pairs = by_owner[sample_pairs]
        ends = below(
            _LAST, keys.imag[sampled + _LAST[:, 0] * n][..., None],
            sample_local[:, None], sampled[:, None] + 1, sample_pairs,
        )
        counted = _np.add.reduce(
            (cum[ends] - cum[starts[sample_pairs]]) * sample_real, axis=-1
        ) + cum[edges[window_firsts[sample_windows]]]
        # Each pick's window's samples, as ``(kind, pick, sample)``.
        taken, valid = _slots(
            _np.searchsorted(sampled, edges[window_firsts]), pick_windows
        )
        counted, ends = counted[:, taken], ends[:, taken]
        short = valid & (counted < sought[:, None])
        reach = valid & ~short
        lo = _np.where(short[..., None], ends, starts[pairs][:, None]).max(2)
        hi = _np.where(reach[..., None], ends, edges[pairs + 1][:, None]).min(2)
        base = _np.where(short, counted, offsets[pick_windows][:, None]).max(2)
        # The rows between, as indices into ``keys``: kind after kind,
        # pick after pick, local after local in tie order.  A pick's
        # count starts from the events up to its bracket.
        width = (hi - lo) * real
        members = _spans(lo.ravel(), width.ravel())[0]
        groups = _np.repeat(
            _np.arange(2 * len(pick_windows)), width.sum(-1).ravel()
        )
        members += (groups >= len(pick_windows)) * n
        events = _np.add.reduce((cum[hi] - cum[lo]) * real, axis=-1).ravel()
        targets = (
            _np.cumsum(events) - events + (sought - base).ravel()
        ).reshape(2, -1)
    # The merge, group by group (kind, then window or pick), is stable:
    # a value tie stays in key order, tie rank then row.
    merge = _np.empty(len(members), dtype=complex)
    merge.real = groups
    merge.imag = keys.imag[members]
    members = members[_np.argsort(merge, kind="stable")]
    reached = _np.cumsum(counts[members % n])
    thresholds = members[_np.searchsorted(reached, targets)][..., None]
    # Each pair's run starts after its rows with a last key below ``x``
    # and ends after those with a first key at or below ``y``; the local
    # holding a threshold row counts to that row.
    rows = thresholds - _LAST * n
    head, tail = below(
        _FIRST, keys.imag[thresholds], local[rows], rows + _LAST, pairs
    )
    runs = ((tail - head) * real).ravel()
    rows, run_ends = _spans(head.ravel(), runs)
    return FrameCut(
        rows=rows,
        bounds=_np.append((run_ends - runs)[::pairs.shape[1]], run_ends[-1]),
        n_below=_np.add.reduce((cum[head] - cum[starts[pairs]]) * real, axis=1),
    )


def _slots(firsts, groups):
    """Members ``firsts[g]..firsts[g + 1]`` of each of ``groups``, as
    ``(group, slot)``, and which are real: slots past a group repeat its
    first member."""
    first = firsts[groups][:, None]
    slots = _np.arange((firsts[1:] - firsts[:-1]).max())
    real = slots < firsts[groups + 1][:, None] - first
    return _np.where(real, first + slots, first), real


def _spans(heads, widths):
    """Rows ``heads[i]`` on, ``widths[i]`` of them, span after span, and
    where each span ends among them."""
    ends = _np.cumsum(widths)
    return _np.arange(ends[-1]) + _np.repeat(heads - ends + widths, widths), ends
