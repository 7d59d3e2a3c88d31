"""Dema's identification step (Section 3.1).

The root node has received one synopsis batch per local node for a global
window.  Identification computes the quantile rank from the global window
size, runs window-cut to select the candidate slices, and emits a fetch plan
— which slice indices to request from which node.

:func:`identify_frame` does it for a frame of windows with one window-cut
sweep, building each window's plan from the candidate rows' columns;
:func:`identify_multi` and :func:`identify` are its one-window forms, which
hand out :class:`~repro.core.window_cut.CutResult` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as _np

from repro.errors import IdentificationError
from repro.streaming.aggregates import quantile_rank
from repro.core.synopsis import (
    SliceSynopsis,
    SynopsisColumns,
    as_synopsis_columns,
    concat_synopses,
)
from repro.core.window_cut import CutResult, cut_frame

# Hot-path module: batches arrive as ``SynopsisColumns`` and reach
# window-cut as one concatenated batch; only the candidates a cut returns
# are rows (enforced by tests/test_hotpath_lint.py).

__all__ = [
    "IdentificationResult",
    "MultiIdentificationResult",
    "WindowPlan",
    "identify",
    "identify_frame",
    "identify_multi",
]


@dataclass(frozen=True, slots=True)
class IdentificationResult:
    """Fetch plan produced by the identification step.

    Attributes:
        q: The requested quantile in ``(0, 1]``.
        global_window_size: Total events across all local windows.
        cut: The window-cut outcome (candidates, rank, ``n_below``).
        requests: Slice indices to fetch, keyed by local node id.  Nodes
            owning no candidate slices do not appear.  Node ids and each
            node's indices ascend, so fetching in iteration order yields
            the runs in ``cut.candidates`` order.
    """

    q: float
    global_window_size: int
    cut: CutResult
    requests: Mapping[int, tuple[int, ...]]

    @property
    def rank(self) -> int:
        """The global rank ``Pos(q) = ceil(q * l_G)``."""
        return self.cut.rank

    @property
    def candidate_events(self) -> int:
        """Events the calculation step will pull over the network."""
        return self.cut.candidate_events


@dataclass(frozen=True, slots=True)
class MultiIdentificationResult:
    """Shared fetch plan for several quantiles over one global window.

    Attributes:
        qs: The requested quantiles, ascending and deduplicated.
        global_window_size: Total events across all local windows.
        cuts: One :class:`~repro.core.window_cut.CutResult` per quantile,
            each identical to what :func:`identify` alone would produce.
        requests: The **union** of every cut's candidate slice indices,
            keyed by local node id — a slice two quantiles both need is
            fetched once.  Node ids and each node's indices ascend.
    """

    qs: tuple[float, ...]
    global_window_size: int
    cuts: Mapping[float, CutResult]
    requests: Mapping[int, tuple[int, ...]]

    @property
    def candidate_events(self) -> int:
        """Events the shared calculation step pulls over the network."""
        ids: set[tuple[int, int]] = set()
        total = 0
        for cut in self.cuts.values():
            for synopsis in cut.candidates:
                if synopsis.slice_id not in ids:
                    ids.add(synopsis.slice_id)
                    total += synopsis.count
        return total


class WindowPlan(NamedTuple):
    """One window's share of a frame identification (:func:`identify_frame`)
    — its fetch plan and what the calculation selects — built from the
    candidate rows' columns, with no synopsis row.

    Attributes:
        global_window_size: Total events across the window's local windows.
        ranks: The global rank of each quantile asked, in the order asked.
        requests: The union of every rank's candidate slice indices, keyed
            by local node id; node ids and each node's indices ascend.
        candidates: The union's slice ids ``(node_id, slice_index)``, in
            that order — the order the calculation stacks the fetched
            runs in — each mapped to what its run is checked against:
            the synopsis' ``(count, first_value, last_value, final)``,
            ``final`` whether it is its local window's last slice.
        candidate_events: Events the window's calculation pulls over the
            network: the union's counts.
        picks: Per quantile asked, the ``(runs, local rank)`` its value is
            selected at: ``runs`` a mask over ``candidates``, or ``None``
            when the quantile needs every one of them.
    """

    global_window_size: int
    ranks: tuple[int, ...]
    requests: dict[int, tuple[int, ...]]
    candidates: dict[tuple[int, int], tuple[int, float, float, bool]]
    candidate_events: int
    picks: tuple[tuple["_np.ndarray | None", int], ...]


def _sweep(windows):
    """Check every window's batches against its sizes, rank its quantiles
    and cut the frame in one sweep: the frame's batch, the sweep's picks,
    each row's window (``None`` for one window), and per window its total,
    its quantiles' ranks and the pick of each distinct rank."""
    batches: list[SynopsisColumns] = []
    nodes: list[int] = []
    sizes: list[int] = []
    window_rows: list[int] = []
    totals: list[int] = []
    error = None
    for synopses_by_node, window_sizes, _ in windows:
        if set(synopses_by_node) != set(window_sizes):
            error = IdentificationError(
                "synopsis batches and window sizes cover different node "
                f"sets: {sorted(synopses_by_node)} vs {sorted(window_sizes)}"
            )
            break
        n_rows = 0
        for node_id, batch in synopses_by_node.items():
            batch = as_synopsis_columns(batch)
            batches.append(batch)
            nodes.append(node_id)
            sizes.append(window_sizes[node_id])
            n_rows += len(batch)
        window_rows.append(n_rows)
        totals.append(sum(window_sizes.values()))
        if totals[-1] == 0:
            error = IdentificationError("global window is empty")
            break
    columns = concat_synopses(batches)
    # Each batch must cover the size its node reports: one pass over the
    # frame's counts, the first disagreement (in frame order) named.
    covered = [0] * len(batches)
    starts, at = {}, 0
    for i, batch in enumerate(batches):
        if len(batch):
            starts[i] = at
            at += len(batch)
    if starts:
        sums = _np.add.reduceat(
            columns.records["count"], list(starts.values()), dtype=_np.int64
        )
        for i, events in zip(starts, sums.tolist()):
            covered[i] = events
    for node_id, size, events in zip(nodes, sizes, covered):
        if size != events:
            raise IdentificationError(
                f"node {node_id} reports window size {size} "
                f"but its synopses cover {events} events"
            )
    if error is not None:
        raise error
    ranks = [
        tuple(quantile_rank(q, total) for q in qs)
        for (_, _, qs), total in zip(windows, totals)
    ]
    # Every window's distinct ranks, ascending: the sweep's picks.
    pick_segments: list[int] = []
    pick_ranks: list[int] = []
    pick_of: list[dict[int, int]] = []
    for window, window_ranks in enumerate(ranks):
        distinct = sorted(set(window_ranks))
        pick_of.append({
            rank: len(pick_ranks) + i for i, rank in enumerate(distinct)
        })
        pick_segments.extend([window] * len(distinct))
        pick_ranks.extend(distinct)
    segments = (
        None if len(window_rows) == 1
        else _np.repeat(_np.arange(len(window_rows)), window_rows)
    )
    cut = cut_frame(columns, pick_segments, pick_ranks, segments)
    return columns, cut, segments, totals, ranks, pick_of


def identify_frame(
    windows: Sequence[tuple[
        Mapping[int, "SynopsisColumns | Sequence[SliceSynopsis]"],
        Mapping[int, int],
        Sequence[float],
    ]],
) -> tuple[WindowPlan, ...]:
    """Identify every window of a frame with **one** window-cut sweep:
    one plan per window, in frame order.

    Each window is its ``(synopses_by_node, window_sizes, qs)``: the
    synopsis batches and reported sizes keyed by local node id (a node
    with an empty local window contributes an empty batch), and the
    quantiles to cut for, each in ``(0, 1]``.  The batches are checked
    against the sizes, concatenated into one frame and cut for every
    window's distinct ranks in one :func:`~repro.core.window_cut.
    cut_frame` pass; each window's fetch plan is the union of its ranks'
    candidates, built from the candidate rows' columns.

    Raises:
        IdentificationError: For the first window, in frame order, whose
            reported sizes disagree with its synopses or whose node sets
            mismatch, or which is empty; then as
            :func:`~repro.core.window_cut.cut_frame`.
    """
    columns, cut, segments, totals, ranks, pick_of = _sweep(windows)
    # Each window's union of candidates in (node_id, slice_index) order,
    # and every pick's candidates as a mask over its window's union.
    records = columns.records
    taken = _np.zeros(len(records), dtype=bool)
    taken[cut.rows] = True
    union = _np.flatnonzero(taken)
    window_of = (
        _np.zeros(len(union), dtype=_np.intp) if segments is None
        else segments[union]
    )
    union = union[_np.lexsort((
        records["slice_index"][union], records["node_id"][union], window_of,
    ))]
    # Frame order and the union's order both go window after window.
    window_bounds = _np.searchsorted(
        window_of, _np.arange(len(totals) + 1)
    ).tolist()
    bounds = cut.bounds.tolist()
    position = _np.empty(len(records), dtype=_np.intp)
    position[union] = _np.arange(len(union))
    # The union's run keys, each with what its run is checked against.
    chosen = records[union]
    counts = chosen["count"].tolist()
    candidates = list(zip(
        zip(chosen["node_id"].tolist(), chosen["slice_index"].tolist()),
        zip(
            counts,
            chosen["first_value"].tolist(),
            chosen["last_value"].tolist(),
            (chosen["slice_index"] + 1 == chosen["n_slices"]).tolist(),
        ),
    ))
    n_below = cut.n_below.tolist()
    plans = []
    for window, (window_ranks, total) in enumerate(zip(ranks, totals)):
        lo, hi = window_bounds[window], window_bounds[window + 1]
        window_candidates = dict(candidates[lo:hi])
        requests: dict[int, list[int]] = {}
        for node_id, index in window_candidates:
            requests.setdefault(node_id, []).append(index)
        picks = []
        for rank in window_ranks:
            pick = pick_of[window][rank]
            start, end = bounds[pick], bounds[pick + 1]
            runs = None
            if end - start != hi - lo:
                # The rank needs fewer than all its window's candidates.
                runs = _np.zeros(hi - lo, dtype=bool)
                runs[position[cut.rows[start:end]] - lo] = True
            picks.append((runs, rank - n_below[pick]))
        plans.append(WindowPlan(
            global_window_size=total,
            ranks=window_ranks,
            requests={
                node_id: tuple(indices)
                for node_id, indices in requests.items()
            },
            candidates=window_candidates,
            candidate_events=sum(counts[lo:hi]),
            picks=tuple(picks),
        ))
    return tuple(plans)


def identify_multi(
    synopses_by_node: Mapping[int, "SynopsisColumns | Sequence[SliceSynopsis]"],
    window_sizes: Mapping[int, int],
    qs: Sequence[float],
) -> MultiIdentificationResult:
    """Run one shared identification pass for several quantiles: the
    frame sweep of :func:`identify_frame` over one window, each quantile's
    cut as a :class:`~repro.core.window_cut.CutResult`.

    The synopsis sweep happens once, and the fetch plan is the union of
    every quantile's candidates — the amortization the multi-query
    plane's shared-cut execution rests on.

    Args:
        synopses_by_node: Synopsis batches keyed by local node id.  A node
            with an empty local window contributes an empty batch.
        window_sizes: Reported local window sizes keyed by node id; must be
            consistent with the synopses.
        qs: The quantiles, each in ``(0, 1]``; duplicates collapse.

    Raises:
        IdentificationError: If the reported sizes disagree with the
            synopses, node sets mismatch, the global window is empty, or
            ``qs`` is.
    """
    unique_qs = tuple(sorted(set(qs)))
    if not unique_qs:
        raise IdentificationError("need at least one quantile to identify")
    columns, cut, _, (total,), (ranks,), _ = _sweep(
        [(synopses_by_node, window_sizes, unique_qs)]
    )
    # The window's picks are its distinct ranks, ascending.
    distinct = sorted(set(ranks))
    cuts = dict(zip(distinct, cut.results(columns, distinct)))
    requests: dict[int, set[int]] = {}
    for cut_result in cuts.values():
        for synopsis in cut_result.candidates:
            requests.setdefault(synopsis.node_id, set()).add(
                synopsis.slice_index
            )
    return MultiIdentificationResult(
        qs=unique_qs,
        global_window_size=total,
        cuts={q: cuts[rank] for q, rank in zip(unique_qs, ranks)},
        requests={
            node_id: tuple(sorted(indices))
            for node_id, indices in sorted(requests.items())
        },
    )


def identify(
    synopses_by_node: Mapping[int, "SynopsisColumns | Sequence[SliceSynopsis]"],
    window_sizes: Mapping[int, int],
    q: float,
) -> IdentificationResult:
    """Run the identification step over one global window:
    :func:`identify_multi` for the single quantile ``q``, same arguments
    and errors.

    Returns:
        The fetch plan.
    """
    plan = identify_multi(synopses_by_node, window_sizes, (q,))
    return IdentificationResult(
        q=q,
        global_window_size=plan.global_window_size,
        cut=plan.cuts[q],
        requests=plan.requests,
    )
