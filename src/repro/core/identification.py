"""Dema's identification step (Section 3.1).

The root node has received one synopsis batch per local node for a global
window.  Identification computes the quantile rank from the global window
size, runs window-cut to select the candidate slices, and emits a fetch plan
— which slice indices to request from which node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import IdentificationError
from repro.streaming.aggregates import quantile_rank
from repro.core.synopsis import (
    SliceSynopsis,
    SynopsisColumns,
    as_synopsis_columns,
    concat_synopses,
)
from repro.core.window_cut import CutResult, window_cut_multi

# Hot-path module: batches arrive as ``SynopsisColumns`` and reach
# window-cut as one concatenated batch; only the candidates a cut returns
# are rows (enforced by tests/test_hotpath_lint.py).

__all__ = ["IdentificationResult", "MultiIdentificationResult", "identify",
           "identify_multi"]


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


def _gather(
    synopses_by_node: Mapping[int, "SynopsisColumns | Sequence[SliceSynopsis]"],
    window_sizes: Mapping[int, int],
) -> tuple[SynopsisColumns, int]:
    """Cross-check batches against reported sizes; return them as one
    batch (rows handed in are converted here) and the global size."""
    if set(synopses_by_node) != set(window_sizes):
        raise IdentificationError(
            "synopsis batches and window sizes cover different node sets: "
            f"{sorted(synopses_by_node)} vs {sorted(window_sizes)}"
        )
    batches = []
    for node_id, batch in synopses_by_node.items():
        batch = as_synopsis_columns(batch)
        covered = batch.event_count()
        if covered != window_sizes[node_id]:
            raise IdentificationError(
                f"node {node_id} reports window size {window_sizes[node_id]} "
                f"but its synopses cover {covered} events"
            )
        batches.append(batch)
    global_window_size = sum(window_sizes.values())
    if global_window_size == 0:
        raise IdentificationError("global window is empty")
    return concat_synopses(batches), global_window_size


def identify_multi(
    synopses_by_node: Mapping[int, "SynopsisColumns | Sequence[SliceSynopsis]"],
    window_sizes: Mapping[int, int],
    qs: Sequence[float],
) -> MultiIdentificationResult:
    """Run one shared identification pass for several quantiles.

    The synopsis sweep happens once (:func:`window_cut_multi`), and the
    fetch plan is the union of every quantile's candidates — the
    amortization the multi-query plane's shared-cut execution rests on.

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
    synopses, global_window_size = _gather(synopses_by_node, window_sizes)
    ranks = {q: quantile_rank(q, global_window_size) for q in unique_qs}
    cuts_by_rank = window_cut_multi(
        synopses, sorted(set(ranks.values())),
        global_window_size=global_window_size,
    )
    requests: dict[int, set[int]] = {}
    for cut in cuts_by_rank.values():
        for synopsis in cut.candidates:
            requests.setdefault(synopsis.node_id, set()).add(
                synopsis.slice_index
            )
    return MultiIdentificationResult(
        qs=unique_qs,
        global_window_size=global_window_size,
        cuts={q: cuts_by_rank[rank] for q, rank in ranks.items()},
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
