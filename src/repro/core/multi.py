"""Multi-quantile queries: several quantiles from one identification pass.

The paper notes that "other quantile functions are also supported"; a
natural extension is answering a *set* of quantiles (e.g. the 25/50/75 %
box-plot statistics) over the same window.  The synopsis transfer is shared
by construction, and the calculation step fetches the **union** of every
rank's candidate slices, so a slice needed by two quantiles crosses the
network once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.streaming.aggregates import quantile_rank
from repro.streaming.columns import EventColumns, as_event_columns
from repro.streaming.events import Event
from repro.core.calculation import calculate_quantile
from repro.core.slicing import slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow
from repro.core.synopsis import concat_synopses
from repro.core.window_cut import CutResult, window_cut_multi

__all__ = ["MultiQuantileResult", "dema_quantiles"]


@dataclass(frozen=True, slots=True)
class MultiQuantileResult:
    """Outcome of one multi-quantile Dema computation.

    Attributes:
        values: Exact quantile values keyed by the requested ``q``.
        ranks: The global rank located for each ``q``.
        global_window_size: Total events across the local windows.
        candidate_events: Events fetched for the union of all candidate
            slices (each slice counted once).
        synopses: Synopses shipped in the identification step.
    """

    values: Mapping[float, float]
    ranks: Mapping[float, int]
    global_window_size: int
    candidate_events: int
    synopses: int

    @property
    def transfer_events(self) -> int:
        """Events-on-the-wire cost of the whole multi-quantile query."""
        return 2 * self.synopses + self.candidate_events


def dema_quantiles(
    local_windows: "Mapping[int, EventColumns | Sequence[Event]]",
    qs: Sequence[float],
    gamma: int,
) -> MultiQuantileResult:
    """Compute several exact quantiles with one shared identification pass.

    Args:
        local_windows: Per-node event collections (any order within a
            node), each an ``EventColumns`` or a sequence of ``Event``.
        qs: The quantiles, each in ``(0, 1]``; duplicates are collapsed.
        gamma: The slice factor, ≥ 2.

    Returns:
        Exact values for every requested quantile plus shared transfer
        accounting.

    Raises:
        ConfigurationError: If no nodes or no quantiles are given.
        IdentificationError: If all windows are empty.
    """
    if not local_windows:
        raise ConfigurationError("need at least one local window")
    unique_qs = sorted(set(qs))
    if not unique_qs:
        raise ConfigurationError("need at least one quantile")

    sliced = {
        node_id: slice_sorted_events(
            SortedLocalWindow(as_event_columns(events)).seal(), gamma, node_id
        )
        for node_id, events in local_windows.items()
    }
    synopses = concat_synopses([win.synopses for win in sliced.values()])
    total = sum(win.window_size for win in sliced.values())

    ranks_by_q = {q: quantile_rank(q, total) for q in unique_qs}
    cuts_by_rank = window_cut_multi(
        synopses, sorted(set(ranks_by_q.values())), global_window_size=total
    )
    cuts: dict[float, CutResult] = {
        q: cuts_by_rank[rank] for q, rank in ranks_by_q.items()
    }
    fetched_ids: set[tuple[int, int]] = set()
    for cut in cuts_by_rank.values():
        fetched_ids.update(cut.candidate_ids)

    runs_by_id = {
        slice_id: sliced[slice_id[0]].run_for(slice_id[1])
        for slice_id in fetched_ids
    }
    values: dict[float, float] = {}
    ranks: dict[float, int] = {}
    for q, cut in cuts.items():
        runs = [runs_by_id[s.slice_id] for s in cut.candidates]
        values[q] = calculate_quantile(cut, runs).value
        ranks[q] = cut.rank

    return MultiQuantileResult(
        values=values,
        ranks=ranks,
        global_window_size=total,
        candidate_events=sum(len(run) for run in runs_by_id.values()),
        synopses=len(synopses),
    )
