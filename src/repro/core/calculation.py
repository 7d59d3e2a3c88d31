"""Dema's calculation step (Section 3.1).

The root has fetched the candidate slices' events — each slice arrives as a
run that is already sorted, because the local node sorted its window before
slicing.  Only one element is wanted, the one at local rank ``k − n_below``
of the merged runs.  The runs arrive as
:class:`~repro.streaming.columns.EventColumns` and the root takes it with a
rank select over the columns; NaN-bearing windows go through the k-way
merge, which is also the reference the select is tested against.
"""

# Hot-path module: no per-event ``Event`` construction here — see
# tests/test_hotpath_lint.py.

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from repro.errors import CalculationError
from repro.streaming.columns import EventColumns, as_event_columns, select_rank
from repro.streaming.events import Event, event_key
from repro.core.window_cut import CutResult

__all__ = ["merge_candidate_runs", "calculate_quantile"]


def merge_candidate_runs(runs: Iterable[Sequence[Event]]) -> list[Event]:
    """K-way merge of pre-sorted candidate runs into one sorted list.

    Raises:
        CalculationError: If any run is not sorted by event key — that would
            mean a local node violated the protocol.
    """
    materialized = [list(run) for run in runs]
    for run in materialized:
        for left, right in zip(run, run[1:]):
            if left.key > right.key:
                raise CalculationError(
                    "candidate run is not sorted; local node violated the "
                    f"protocol near event {right}"
                )
    return list(heapq.merge(*materialized, key=event_key))


def calculate_quantile(
    cut: CutResult, runs: "Iterable[EventColumns | Sequence[Event]]"
) -> Event:
    """Select the quantile event from the fetched candidate runs.

    Args:
        cut: The window-cut result that produced the fetch plan.
        runs: The candidate slices' event runs, in any order, each an
            ``EventColumns`` or a sequence of ``Event`` (converted here).

    Returns:
        The event whose global rank is ``cut.rank``.

    Raises:
        CalculationError: If the runs do not match the cut (wrong total
            count, or the local rank falls outside the merged events).
    """
    runs = [as_event_columns(run) for run in runs]
    selected = select_rank(runs, cut.local_rank)
    if (
        selected is not None
        and sum(len(run) for run in runs) == cut.candidate_events
    ):
        return selected
    # NaN values, or a count/rank mismatch to report: the merge below is
    # the reference for all of them.
    merged = merge_candidate_runs(runs)
    if len(merged) != cut.candidate_events:
        raise CalculationError(
            f"expected {cut.candidate_events} candidate events, "
            f"received {len(merged)}"
        )
    local_rank = cut.local_rank
    if not 1 <= local_rank <= len(merged):
        raise CalculationError(
            f"local rank {local_rank} outside the {len(merged)} fetched "
            "events; identification and calculation disagree"
        )
    return merged[local_rank - 1]
