"""Centralized ground truth for grading the live multi-query plane.

For each query the oracle pretends every event sits in one sorted array:
filter the full workload by the query's key selector, slice out each
window, sort by the strict total order
:func:`~repro.streaming.events.event_key`, and read the element at rank
``ceil(q * n)``.  A served :class:`~repro.network.messages.QueryResultMessage`
is correct iff its (value, size, rank) triple is **bit-identical** to the
oracle's — the same grading the simulator's harness applies to
single-query runs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.queries.spec import QuerySpec
from repro.streaming.aggregates import quantile_rank
from repro.streaming.events import Event, event_key
from repro.streaming.windows import Window

__all__ = ["OracleResult", "oracle_results", "grade_results"]


@dataclass(frozen=True, slots=True)
class OracleResult:
    """Expected outcome for one (query, window) pair.

    ``value`` is ``None`` for an empty window (the plane serves the
    canonical empty result: value 0.0, size 0, rank 0).
    """

    window: Window
    value: float | None
    size: int
    rank: int


def oracle_results(
    events: Iterable[Event],
    spec: QuerySpec,
    *,
    start_from: int,
    horizon_end: int,
) -> dict[Window, OracleResult]:
    """Expected results for every window of ``spec`` in the horizon.

    Args:
        events: The full workload (every stream, any order).
        spec: The query to grade.
        start_from: The query's horizon — its accepted first window start.
        horizon_end: End of the event-time grid; only windows fitting
            entirely below it are expected.
    """
    matches = spec.predicate().matches
    selected = [event for event in events if matches(event)]
    selected.sort(key=lambda event: event.timestamp)
    timestamps = [event.timestamp for event in selected]
    out: dict[Window, OracleResult] = {}
    for window_start in spec.window_starts(start_from, horizon_end):
        window = Window(window_start, window_start + spec.length_ms)
        lo = bisect.bisect_left(timestamps, window.start)
        hi = bisect.bisect_left(timestamps, window.end, lo)
        inside = sorted(selected[lo:hi], key=event_key)
        if not inside:
            out[window] = OracleResult(window=window, value=None, size=0,
                                       rank=0)
            continue
        rank = quantile_rank(spec.q, len(inside))
        out[window] = OracleResult(
            window=window,
            value=inside[rank - 1].value,
            size=len(inside),
            rank=rank,
        )
    return out


def grade_results(
    query_id: int,
    served: Sequence,
    expected: Mapping[Window, OracleResult],
    *,
    require_complete: bool = False,
) -> list[str]:
    """Compare served results against the oracle; return mismatch notes.

    Every served result must match its window's oracle triple exactly
    (empty windows compare size/rank only — the 0.0 value is a filler).
    A window served more than once is a mismatch — the plane promises
    exactly-once delivery even across driver reconnects.  With
    ``require_complete`` the query must also have received a result for
    *every* expected window.
    """
    mismatches: list[str] = []
    seen: set[Window] = set()
    for result in served:
        window = result.window
        if window in seen:
            mismatches.append(
                f"query {query_id}: duplicate result for window {window}"
            )
            continue
        seen.add(window)
        truth = expected.get(window)
        if truth is None:
            mismatches.append(
                f"query {query_id}: unexpected result for window {window}"
            )
            continue
        if result.global_window_size != truth.size:
            mismatches.append(
                f"query {query_id} window {window}: size "
                f"{result.global_window_size} != oracle {truth.size}"
            )
        elif result.rank != truth.rank:
            mismatches.append(
                f"query {query_id} window {window}: rank {result.rank} "
                f"!= oracle {truth.rank}"
            )
        elif truth.size > 0 and result.value != truth.value:
            mismatches.append(
                f"query {query_id} window {window}: value {result.value!r} "
                f"!= oracle {truth.value!r}"
            )
    if require_complete:
        for window, truth in expected.items():
            if window not in seen:
                mismatches.append(
                    f"query {query_id}: no result for window {window} "
                    f"(expected size {truth.size})"
                )
    return mismatches
