"""The query plane's names for :mod:`repro.testing`'s oracle and grader:
a served result is correct iff its (value, size, rank) is bit-identical."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.queries.spec import QuerySpec
from repro.streaming.columns import as_event_columns
from repro.streaming.events import Event
from repro.streaming.windows import Window
from repro.testing import grade, oracle

__all__ = ["oracle_results", "grade_results"]


def oracle_results(
    events: Iterable[Event], spec: QuerySpec, *, start_from: int, horizon_end: int
) -> "dict[Window, tuple[float | None, int, int]]":
    """``(value, size, rank)`` of each window of ``spec`` from its horizon
    ``start_from`` that fits below ``horizon_end``, over the workload's
    events (any order) its selector keeps."""
    events = as_event_columns(events)
    starts = spec.window_starts(start_from, horizon_end)
    mask = spec.predicate().mask(events)
    return oracle(events, starts, spec.length_ms, [spec.q], mask=mask)[0]


def grade_results(
    query_id: int,
    served: Sequence,
    expected: "Mapping[Window, tuple[float | None, int, int]]",
    *,
    require_complete: bool = False,
) -> list[str]:
    """A note per served result that is not exact (a repeat included) and,
    with ``require_complete``, per expected window never served."""
    graded = grade(expected, served, complete=require_complete,
                   label=f"query {query_id}")
    return [note for _, verdict, note in graded if verdict != "recovered"]
