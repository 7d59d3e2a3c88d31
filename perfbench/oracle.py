"""The exactness oracle and the failure accounting built on it.

Independent of ``repro.core`` on purpose: per window it concatenates the
value columns of every stream, sorts them with numpy and reads rank
``k = ceil(q * n)`` (PAPER.md section 3.1).  Dema's promise is that exact
value, so every window of every rep is compared **bit for bit**; an
operation fails if its window is missing, degraded, or differs in any bit.

``repro.mesh.mesh_oracle`` is deliberately not used: it replays the whole
workload through the simulator engine and costs more than the run it
checks.  ``multi-query`` is graded by the query plane's own centralized
oracle (``repro.queries.oracle``), which is likewise a plain sort.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.queries.oracle import grade_results, oracle_results

__all__ = [
    "Grade",
    "window_truth",
    "grade_windows",
    "query_truth",
    "grade_queries",
]


@dataclass
class Grade:
    """Operations attempted and failed, with one note per failure."""

    total_ops: int = 0
    failed_ops: int = 0
    notes: list = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed_ops += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def add(self, other: "Grade") -> None:
        self.total_ops += other.total_ops
        self.failed_ops += other.failed_ops
        self.notes.extend(other.notes[: 20 - len(self.notes)])


def _columns(stream) -> "tuple[np.ndarray, np.ndarray]":
    """``(values, timestamps)`` of a columnar batch or a list of events."""
    values = getattr(stream, "values", None)
    if values is not None:
        return np.asarray(values, dtype=np.float64), np.asarray(
            stream.timestamps, dtype=np.int64
        )
    return (
        np.fromiter((e.value for e in stream), dtype=np.float64),
        np.fromiter((e.timestamp for e in stream), dtype=np.int64),
    )


def window_truth(
    streams: Mapping[int, object], window_ms: int, q: float
) -> "dict[tuple[int, int], float]":
    """The exact ``q``-quantile of every non-empty tumbling window."""
    parts = [_columns(stream) for stream in streams.values()]
    values = np.concatenate([p[0] for p in parts])
    index = np.concatenate([p[1] for p in parts]) // window_ms
    order = np.argsort(index, kind="stable")
    index = index[order]
    values = values[order]
    starts = np.flatnonzero(np.diff(index, prepend=index[0] - 1))
    ends = np.append(starts[1:], len(index))
    truth: dict[tuple[int, int], float] = {}
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        rank = math.ceil(q * (hi - lo))
        ordered = np.sort(values[lo:hi])
        start_ms = int(index[lo]) * window_ms
        truth[start_ms, start_ms + window_ms] = float(ordered[rank - 1])
    return truth


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def grade_windows(
    truth: "Mapping[tuple[int, int], float]",
    outcomes: Iterable,
    *,
    label: str,
) -> Grade:
    """Grade one rep: one operation per oracle window.

    ``outcomes`` are ``WindowOutcome``/``WindowRecord``-shaped objects
    (``.window.start``, ``.window.end``, ``.value`` and, on the live
    paths, ``.completeness``).
    """
    grade = Grade(total_ops=len(truth))
    served: dict[tuple[int, int], object] = {}
    for outcome in outcomes:
        key = (outcome.window.start, outcome.window.end)
        if key in served:
            grade.fail(f"{label}: window {key} answered twice")
        served[key] = outcome
    for key, expected in truth.items():
        outcome = served.pop(key, None)
        if outcome is None:
            grade.fail(f"{label}: window {key} missing")
        elif getattr(outcome, "completeness", 1.0) < 1.0:
            grade.fail(f"{label}: window {key} degraded")
        elif outcome.value is None or _bits(outcome.value) != _bits(expected):
            grade.fail(
                f"{label}: window {key} value {outcome.value!r} != "
                f"oracle {expected!r}"
            )
    for key, outcome in served.items():
        if getattr(outcome, "global_window_size", 1) > 0:
            grade.fail(f"{label}: unexpected answer for window {key}")
    return grade


def query_truth(
    events: list,
    specs: Mapping[int, object],
    horizons: Mapping[int, int],
    grid_end: int,
) -> "dict[int, dict | None]":
    """Expected results per query id (``None``: never acknowledged)."""
    return {
        query_id: (
            None if query_id not in horizons else oracle_results(
                events, spec,
                start_from=horizons[query_id], horizon_end=grid_end,
            )
        )
        for query_id, spec in specs.items()
    }


def grade_queries(
    truth: "Mapping[int, dict | None]",
    results: Mapping[int, list],
    *,
    label: str,
) -> Grade:
    """Grade one ``multi-query`` rep: one operation per (query, window)."""
    grade = Grade()
    for query_id, expected in truth.items():
        if expected is None:
            grade.total_ops += 1
            grade.fail(f"{label}: query {query_id} never acknowledged")
            continue
        grade.total_ops += len(expected)
        for note in grade_results(
            query_id, results.get(query_id, []), expected,
            require_complete=True,
        ):
            grade.fail(f"{label}: {note}")
    return grade
