"""The one exact oracle and the one grader (public API).

:func:`oracle` reads rank ``ceil(q * n)`` of each window's centralized sort
(PAPER §3.1) and runs no Dema operator, so a defect the nodes share cannot
grade itself correct; :func:`grade` compares answers with it bit for bit.
Chaos runs, ``repro mesh``/``fleet``, the query plane and
:func:`verify_outcomes` all grade through these two.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.query import QuantileQuery
from repro.errors import ConfigurationError, HarnessError
from repro.streaming.aggregates import quantile_rank
from repro.streaming.columns import EventColumns, as_event_columns, concat_columns
from repro.streaming.events import Event
from repro.streaming.windows import Window

__all__ = ["oracle", "grade", "verify_outcomes", "VerificationReport"]


def oracle(
    events: "EventColumns | Iterable[Event]",
    starts: Iterable[int],
    length_ms: int,
    qs: Sequence[float],
    *,
    mask=None,
) -> "list[dict[Window, tuple[float | None, int, int]]]":
    """The exact answer of every window, one table per quantile in ``qs``.

    Window ``i`` is ``[starts[i], starts[i] + length_ms)`` (tumbling or
    sliding) over the rows ``mask`` keeps — a selector's or a membership
    schedule's; ``None`` keeps all.  Its entry is ``(value, size, rank)``:
    the value at rank ``ceil(q * size)`` in ``event_key`` order, or
    ``(None, 0, 0)`` when empty.  ``np.partition`` finds the value; as only
    ``±0.0`` compare equal while differing in bits, a window whose value is
    a zero sorts its rows by full key instead.

    Raises:
        ConfigurationError: If a value of ``events`` is NaN, naming its
            row: a NaN has no rank, so no window holding one has an answer.
    """
    events = as_event_columns(events)
    nan = np.isnan(events.values)
    if nan.any():
        raise ConfigurationError(
            f"event row {int(nan.argmax())} has a NaN value; a quantile "
            "needs ordered values"
        )
    if mask is not None:
        events = events[np.asarray(mask, dtype=bool)]
    order = np.argsort(events.timestamps, kind="stable")
    timestamps = events.timestamps.astype(np.int64)[order]
    starts = np.asarray(starts, dtype=np.int64)
    los = np.searchsorted(timestamps, starts).tolist()
    his = np.searchsorted(timestamps, starts + length_ms).tolist()
    windows = [Window(start, start + length_ms) for start in starts.tolist()]
    truth = [dict.fromkeys(windows, (None, 0, 0)) for _ in qs]
    for window, lo, hi in zip(windows, los, his):
        if lo == hi:
            continue
        rows = np.sort(order[lo:hi])  # arrival order
        values = events.values[rows]
        ranks = [quantile_rank(q, hi - lo) for q in qs]
        kth = [rank - 1 for rank in ranks]
        picked = np.partition(values, kth)[kth].tolist()
        if 0.0 in picked:
            keys = sorted(zip(values.tolist(), events.node_ids[rows].tolist(),
                              events.seqs[rows].tolist()))
            picked = [keys[k][0] for k in kth]
        for table, value, rank in zip(truth, picked, ranks):
            table[window] = (value, hi - lo, rank)
    return truth


_bits = struct.Struct("<d").pack


def grade(
    truth: "Mapping[Window, tuple[float | None, int, int]]",
    answers: Iterable,
    *,
    complete: bool = True,
    label: str = "run",
) -> "list[tuple[Window, str, str]]":
    """Grade ``answers`` against one quantile's :func:`oracle` table.

    Answers carry ``.window`` and ``.value``; ``.completeness``,
    ``.global_window_size`` and ``.rank`` are checked where present.  Each
    gets one ``(window, grade, note)``, in order, the note starting with
    ``label``: ``degraded`` below completeness 1; ``lost`` without a value
    for a window holding events; ``mismatch`` for a wrong size, rank or
    value bits (an empty window has no value), a second answer for a
    window, or a value for a window ``truth`` lacks; else ``recovered``,
    with note ``""``.  With ``complete``, every window of ``truth`` no
    answer named follows as ``lost``.
    """
    graded = []
    seen: set[Window] = set()
    for answer in answers:
        window = answer.window
        if window in seen:
            graded.append((window, "mismatch", f"{label}: duplicate result for window {window}"))
            continue
        seen.add(window)
        if window not in truth:
            if answer.value is not None:
                note = f"{label}: unexpected result for window {window}"
                graded.append((window, "mismatch", note))
            continue
        value, size, rank = truth[window]
        where = f"{label} window {window}"
        got_size = getattr(answer, "global_window_size", size)
        got_rank = getattr(answer, "rank", rank)
        if getattr(answer, "completeness", 1.0) < 1.0:
            verdict = "degraded", f"{where}: completeness {answer.completeness}"
        elif answer.value is None and size:
            verdict = "lost", f"{where}: no value (expected size {size})"
        elif got_size != size:
            verdict = "mismatch", f"{where}: size {got_size} != oracle {size}"
        elif got_rank != rank:
            verdict = "mismatch", f"{where}: rank {got_rank} != oracle {rank}"
        elif size and _bits(answer.value) != _bits(value):
            verdict = ("mismatch",
                       f"{where}: value {answer.value!r} != oracle {value!r}")
        else:
            verdict = "recovered", ""
        graded.append((window, *verdict))
    if complete:
        graded.extend(
            (window, "lost",
             f"{label}: no result for window {window} (expected size {size})")
            for window, (_, size, _) in truth.items()
            if window not in seen
        )
    return graded


@dataclass
class VerificationReport:
    """Outcome of comparing a run against the oracle."""

    checked: int = 0
    exact: int = 0
    mismatches: "list[tuple[Window, float, float]]" = field(default_factory=list)
    missing_windows: "list[Window]" = field(default_factory=list)

    @property
    def is_exact(self) -> bool:
        """Whether at least one window was checked, every produced window
        matched and none were missing: a verification of nothing is not
        exact."""
        return bool(self.checked) and not self.mismatches and not self.missing_windows

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if not self.checked and not self.missing_windows:
            return "nothing checked: no outcome had a value"
        if self.is_exact:
            return f"exact on all {self.checked} windows"
        parts = [f"{self.exact}/{self.checked} windows exact"]
        if self.mismatches:
            parts.append(f"{len(self.mismatches)} mismatched")
        if self.missing_windows:
            parts.append(f"{len(self.missing_windows)} missing")
        return ", ".join(parts)


def verify_outcomes(
    outcomes: Iterable,
    streams: Mapping[int, Sequence[Event]],
    query: QuantileQuery,
    *,
    require_all_windows: bool = True,
) -> VerificationReport:
    """Compare a run's window outcomes against the exact oracle.

    Args:
        outcomes: Objects with ``window`` and ``value`` attributes — the
            outcomes of any engine in this library.  Those without a value
            are skipped; any other :func:`grade` does not call
            ``recovered`` is a mismatch.
        streams: The exact streams the run consumed.
        query: The query the run executed.
        require_all_windows: Whether windows present in the streams but
            absent from the outcomes count as failures.

    Returns:
        The verification report; inspect :attr:`VerificationReport.is_exact`
        or raise on it in a test.

    Raises:
        HarnessError: If an outcome references a window not present in the
            streams (the run invented data).
    """
    events = concat_columns([as_event_columns(s) for s in streams.values()])
    # The query is tumbling: an event at ``t`` is in the window starting
    # at ``(t // length) * length``.
    length = query.window_length_ms
    starts = (
        np.unique(events.timestamps.astype(np.int64) // length) * length
    ).tolist()
    (truth,) = oracle(events, starts, length, [query.q])
    answered = [outcome for outcome in outcomes if outcome.value is not None]
    graded = grade(truth, answered, complete=require_all_windows)
    report = VerificationReport(checked=len(answered))
    # One entry per answer, in order; the missing windows follow.
    for outcome, (window, verdict, _) in zip(answered, graded):
        if window not in truth:
            raise HarnessError(f"outcome for window {window} which no stream event covers")
        if verdict == "recovered":
            report.exact += 1
        else:
            report.mismatches.append((window, outcome.value, truth[window][0]))
    report.missing_windows = [window for window, _, _ in graded[len(answered):]]
    return report
