"""Drives per-node event streams into simulated local operators.

Every system under evaluation (Dema, Scotty, Desis, t-digest) exposes local
operators with the same two entry points — ``ingest(events, now)`` and
``on_window_complete(window, now)`` — so a single driver can feed identical
workloads to all of them.  The driver schedules event batches at their
event-time instants (simulated seconds = timestamp milliseconds / 1000) and
announces window completion right after the window's last instant, playing
the role of the data-stream layer plus a perfect watermark.

A stream is cut into batches by arithmetic on its timestamp column:
:func:`window_segments` finds where the window assignment changes, and the
batches are ``events[a:b]`` slices inside those segments.
"""

from __future__ import annotations

import functools
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.network.simulator import Simulator
from repro.streaming.columns import (
    EMPTY_EVENTS,
    EventColumns,
    as_event_columns,
    check_streams,
)
from repro.streaming.events import Event
from repro.streaming.windows import (
    SlidingWindows,
    TumblingWindows,
    Window,
)

# Hot-path module: a stream is segmented on its timestamp column — no loop
# here runs per event, and none assigns windows (enforced by
# tests/test_hotpath_lint.py).

__all__ = [
    "LocalOperator",
    "BatchSourceDriver",
    "MS_PER_SECOND",
    "event_timestamps",
    "local_streams",
    "window_segments",
]

#: Event timestamps are milliseconds; the simulator clock runs in seconds.
MS_PER_SECOND = 1000.0


class LocalOperator(Protocol):
    """What the driver requires of a local node operator."""

    def ingest(self, events: EventColumns, now: float) -> float:
        """Accept a batch arriving at simulated time ``now``: a slice of the
        fed stream."""

    def on_window_complete(self, window: Window, now: float) -> None:
        """React to the event-time end of ``window``."""


def _run_starts(column: np.ndarray) -> np.ndarray:
    """Positions where ``column`` differs from its predecessor (0 first)."""
    if not len(column):
        return np.zeros(0, dtype=np.intp)
    return np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))


def event_timestamps(
    events: EventColumns, *, ordered: bool = False
) -> np.ndarray:
    """The stream's event times as int64 (window arithmetic on the column's
    own u32 wraps silently near 2**32).

    Raises:
        ConfigurationError: With ``ordered``, if timestamps regress; names
            the first offending pair.
    """
    timestamps = events.timestamps.astype(np.int64)
    if ordered:
        regressions = np.flatnonzero(timestamps[1:] < timestamps[:-1])
        if len(regressions):
            first = int(regressions[0])
            raise ConfigurationError(
                f"event timestamps must be non-decreasing; saw "
                f"{timestamps[first + 1]} after {timestamps[first]}"
            )
    return timestamps


def window_segments(
    timestamps: np.ndarray, assigner: TumblingWindows | SlidingWindows
) -> tuple[np.ndarray, list[Window]]:
    """Where the window assignment changes along a stream, and what it touches.

    Returns ``(starts, windows)``: the ascending positions ``i`` (0 first)
    where ``assigner.assign(timestamps[i])`` differs from the previous
    event's assignment, and every window some event belongs to, in
    chronological order; both empty for an empty stream.  ``timestamps``
    (int64) may be in any order — sorted ones give the fewest segments.

    Assignment is integer arithmetic: an event at ``t`` is in the windows
    numbered ``(t - length) // step + 1 .. t // step``, window ``k``
    starting at ``k * step`` (tumbling is ``step == length``).
    """
    if not len(timestamps):
        return _run_starts(timestamps), []
    length = assigner.length
    step = getattr(assigner, "step", length)
    newest = timestamps // step
    oldest = (timestamps - length) // step + 1
    # Both are non-decreasing in t: between any two events they move
    # the same way, so their sum changes exactly where either does.
    starts = _run_starts(newest + oldest)
    spans = zip(oldest[starts].tolist(), newest[starts].tolist())
    numbers = sorted({k for lo, hi in spans for k in range(lo, hi + 1)})
    return starts, [Window(k * step, k * step + length) for k in numbers]


def local_streams(
    local_ids: Sequence[int],
    streams: "Mapping[int, EventColumns | Iterable[Event]]",
) -> dict[int, EventColumns]:
    """Every local's stream as columns (a missing one empty) in
    ``local_ids`` order, after :func:`~repro.streaming.columns.check_streams`:
    the simulated deployment's door for every system."""
    columns = {i: as_event_columns(s) for i, s in streams.items()}
    check_streams(local_ids, columns)
    return {i: columns.get(i, EMPTY_EVENTS) for i in local_ids}


class BatchSourceDriver:
    """Schedules one node's event stream as timed ingestion batches."""

    def __init__(
        self,
        simulator: Simulator,
        *,
        batch_size: int = 512,
        window_grace_s: float = 1e-6,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if window_grace_s < 0:
            raise ConfigurationError(
                f"window_grace_s must be >= 0, got {window_grace_s}"
            )
        self._simulator = simulator
        self._batch_size = batch_size
        self._window_grace_s = window_grace_s
        self._scheduled_events = 0

    @property
    def scheduled_events(self) -> int:
        """Events scheduled so far, plus those accounted externally."""
        return self._scheduled_events

    def account_external_events(self, count: int) -> None:
        """Count events injected outside the driver (e.g. sensor nodes)."""
        self._scheduled_events += count

    def schedule_batches(
        self,
        operator: LocalOperator,
        events: EventColumns,
        timestamps: np.ndarray,
        starts: np.ndarray,
    ) -> None:
        """Schedule ``events`` as slices that never cross a segment start.

        Each segment ``[starts[i], starts[i + 1])`` is cut into slices of at
        most ``batch_size``; a slice arrives at its last event's timestamp.
        """
        size = self._batch_size
        bounds = [*starts.tolist(), len(events)]
        for lo, hi in zip(bounds, bounds[1:]):
            for a in range(lo, hi, size):
                b = min(a + size, hi)
                self._simulator.schedule(
                    int(timestamps[b - 1]) / MS_PER_SECOND,
                    lambda now, batch=events[a:b]: operator.ingest(batch, now),
                )
        self._scheduled_events += len(events)

    def announce_windows(
        self,
        operator: LocalOperator,
        windows: Sequence[Window],
        *,
        allowed_lateness_ms: int = 0,
        group_id: int = 0,
    ) -> None:
        """Schedule window-completion callbacks on ``operator``.

        Call once per operator with the union of all nodes' windows so that
        empty local windows are still announced.  ``allowed_lateness_ms``
        delays completion past the window's event-time end so that events
        the sensor tier delays can still be folded in.  A nonzero
        ``group_id`` names the query group of an operator serving several.
        """
        complete = operator.on_window_complete
        if group_id:
            complete = functools.partial(complete, group_id=group_id)
        for window in windows:
            completion = (
                (window.end + allowed_lateness_ms) / MS_PER_SECOND
                + self._window_grace_s
            )
            self._simulator.schedule(
                completion,
                lambda now, w=window: complete(w, now),
            )
