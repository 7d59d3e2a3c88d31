"""Window types from the Dataflow model: tumbling, sliding, session.

The paper (Section 2.1) follows Akidau et al.'s classification.  A window
assigner maps an event timestamp to the set of windows the event belongs to.
Tumbling windows are the special case of sliding windows whose step equals
their length; Dema's evaluation uses time-based tumbling windows throughout,
but the substrate implements all three types so the baselines and extensions
can be exercised on the full window algebra.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigurationError, WindowError
from repro.streaming.events import Event

__all__ = [
    "CONTROL_WINDOW",
    "Window",
    "WindowAssigner",
    "TumblingWindows",
    "SlidingWindows",
    "SessionWindows",
]


@dataclass(frozen=True, slots=True, order=True)
class Window:
    """A half-open event-time interval ``[start, end)``.

    Windows compare by ``(start, end)`` so sorted containers keep them in
    chronological order.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise WindowError(
                f"window end ({self.end}) must be after start ({self.start})"
            )

    @property
    def length(self) -> int:
        """Duration of the window in event-time units."""
        return self.end - self.start

    def contains(self, timestamp: int) -> bool:
        """Whether ``timestamp`` falls inside the half-open interval."""
        return self.start <= timestamp < self.end

    def intersects(self, other: "Window") -> bool:
        """Whether the two half-open intervals share any instant."""
        return self.start < other.end and other.start < self.end

    def merge(self, other: "Window") -> "Window":
        """Return the smallest window covering both (used by sessions)."""
        return Window(min(self.start, other.start), max(self.end, other.end))


#: Placeholder header window for frames that are not about any window
#: (heartbeats, membership, telemetry, query-plane control): the wire
#: header needs a valid one.
CONTROL_WINDOW = Window(0, 1)


class WindowAssigner(ABC):
    """Maps event timestamps to the windows the event belongs to."""

    @abstractmethod
    def assign(self, timestamp: int) -> Sequence[Window]:
        """Return the windows containing ``timestamp``, earliest first."""

    def assign_event(self, event: Event) -> Sequence[Window]:
        """Assign an event by its event-time timestamp."""
        return self.assign(event.timestamp)

    @property
    def is_merging(self) -> bool:
        """Whether assigned windows may later merge (session windows)."""
        return False


class TumblingWindows(WindowAssigner):
    """Fixed-length, non-overlapping windows aligned to the epoch.

    An event with timestamp ``t`` belongs to exactly one window,
    ``[floor(t / length) * length, ... + length)``.
    """

    def __init__(self, length: int) -> None:
        if length <= 0:
            raise ConfigurationError(f"window length must be > 0, got {length}")
        self._length = length

    @property
    def length(self) -> int:
        """Window duration in event-time units."""
        return self._length

    def assign(self, timestamp: int) -> Sequence[Window]:
        start = (timestamp // self._length) * self._length
        return (Window(start, start + self._length),)

    def window_for(self, timestamp: int) -> Window:
        """Return the single window containing ``timestamp``."""
        return self.assign(timestamp)[0]

    def __repr__(self) -> str:
        return f"TumblingWindows(length={self._length})"


class SlidingWindows(WindowAssigner):
    """Fixed-length windows that start every ``step`` time units.

    An event belongs to ``ceil(length / step)`` windows when ``step`` divides
    ``length``, and up to that many otherwise.  With ``step == length`` this
    degenerates to tumbling windows (asserted in tests).
    """

    def __init__(self, length: int, step: int) -> None:
        if length <= 0:
            raise ConfigurationError(f"window length must be > 0, got {length}")
        if step <= 0:
            raise ConfigurationError(f"window step must be > 0, got {step}")
        if step > length:
            raise ConfigurationError(
                f"step ({step}) larger than length ({length}) would drop "
                "events; use tumbling windows with gaps instead"
            )
        self._length = length
        self._step = step

    @property
    def length(self) -> int:
        """Window duration in event-time units."""
        return self._length

    @property
    def step(self) -> int:
        """Distance between consecutive window starts."""
        return self._step

    def assign(self, timestamp: int) -> Sequence[Window]:
        last_start = (timestamp // self._step) * self._step
        windows = []
        start = last_start
        while start > timestamp - self._length:
            windows.append(Window(start, start + self._length))
            start -= self._step
        windows.reverse()
        return tuple(windows)

    def __repr__(self) -> str:
        return f"SlidingWindows(length={self._length}, step={self._step})"


class SessionWindows(WindowAssigner):
    """Activity-based windows that close after a gap of inactivity.

    Each event initially gets its own proto-window ``[t, t + gap)``;
    overlapping proto-windows merge.  :meth:`merge_windows` performs the
    merge over a batch of assigned windows.
    """

    def __init__(self, gap: int) -> None:
        if gap <= 0:
            raise ConfigurationError(f"session gap must be > 0, got {gap}")
        self._gap = gap

    @property
    def gap(self) -> int:
        """Inactivity gap that closes a session."""
        return self._gap

    @property
    def is_merging(self) -> bool:
        return True

    def assign(self, timestamp: int) -> Sequence[Window]:
        return (Window(timestamp, timestamp + self._gap),)

    def merge_windows(self, windows: Iterable[Window]) -> list[Window]:
        """Merge overlapping proto-windows into maximal sessions.

        Args:
            windows: Proto-windows in any order.

        Returns:
            Disjoint session windows in chronological order.
        """
        ordered = sorted(windows)
        if not ordered:
            return []
        merged = [ordered[0]]
        for window in ordered[1:]:
            if window.intersects(merged[-1]) or window.start == merged[-1].end:
                merged[-1] = merged[-1].merge(window)
            else:
                merged.append(window)
        return merged

    def sessions_for_events(self, events: Iterable[Event]) -> list[Window]:
        """Compute the session windows covering ``events``."""
        proto = []
        for event in events:
            proto.extend(self.assign_event(event))
        return self.merge_windows(proto)

    def __repr__(self) -> str:
        return f"SessionWindows(gap={self._gap})"
