"""Time-based tumbling windows, the paper's evaluation setting.

The paper (Section 2.1) follows Akidau et al.'s classification; Dema's
evaluation uses time-based tumbling windows throughout, and so does every
simulated deployment here.  Sliding windows run on the live query plane
(:mod:`repro.queries`), which shares sorted panes between overlapping
windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError, WindowError

__all__ = [
    "CONTROL_WINDOW",
    "Window",
    "TumblingWindows",
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


#: Placeholder header window for frames that are not about any window
#: (heartbeats, membership, telemetry, query-plane control): the wire
#: header needs a valid one.
CONTROL_WINDOW = Window(0, 1)


class TumblingWindows:
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
        """The windows containing ``timestamp``: exactly one."""
        start = (timestamp // self._length) * self._length
        return (Window(start, start + self._length),)

    def window_for(self, timestamp: int) -> Window:
        """Return the single window containing ``timestamp``."""
        return self.assign(timestamp)[0]

    def __repr__(self) -> str:
        return f"TumblingWindows(length={self._length})"
