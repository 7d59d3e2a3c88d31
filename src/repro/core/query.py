"""Quantile query descriptions.

A query names the quantile, the tumbling-window length, and the slice-factor
policy (fixed γ or adaptive).  The same query object configures Dema and
every baseline so benchmark comparisons are apples-to-apples.  A simulated
deployment serves one query, as group 0; several concurrent queries share
their windows on the live query plane (:mod:`repro.queries`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.streaming.windows import TumblingWindows
from repro.core.slicing import MIN_GAMMA

__all__ = ["QuantileQuery"]


@dataclass(frozen=True, slots=True)
class QuantileQuery:
    """A continuous quantile query over time-based tumbling windows.

    Attributes:
        q: The quantile in ``(0, 1]``; 0.5 is the median.
        window_length_ms: Window length in event-time milliseconds (the
            paper evaluates one-second windows, i.e. 1000).
        gamma: Fixed slice factor; ignored when ``adaptive`` is true.
        adaptive: Whether the root re-optimizes γ each window (Section 3.3).
    """

    q: float = 0.5
    window_length_ms: int = 1000
    gamma: int = 10_000
    adaptive: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.q <= 1.0:
            raise ConfigurationError(f"quantile q must be in (0, 1], got {self.q}")
        if self.window_length_ms <= 0:
            raise ConfigurationError(
                f"window length must be > 0 ms, got {self.window_length_ms}"
            )
        if self.gamma < MIN_GAMMA:
            raise ConfigurationError(
                f"gamma must be >= {MIN_GAMMA}, got {self.gamma}"
            )

    def assigner(self) -> TumblingWindows:
        """The tumbling windows this query runs over."""
        return TumblingWindows(self.window_length_ms)

    def describe(self) -> str:
        """Human-readable one-liner for logs and reports."""
        policy = "adaptive" if self.adaptive else f"γ={self.gamma}"
        return (
            f"{self.q:.0%} quantile over {self.window_length_ms} ms "
            f"tumbling windows ({policy})"
        )
