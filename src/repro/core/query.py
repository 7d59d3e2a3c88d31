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
from repro.streaming.windows import SlidingWindows, TumblingWindows, WindowAssigner
from repro.core.slicing import MIN_GAMMA

__all__ = ["QuantileQuery"]


@dataclass(frozen=True, slots=True)
class QuantileQuery:
    """A continuous quantile query over time-based tumbling windows.

    Attributes:
        q: The quantile in ``(0, 1]``; 0.5 is the median.
        window_length_ms: Window length in event-time milliseconds (the
            paper evaluates one-second windows, i.e. 1000).
        window_step_ms: Optional step for *sliding* windows (an extension
            beyond the paper's tumbling focus); ``None`` or a value equal
            to the length gives tumbling windows.
        gamma: Fixed slice factor; ignored when ``adaptive`` is true.
        adaptive: Whether the root re-optimizes γ each window (Section 3.3).
        per_node_gamma: With ``adaptive``, optimize a separate γ per local
            node (the paper's Section 3.3 extension for heterogeneous
            workloads) instead of one global factor.
    """

    q: float = 0.5
    window_length_ms: int = 1000
    window_step_ms: int | None = None
    gamma: int = 10_000
    adaptive: bool = False
    per_node_gamma: bool = False

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
        if self.per_node_gamma and not self.adaptive:
            raise ConfigurationError(
                "per_node_gamma requires adaptive=True; a fixed per-node "
                "factor has no information to differ by node"
            )
        if self.window_step_ms is not None and not (
            0 < self.window_step_ms <= self.window_length_ms
        ):
            raise ConfigurationError(
                f"window step must be in (0, length], got "
                f"{self.window_step_ms} for length {self.window_length_ms}"
            )

    @property
    def is_sliding(self) -> bool:
        """Whether consecutive windows overlap."""
        return (
            self.window_step_ms is not None
            and self.window_step_ms != self.window_length_ms
        )

    def assigner(self) -> WindowAssigner:
        """The window assigner this query runs over."""
        if self.is_sliding:
            return SlidingWindows(self.window_length_ms, self.window_step_ms)
        return TumblingWindows(self.window_length_ms)

    def describe(self) -> str:
        """Human-readable one-liner for logs and reports."""
        policy = "adaptive" if self.adaptive else f"γ={self.gamma}"
        if self.is_sliding:
            shape = (
                f"{self.window_length_ms} ms sliding windows every "
                f"{self.window_step_ms} ms"
            )
        else:
            shape = f"{self.window_length_ms} ms tumbling windows"
        return f"{self.q:.0%} quantile over {shape} ({policy})"
