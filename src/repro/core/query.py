"""Quantile query descriptions and the groups a deployment serves them in.

A query names the quantile, the tumbling-window length, and the slice-factor
policy (fixed γ or adaptive).  The same query object configures Dema and
every baseline so benchmark comparisons are apples-to-apples.

Several queries over one deployment are partitioned into **groups** by
window shape and slice factor (:func:`group_queries`).  Within a group the
local work happens once — one sorted window, one slicing pass, one synopsis
batch — and the root answers every quantile of the group with one
identification pass over those synopses.  A single query is group 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.streaming.windows import SlidingWindows, TumblingWindows, WindowAssigner
from repro.core.slicing import MIN_GAMMA

__all__ = ["QuantileQuery", "QueryGroup", "group_queries", "served_groups"]


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


@dataclass(frozen=True)
class QueryGroup:
    """Queries sharing window shape and slice factor.

    Attributes:
        group_id: Index used to multiplex protocol messages.
        queries: ``(query_index, query)`` pairs; the index refers to the
            caller's original query list.
    """

    group_id: int
    queries: tuple[tuple[int, QuantileQuery], ...]

    @property
    def shape(self) -> tuple[int, int | None, int]:
        """The shared ``(length, step, gamma)`` signature."""
        query = self.queries[0][1]
        return (query.window_length_ms, query.window_step_ms, query.gamma)

    @property
    def prototype(self) -> QuantileQuery:
        """A representative query (window shape and γ are shared)."""
        return self.queries[0][1]

    @property
    def quantiles(self) -> tuple[tuple[int, float], ...]:
        """``(query_index, q)`` pairs answered by this group."""
        return tuple(
            (index, query.q) for index, query in self.queries
        )


def group_queries(queries: Sequence[QuantileQuery]) -> list[QueryGroup]:
    """Partition queries into sharing groups by window shape and γ.

    Group ids are dense and deterministic, so every node handed the same
    queries agrees on them.

    Raises:
        ConfigurationError: If no queries are given or any query is
            adaptive (concurrent deployments use fixed per-group γ; the
            adaptive controller assumes a single query per root).
    """
    if not queries:
        raise ConfigurationError("need at least one query")
    for query in queries:
        if query.adaptive:
            raise ConfigurationError(
                "concurrent deployments require fixed-γ queries"
            )
    by_shape: dict[tuple, list[tuple[int, QuantileQuery]]] = {}
    for index, query in enumerate(queries):
        shape = (query.window_length_ms, query.window_step_ms, query.gamma)
        by_shape.setdefault(shape, []).append((index, query))
    return [
        QueryGroup(group_id=group_id, queries=tuple(members))
        for group_id, members in enumerate(
            by_shape[shape] for shape in sorted(by_shape, key=str)
        )
    ]


def served_groups(queries: Sequence[QuantileQuery]) -> tuple[QueryGroup, ...]:
    """The groups a Dema node serving ``queries`` multiplexes.

    One query is group 0 and may be adaptive; several are
    :func:`group_queries`'s partition (fixed γ only).
    """
    if len(queries) == 1:
        return (QueryGroup(group_id=0, queries=((0, queries[0]),)),)
    return tuple(group_queries(queries))
