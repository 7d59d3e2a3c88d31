"""Decentralized partial aggregation for decomposable functions.

This is the state of the art the paper builds on (Disco, Desis, §2.3): for
self-decomposable and decomposable functions, local nodes fold their whole
window into a constant-size partial aggregate and ship only that — a few
dozen bytes per window regardless of the event rate.  The root combines
the partials and lowers the final answer, exactly.

The system exists in this reproduction to make the paper's motivating
contrast executable: run ``sum`` through it and the network cost is
O(nodes) per window; try ``median`` and it raises, because no constant-size
exact partial exists — that gap is what Dema fills.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from repro.errors import AggregationError, ConfigurationError
from repro.network.messages import PartialAggregateMessage
from repro.streaming.aggregates import (
    AggregationFunction,
    get_function,
)
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window
from repro.core.query import QuantileQuery
from repro.network.topology import TopologyConfig
from repro.baselines.base import BaselineEngine, Summary, build_summary_system

__all__ = [
    "PartialSummary",
    "build_partial_system",
    "serialize_partial",
    "deserialize_partial",
]


def serialize_partial(
    function: AggregationFunction, partial: Any
) -> tuple[float, ...]:
    """Encode a partial aggregate as a flat float tuple for the wire.

    Raises:
        AggregationError: If the function has no constant-size encoding
            (i.e. it is non-decomposable).
    """
    name = function.name
    if name in ("sum", "count", "min", "max"):
        return (float(partial),)
    if name in ("average", "variance"):
        return (float(partial.count), partial.total, partial.total_sq)
    if name == "range":
        return (partial[0], partial[1])
    raise AggregationError(
        f"{name} has no constant-size exact partial; use Dema for "
        "non-decomposable functions"
    )


def deserialize_partial(
    function: AggregationFunction, state: tuple[float, ...]
) -> Any:
    """Decode a wire state back into the function's partial type."""
    name = function.name
    if name in ("sum", "min", "max"):
        return state[0]
    if name == "count":
        return int(state[0])
    if name in ("average", "variance"):
        from repro.streaming.aggregates import _Moments

        return _Moments(int(state[0]), state[1], state[2])
    if name == "range":
        return (state[0], state[1])
    raise AggregationError(f"cannot deserialize a partial for {name}")


class PartialSummary(Summary):
    """A local window as one constant-size partial aggregate; the root
    combines the partials and lowers the answer, both without a charge.

    Raises:
        ConfigurationError: If the function is non-decomposable — the gap
            Dema exists to fill.
    """

    message = PartialAggregateMessage
    #: Lifting + combining one event into the running partial.
    ops_per_event = 2.0

    def __init__(self, function: AggregationFunction) -> None:
        if not function.is_decomposable:
            raise ConfigurationError(
                f"{function.name} is non-decomposable; partial aggregation "
                "cannot compute it exactly — use Dema"
            )
        self._function = function

    def new(self, node_id: int) -> SimpleNamespace:
        return SimpleNamespace(partial=None, count=0)

    def fold(self, state: SimpleNamespace, rows: EventColumns) -> float:
        function = self._function
        for value in rows.values.tolist():
            lifted = function.lift(value)
            state.partial = (
                lifted
                if state.partial is None
                else function.combine(state.partial, lifted)
            )
        state.count += len(rows)
        return 0.0

    def ship(self, state: SimpleNamespace, sender: int, window: Window):
        wire_state = (
            serialize_partial(self._function, state.partial)
            if state.partial is not None
            else ()
        )
        return PartialAggregateMessage(
            sender=sender,
            window=window,
            state=wire_state,
            local_window_size=state.count,
        ), None

    def merge(self, messages: list):
        combined: Any = None
        total = 0
        for incoming in messages:
            total += incoming.local_window_size
            if not incoming.state:
                continue
            partial = deserialize_partial(self._function, incoming.state)
            combined = (
                partial
                if combined is None
                else self._function.combine(combined, partial)
            )
        if combined is None:
            return None, 0, None, {}
        return self._function.lower(combined), total, None, {}


def build_partial_system(
    function_name: str,
    topology_config: TopologyConfig,
    *,
    window_length_ms: int = 1000,
    batch_size: int = 512,
) -> BaselineEngine:
    """Deploy partial aggregation for a decomposable function by name.

    Raises:
        ConfigurationError: If the function is non-decomposable — the gap
            Dema exists to fill.
    """
    summary = PartialSummary(get_function(function_name))
    # The engine and the locals use the query only for its window shape.
    shape_query = QuantileQuery(q=0.5, window_length_ms=window_length_ms)
    return build_summary_system(
        summary, shape_query, topology_config, batch_size=batch_size
    )
