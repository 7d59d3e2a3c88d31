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

from typing import Any, Sequence

from repro.errors import AggregationError, ConfigurationError
from repro.network.messages import (
    EventBatchMessage,
    Message,
    PartialAggregateMessage,
)
from repro.network.simulator import INGEST_OPS, SimulatedNode, receive_ops
from repro.streaming.aggregates import (
    AggregationFunction,
    get_function,
)
from repro.streaming.columns import EventColumns
from repro.streaming.windows import TumblingWindows, Window
from repro.core.query import QuantileQuery
from repro.network.topology import TopologyConfig
from repro.baselines.base import (
    BaselineEngine,
    BaselineRootMixin,
    bucket_by_window,
)

__all__ = [
    "PartialAggLocalNode",
    "PartialAggRootNode",
    "build_partial_system",
    "serialize_partial",
    "deserialize_partial",
]

#: Abstract ops for lifting + combining one event into the running partial.
_FOLD_OPS_PER_EVENT = 2.0


def serialize_partial(
    function: AggregationFunction, partial: Any
) -> tuple[float, ...]:
    """Encode a partial aggregate as a flat float tuple for the wire.

    Raises:
        AggregationError: If the function has no constant-size encoding
            (i.e. it is non-decomposable).
    """
    name = function.name
    if name in ("sum", "min", "max"):
        return (float(partial),)
    if name == "count":
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


class PartialAggLocalNode(SimulatedNode):
    """Edge operator folding events into constant-size partials."""

    def __init__(
        self,
        node_id: int,
        *,
        root_id: int,
        function: AggregationFunction,
        window_length_ms: int,
        ops_per_second: float = 1e8,
    ) -> None:
        super().__init__(node_id, ops_per_second=ops_per_second)
        if not function.is_decomposable:
            raise ConfigurationError(
                f"{function.name} is non-decomposable; partial aggregation "
                "cannot compute it exactly (this is the paper's premise)"
            )
        self._root_id = root_id
        self._function = function
        self._assigner = TumblingWindows(window_length_ms)
        self._partials: dict[Window, Any] = {}
        self._counts: dict[Window, int] = {}
        self._completed: set[Window] = set()
        self._events_ingested = 0
        self._late_events = 0

    @property
    def events_ingested(self) -> int:
        """Raw events accepted so far."""
        return self._events_ingested

    @property
    def late_events(self) -> int:
        """Events dropped because their window had already shipped."""
        return self._late_events

    def ingest(self, events: EventColumns, now: float) -> float:
        """Fold the batch into per-window partial aggregates (O(1) state)."""
        groups, late = bucket_by_window(
            events, self._assigner.length, self._completed
        )
        self._late_events += late
        for window, rows in groups:
            for value in rows.values.tolist():
                lifted = self._function.lift(value)
                if window in self._partials:
                    self._partials[window] = self._function.combine(
                        self._partials[window], lifted
                    )
                else:
                    self._partials[window] = lifted
            self._counts[window] = self._counts.get(window, 0) + len(rows)
        self._events_ingested += len(events)
        ops = (INGEST_OPS + _FOLD_OPS_PER_EVENT) * len(events)
        return self.work(ops, now)

    def on_window_complete(self, window: Window, now: float) -> None:
        """Ship the window's partial aggregate (a few floats)."""
        if window in self._completed:
            return
        self._completed.add(window)
        partial = self._partials.pop(window, None)
        count = self._counts.pop(window, 0)
        state = (
            serialize_partial(self._function, partial)
            if partial is not None
            else ()
        )
        message = PartialAggregateMessage(
            sender=self.node_id,
            window=window,
            state=state,
            local_window_size=count,
        )
        self.send(message, self._root_id, now)

    def on_message(self, message: Message, now: float) -> None:
        if isinstance(message, EventBatchMessage):
            finish = self.work(receive_ops(message.payload_bytes), now)
            self.ingest(message.events, finish)
            return
        raise AggregationError(
            f"partial-agg local node received unexpected "
            f"{type(message).__name__}"
        )


class PartialAggRootNode(SimulatedNode, BaselineRootMixin):
    """Root operator combining partials and lowering the final answer."""

    def __init__(
        self,
        node_id: int,
        *,
        local_ids: Sequence[int],
        function: AggregationFunction,
        ops_per_second: float = 2e8,
    ) -> None:
        SimulatedNode.__init__(self, node_id, ops_per_second=ops_per_second)
        BaselineRootMixin.__init__(self)
        self._local_ids = tuple(local_ids)
        self._function = function
        self._pending: dict[Window, dict[int, PartialAggregateMessage]] = {}

    @property
    def open_windows(self) -> int:
        """Windows still awaiting partials."""
        return len(self._pending)

    def on_message(self, message: Message, now: float) -> None:
        """Collect one partial per local node; combine and answer."""
        if not isinstance(message, PartialAggregateMessage):
            raise AggregationError(
                f"partial-agg root received unexpected "
                f"{type(message).__name__}"
            )
        self.work(receive_ops(message.payload_bytes), now)
        pending = self._pending.setdefault(message.window, {})
        if message.sender in pending:
            raise AggregationError(
                f"duplicate partial from node {message.sender} for window "
                f"{message.window}"
            )
        pending[message.sender] = message
        if len(pending) == len(self._local_ids):
            self._close(message.window, now)

    def _close(self, window: Window, now: float) -> None:
        messages = self._pending.pop(window)
        combined: Any = None
        total = 0
        for incoming in messages.values():
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
            self._emit(window, None, 0, now)
            return
        self._emit(window, self._function.lower(combined), total, now)


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
    function = get_function(function_name)
    if not function.is_decomposable:
        raise ConfigurationError(
            f"{function_name} is non-decomposable; partial aggregation "
            "cannot compute it exactly — use Dema"
        )
    # The engine only uses the query for its window shape.
    shape_query = QuantileQuery(q=0.5, window_length_ms=window_length_ms)
    return BaselineEngine(
        shape_query,
        topology_config,
        root_factory=lambda nid, ops, locals_, _query: PartialAggRootNode(
            nid, local_ids=locals_, function=function, ops_per_second=ops
        ),
        local_factory=lambda nid, ops, root_id, _query: PartialAggLocalNode(
            nid,
            root_id=0,
            function=function,
            window_length_ms=window_length_ms,
            ops_per_second=ops,
        ),
        batch_size=batch_size,
    )
