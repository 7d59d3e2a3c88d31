"""Shared machinery for baseline deployments.

Every system is a root/local operator pair run on the one
:class:`~repro.network.deployment.SimulatedDeployment`, so the benchmark
harness sweeps systems generically: :func:`build_system` deploys a pair for
a query and topology, and every run returns the same
:class:`~repro.network.deployment.RunReport`.  A baseline root's
``outcomes`` are :class:`WindowRecord` rows.

Every baseline but Scotty runs one protocol: a local folds each window into
a summary, ships it once at window end, and the root waits for one summary
per local, merges them and answers.  :class:`SummaryLocalNode` and
:class:`SummaryRootNode` run that protocol; a :class:`Summary` supplies
only what differs between Desis, t-digest and partial aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Sequence

from repro.errors import AggregationError, ConfigurationError
from repro.network.deployment import SimulatedDeployment
from repro.network.driver import MS_PER_SECOND
from repro.network.messages import EventBatchMessage, Message
from repro.network.simulator import INGEST_OPS, SimulatedNode, receive_ops
from repro.network.topology import TopologyConfig
from repro.obs.tracer import NOOP_TRACER
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window
from repro.core.query import QuantileQuery

# Hot-path module: the summary local folds ``EventColumns`` rows by window
# — no per-event ``Event`` objects (enforced by tests/test_hotpath_lint.py).

__all__ = [
    "bucket_by_window",
    "WindowRecord",
    "Summary",
    "SummaryLocalNode",
    "SummaryRootNode",
    "build_summary_system",
    "build_system",
    "SYSTEM_NAMES",
]


def bucket_by_window(
    events: EventColumns, length: int, completed: "set[Window]"
) -> tuple[list[tuple[Window, EventColumns]], int]:
    """Group a batch by tumbling window, dropping events of ``completed`` ones.

    Returns ``(groups, late)``: the open windows in the order they first
    appear in the batch, each with its rows in arrival order, and the
    number of events whose window is in ``completed``.
    """
    groups = [
        (Window(start, start + length), rows)
        for start, rows in events.by_window(length)
    ]
    late = sum(len(rows) for window, rows in groups if window in completed)
    return [group for group in groups if group[0] not in completed], late


@dataclass(frozen=True, slots=True)
class WindowRecord:
    """One global window's result, comparable across systems."""

    window: Window
    value: float | None
    global_window_size: int
    result_time: float

    @property
    def is_empty(self) -> bool:
        """Whether the global window held no events."""
        return self.global_window_size == 0


class BaselineRootMixin:
    """Root-side record collection shared by all baseline roots."""

    def __init__(self) -> None:
        self._records: list[WindowRecord] = []

    @property
    def outcomes(self) -> list[WindowRecord]:
        """Completed windows in completion order."""
        return list(self._records)

    def _emit(
        self,
        window: Window,
        value: float | None,
        size: int,
        result_time: float,
    ) -> None:
        tracer = getattr(self, "_tracer", NOOP_TRACER)
        if tracer.enabled:
            # End-to-end window span, mirroring the Dema root's "window"
            # span so per-window latency is comparable across systems.
            tracer.record(
                "window",
                self.node_id,  # type: ignore[attr-defined]
                window.end / MS_PER_SECOND,
                result_time,
                window=window,
                global_window_size=size,
            )
        self._records.append(
            WindowRecord(
                window=window,
                value=value,
                global_window_size=size,
                result_time=result_time,
            )
        )


class Summary:
    """What one summary baseline folds a local window into.

    A subclass names its wire message, its root merge span and its
    per-event fold charge (paid on top of ``INGEST_OPS`` for every event of
    a batch, late ones included), and implements the four steps below.
    Quantile summaries answer the ``q`` they are built with.
    """

    #: The message type a local ships its summary in.
    message: type[Message]
    #: The root's merge span, recorded when the merge charges work.
    span: str
    #: Abstract CPU ops per ingested event on top of ``INGEST_OPS``.
    ops_per_event = 0.0

    def __init__(self, q: float) -> None:
        self.q = q

    def new(self, node_id: int) -> Any:
        """An empty window state for local ``node_id``."""
        raise NotImplementedError

    def fold(self, state: Any, rows: EventColumns) -> float:
        """Fold one window's rows into ``state``; return any extra ops."""
        raise NotImplementedError

    def ship(
        self, state: Any, sender: int, window: Window
    ) -> tuple[Message, float | None]:
        """The message carrying ``state`` and the ops charged before it
        leaves (``None``: the local sends without a CPU charge)."""
        raise NotImplementedError

    def merge(
        self, messages: list
    ) -> tuple[float | None, int, float | None, dict]:
        """Answer a window from every local's message, in arrival order.

        Returns ``(value, global size, ops, span attributes)``: ``value``
        is ``None`` for an empty window, and ``ops`` is ``None`` where the
        root answers at arrival time without a CPU charge or span.
        """
        raise NotImplementedError


class SummaryLocalNode(SimulatedNode):
    """Local operator: folds each window into a summary, ships it once."""

    def __init__(
        self,
        node_id: int,
        *,
        root_id: int,
        query: QuantileQuery,
        summary: Summary,
        ops_per_second: float = 1e8,
    ) -> None:
        super().__init__(node_id, ops_per_second=ops_per_second)
        self._root_id = root_id
        self._length = query.assigner().length
        self._summary = summary
        self._open: dict[Window, Any] = {}
        self._completed: set[Window] = set()
        self._late_events = 0

    @property
    def late_events(self) -> int:
        """Events dropped because their window had already shipped."""
        return self._late_events

    def ingest(self, events: EventColumns, now: float) -> float:
        """Fold the batch into its open windows' summaries."""
        summary = self._summary
        groups, late = bucket_by_window(events, self._length, self._completed)
        self._late_events += late
        fold_ops = 0.0
        for window, rows in groups:
            state = self._open.get(window)
            if state is None:
                state = self._open[window] = summary.new(self.node_id)
            fold_ops += summary.fold(state, rows)
        ops = (INGEST_OPS + summary.ops_per_event) * len(events) + fold_ops
        return self.work(ops, now)

    def on_window_complete(self, window: Window, now: float) -> None:
        """Ship the window's summary upstream (once)."""
        if window in self._completed:
            return
        self._completed.add(window)
        state = self._open.pop(window, None)
        if state is None:
            state = self._summary.new(self.node_id)
        message, ops = self._summary.ship(state, self.node_id, window)
        send_at = now if ops is None else self.work(ops, now)
        self.send(message, self._root_id, send_at)

    def on_message(self, message: Message, now: float) -> None:
        if isinstance(message, EventBatchMessage):
            finish = self.work(receive_ops(message.payload_bytes), now)
            self.ingest(message.events, finish)
            return
        raise AggregationError(
            f"{type(self._summary).__name__} local node received unexpected "
            f"{type(message).__name__}"
        )


class SummaryRootNode(SimulatedNode, BaselineRootMixin):
    """Root operator: merges one summary per local and answers."""

    def __init__(
        self,
        node_id: int,
        *,
        local_ids: Sequence[int],
        summary: Summary,
        ops_per_second: float = 2e8,
    ) -> None:
        SimulatedNode.__init__(self, node_id, ops_per_second=ops_per_second)
        BaselineRootMixin.__init__(self)
        self._n_locals = len(local_ids)
        self._summary = summary
        self._pending: dict[Window, dict[int, Message]] = {}

    @property
    def open_windows(self) -> int:
        """Windows still awaiting summaries."""
        return len(self._pending)

    def on_message(self, message: Message, now: float) -> None:
        """Collect one summary per local node, then merge and answer."""
        summary = self._summary
        if not isinstance(message, summary.message):
            raise AggregationError(
                f"{type(summary).__name__} root received unexpected "
                f"{type(message).__name__}"
            )
        self.work(receive_ops(message.payload_bytes), now)
        pending = self._pending.setdefault(message.window, {})
        if message.sender in pending:
            raise AggregationError(
                f"duplicate {type(summary).__name__} from node "
                f"{message.sender} for window {message.window}"
            )
        pending[message.sender] = message
        if len(pending) == self._n_locals:
            self._close(message.window, now)

    def _close(self, window: Window, now: float) -> None:
        messages = list(self._pending.pop(window).values())
        value, size, ops, attrs = self._summary.merge(messages)
        finish = now
        if ops is not None:
            finish = self.work(ops, now)
            if self._tracer.enabled:
                self._tracer.record(
                    self._summary.span,
                    self.node_id,
                    now,
                    finish,
                    window=window,
                    **attrs,
                )
        self._emit(window, value, size, finish)


def build_summary_system(
    summary: Summary,
    query: QuantileQuery,
    topology_config: TopologyConfig,
    *,
    batch_size: int = 512,
    tracer=None,
) -> SimulatedDeployment:
    """Deploy the summary pair over ``query``'s tumbling windows."""
    return SimulatedDeployment(
        topology_config,
        root=partial(SummaryRootNode, summary=summary),
        local=partial(SummaryLocalNode, query=query, summary=summary),
        assigner=query.assigner(),
        batch_size=batch_size,
        tracer=tracer,
    )


def build_system(
    name: str,
    query: QuantileQuery,
    topology_config: TopologyConfig,
    *,
    batch_size: int = 512,
    tracer=None,
):
    """Factory for any system of :data:`SYSTEM_NAMES` by name.

    Dema runs its operator pair (:class:`~repro.core.engine.DemaEngine`)
    and Scotty its forwarding pair; desis and tdigest run the summary
    pair with their summary.  Every one is a
    :class:`~repro.network.deployment.SimulatedDeployment`, so ``run`` and
    ``run_via_sensors`` mean the same for each.
    Passing a :class:`~repro.obs.tracer.RecordingTracer` instruments the
    deployment; the default is the shared no-op tracer.

    Raises:
        ConfigurationError: On an unknown system name.
    """
    # Imported here to avoid circular imports at package load time.
    from repro.core.engine import DemaEngine
    from repro.baselines.scotty import ScottyLocalNode, ScottyRootNode
    from repro.baselines.desis import DesisSummary
    from repro.baselines.tdigest_system import TDigestSummary

    if name == "dema":
        return DemaEngine(
            query, topology_config, batch_size=batch_size, tracer=tracer
        )
    if name == "scotty":
        return SimulatedDeployment(
            topology_config,
            root=partial(ScottyRootNode, query=query),
            local=partial(ScottyLocalNode, query=query),
            assigner=query.assigner(),
            batch_size=batch_size,
            tracer=tracer,
        )
    summaries = {"desis": DesisSummary, "tdigest": TDigestSummary}
    if name not in summaries:
        raise ConfigurationError(
            f"unknown system {name!r}; known: {SYSTEM_NAMES}"
        )
    return build_summary_system(
        summaries[name](query.q),
        query,
        topology_config,
        batch_size=batch_size,
        tracer=tracer,
    )


#: All systems the harness can sweep.
SYSTEM_NAMES = ("dema", "scotty", "desis", "tdigest")
