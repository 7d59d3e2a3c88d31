"""Shared machinery for baseline deployments.

Every system exposes the same run interface so the benchmark harness can
sweep systems generically: build an engine for a query and topology, feed
per-local-node streams, and read back a :class:`SystemReport` with window
records, network metrics and latency statistics.  Dema's own engine returns
a structurally identical report, so ``report.outcomes[i].value`` means the
same thing for every system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.network.driver import MS_PER_SECOND, BatchSourceDriver
from repro.network.metrics import LatencyStats, NetworkMetrics
from repro.network.simulator import SimulatedNode, Simulator
from repro.network.topology import Topology, TopologyConfig
from repro.obs.tracer import NOOP_TRACER
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event
from repro.streaming.windows import Window
from repro.core.query import QuantileQuery

__all__ = [
    "bucket_by_window",
    "WindowRecord",
    "SystemReport",
    "BaselineEngine",
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


@dataclass
class SystemReport:
    """Uniform run report: window records plus network/latency metrics."""

    outcomes: list[WindowRecord]
    network: NetworkMetrics
    latency: LatencyStats
    final_time: float
    events_ingested: int

    @property
    def values(self) -> list[float | None]:
        """Per-window results in completion order."""
        return [record.value for record in self.outcomes]


class BaselineRootMixin:
    """Root-side record collection shared by all baseline roots."""

    def __init__(self) -> None:
        self._records: list[WindowRecord] = []

    @property
    def records(self) -> list[WindowRecord]:
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


class BaselineEngine:
    """Deploys one baseline's local/root operators and runs workloads."""

    def __init__(
        self,
        query: QuantileQuery,
        topology_config: TopologyConfig,
        *,
        root_factory: Callable[[int, float, Sequence[int], QuantileQuery], SimulatedNode],
        local_factory: Callable[[int, float, int, QuantileQuery], SimulatedNode],
        batch_size: int = 512,
        tracer=None,
    ) -> None:
        self._query = query
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._simulator = Simulator(tracer=self._tracer)
        local_ids = list(range(1, topology_config.n_local_nodes + 1))
        self._root_holder: list[SimulatedNode] = []

        def make_root(node_id: int, ops: float) -> SimulatedNode:
            root = root_factory(node_id, ops, local_ids, query)
            self._root_holder.append(root)
            return root

        def make_local(node_id: int, ops: float) -> SimulatedNode:
            return local_factory(node_id, ops, 0, query)

        self._topology = Topology.build(
            self._simulator,
            topology_config,
            root_factory=make_root,
            local_factory=make_local,
        )
        self._driver = BatchSourceDriver(self._simulator, batch_size=batch_size)
        if self._tracer.enabled:
            for node in self._simulator.nodes.values():
                node.set_tracer(self._tracer)

    @property
    def simulator(self) -> Simulator:
        """The underlying discrete-event engine."""
        return self._simulator

    @property
    def tracer(self):
        """The run's span tracer (the shared no-op tracer by default)."""
        return self._tracer

    @property
    def topology(self) -> Topology:
        """The wired deployment."""
        return self._topology

    @property
    def root(self) -> SimulatedNode:
        """The root operator."""
        return self._root_holder[0]

    def run(
        self, streams: "Mapping[int, EventColumns | Sequence[Event]]"
    ) -> SystemReport:
        """Feed per-local-node streams (``EventColumns`` or sequences of
        ``Event``; the driver converts) and drain the simulation."""
        unknown = set(streams) - set(self._topology.local_ids)
        if unknown:
            raise ConfigurationError(
                f"streams reference unknown local nodes {sorted(unknown)}"
            )
        assigner = self._query.assigner()
        all_windows: set[Window] = set()
        for local_id in self._topology.local_ids:
            events = streams.get(local_id, ())
            operator = self._simulator.nodes[local_id]
            all_windows.update(self._driver.feed(operator, events, assigner))
        return self._finish(all_windows, allowed_lateness_ms=0)

    def run_unordered(
        self,
        arrivals: Mapping[int, Sequence[tuple[Event, int]]],
        *,
        allowed_lateness_ms: int = 0,
    ) -> SystemReport:
        """Like :meth:`run`, but events arrive with per-event delays.

        Arrivals later than their window's end plus the allowed lateness
        are dropped by the operators and counted as late.
        """
        unknown = set(arrivals) - set(self._topology.local_ids)
        if unknown:
            raise ConfigurationError(
                f"streams reference unknown local nodes {sorted(unknown)}"
            )
        assigner = self._query.assigner()
        all_windows: set[Window] = set()
        for local_id in self._topology.local_ids:
            pairs = arrivals.get(local_id, ())
            operator = self._simulator.nodes[local_id]
            all_windows.update(
                self._driver.feed_unordered(operator, pairs, assigner)
            )
        return self._finish(
            all_windows, allowed_lateness_ms=allowed_lateness_ms
        )

    def _finish(
        self, all_windows: set[Window], *, allowed_lateness_ms: int
    ) -> SystemReport:
        ordered = sorted(all_windows)
        for local_id in self._topology.local_ids:
            operator = self._simulator.nodes[local_id]
            self._driver.announce_windows(
                operator, ordered, allowed_lateness_ms=allowed_lateness_ms
            )

        final_time = self._simulator.run()
        records = self.root.records  # type: ignore[attr-defined]
        latency = LatencyStats()
        for record in records:
            latency.add(record.result_time - record.window.end / MS_PER_SECOND)
        if self._tracer.enabled:
            self._tracer.registry.counter(
                "windows_completed_total", "Windows that produced a result."
            ).inc(len(records))
            self._tracer.finalize(self._simulator, final_time)
        return SystemReport(
            outcomes=records,
            network=NetworkMetrics.capture(self._simulator),
            latency=latency,
            final_time=final_time,
            events_ingested=self._driver.scheduled_events,
        )


def build_system(
    name: str,
    query: QuantileQuery,
    topology_config: TopologyConfig,
    *,
    batch_size: int = 512,
    tracer=None,
):
    """Factory for any system by name: dema, scotty, desis, tdigest.

    Returns an engine with a uniform ``run(streams) -> report`` interface.
    Passing a :class:`~repro.obs.tracer.RecordingTracer` instruments the
    deployment; the default is the shared no-op tracer.

    Raises:
        ConfigurationError: On an unknown system name.
    """
    # Imported here to avoid circular imports at package load time.
    from repro.core.engine import DemaEngine
    from repro.baselines.scotty import ScottyLocalNode, ScottyRootNode
    from repro.baselines.desis import DesisLocalNode, DesisRootNode
    from repro.baselines.tdigest_system import TDigestLocalNode, TDigestRootNode
    from repro.baselines.qdigest_system import QDigestLocalNode, QDigestRootNode
    from repro.baselines.kll_system import KllLocalNode, KllRootNode

    if name == "dema":
        return DemaEngine(
            query, topology_config, batch_size=batch_size, tracer=tracer
        )
    if query.is_sliding:
        raise ConfigurationError(
            f"{name} supports tumbling windows only; sliding-window "
            "queries are a Dema extension"
        )
    pairs = {
        "scotty": (ScottyRootNode, ScottyLocalNode),
        "desis": (DesisRootNode, DesisLocalNode),
        "tdigest": (TDigestRootNode, TDigestLocalNode),
        "qdigest": (QDigestRootNode, QDigestLocalNode),
        "kll": (KllRootNode, KllLocalNode),
    }
    if name not in pairs:
        raise ConfigurationError(
            f"unknown system {name!r}; known: {SYSTEM_NAMES}"
        )
    root_cls, local_cls = pairs[name]
    return BaselineEngine(
        query,
        topology_config,
        root_factory=lambda nid, ops, locals_, q: root_cls(
            nid, local_ids=locals_, query=q, ops_per_second=ops
        ),
        local_factory=lambda nid, ops, root_id, q: local_cls(
            nid, root_id=root_id, query=q, ops_per_second=ops
        ),
        batch_size=batch_size,
        tracer=tracer,
    )


#: All systems the harness can sweep.
SYSTEM_NAMES = ("dema", "scotty", "desis", "tdigest", "qdigest", "kll")
