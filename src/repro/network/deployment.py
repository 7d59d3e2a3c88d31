"""One simulated deployment: any system's operator pair on the network.

Every system under evaluation — Dema and each baseline — is a root
operator and a local operator.  :class:`SimulatedDeployment` installs a
pair on the three-layer :class:`~repro.network.topology.Topology` (with
the sensor tier when ``streams_per_local > 0``), cuts each local's stream
into batches where its windows change, announces every window to every
local, drains the :class:`~repro.network.simulator.Simulator` and returns
one :class:`RunReport`.  One driver for every system is what keeps the
comparisons fair: each pays bytes and CPU the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.network.driver import (
    MS_PER_SECOND,
    BatchSourceDriver,
    event_timestamps,
    local_streams,
    window_segments,
)
from repro.network.metrics import LatencyStats, NetworkMetrics
from repro.network.simulator import SimulatedNode, Simulator
from repro.network.sources import StreamSensorNode
from repro.network.topology import ROOT_NODE_ID, Topology, TopologyConfig
from repro.obs.tracer import NOOP_TRACER
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event
from repro.streaming.windows import Window, WindowAssigner

# Hot-path module: every stream becomes an ``EventColumns`` once, at this
# door, and window sets come from the driver's segmenter: no loop here
# assigns windows (enforced by tests/test_hotpath_lint.py).

__all__ = ["RunReport", "SimulatedDeployment"]


@dataclass
class RunReport:
    """Everything a benchmark needs from one simulated run.

    ``outcomes`` are the root's completed windows in completion order, each
    with a ``window``, ``value``, ``global_window_size`` and
    ``result_time``, so ``report.outcomes[i].value`` means the same thing
    for every system.  A many-query Dema run has one row per query per
    window, in completion order and then member order.
    """

    outcomes: list
    network: NetworkMetrics
    latency: LatencyStats
    final_time: float
    events_ingested: int

    @property
    def values(self) -> list[float | None]:
        """Per-window results in completion order."""
        return [outcome.value for outcome in self.outcomes]

    def outcomes_for(self, query_index: int) -> list:
        """Chronological outcomes of one query (a one-query run's are all
        query 0's)."""
        return sorted(
            (
                o
                for o in self.outcomes
                if getattr(o, "query_index", 0) == query_index
            ),
            key=lambda o: o.window,
        )


class SimulatedDeployment:
    """A root/local operator pair deployed on the simulated network.

    ``root(node_id, local_ids=…, ops_per_second=…)`` and ``local(node_id,
    root_id=…, ops_per_second=…)`` build the operators; ``groups`` are the
    ``(group_id, assigner)`` pairs whose windows every local is told about
    (a nonzero ``group_id`` is passed to ``on_window_complete``).  The
    root's ``outcomes`` are the report's rows.
    """

    def __init__(
        self,
        topology_config: TopologyConfig,
        *,
        root: Callable[..., SimulatedNode],
        local: Callable[..., SimulatedNode],
        groups: Sequence[tuple[int, WindowAssigner]],
        batch_size: int = 512,
        trace=None,
        tracer=None,
    ) -> None:
        self._window_groups = tuple(groups)
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._simulator = Simulator(trace=trace, tracer=self._tracer)
        local_ids = list(range(1, topology_config.n_local_nodes + 1))
        self._topology = Topology.build(
            self._simulator,
            topology_config,
            root_factory=lambda node_id, ops: root(
                node_id, local_ids=local_ids, ops_per_second=ops
            ),
            local_factory=lambda node_id, ops: local(
                node_id, root_id=ROOT_NODE_ID, ops_per_second=ops
            ),
            stream_factory=lambda node_id, ops, local_id: StreamSensorNode(
                node_id,
                local_id=local_id,
                ops_per_second=ops,
                batch_size=batch_size,
            ),
        )
        self._driver = BatchSourceDriver(self._simulator, batch_size=batch_size)
        if self._tracer.enabled:
            for node in self._simulator.nodes.values():
                node.set_tracer(self._tracer)

    @property
    def tracer(self):
        """The run's span tracer (the shared no-op tracer by default)."""
        return self._tracer

    @property
    def simulator(self) -> Simulator:
        """The underlying discrete-event engine."""
        return self._simulator

    @property
    def topology(self) -> Topology:
        """The wired deployment."""
        return self._topology

    @property
    def root(self):
        """The root operator."""
        return self._simulator.nodes[self._topology.root_id]

    def run(
        self, streams: "Mapping[int, EventColumns | Sequence[Event]]"
    ) -> RunReport:
        """Feed per-local-node streams through the deployment and drain it.

        Args:
            streams: Event streams keyed by *local node id* (the ids in
                ``topology.local_ids``), each an ``EventColumns`` or a
                sequence of ``Event`` — converted to columns once, here;
                missing nodes receive no events.

        Returns:
            The run report with per-window outcomes and metrics.

        Raises:
            ConfigurationError: If a stream targets an unknown node,
                carries another node's events or a NaN value, or its
                timestamps regress.
        """
        windows: dict[int, set[Window]] = {}
        local_ids = self._topology.local_ids
        for local_id, events in local_streams(local_ids, streams).items():
            timestamps = event_timestamps(events, ordered=True)
            self._driver.schedule_batches(
                self._simulator.nodes[local_id],
                events,
                timestamps,
                self._segment(timestamps, windows),
            )
        return self._finish(windows, allowed_lateness_ms=0)

    def run_via_sensors(
        self,
        streams: "Mapping[int, EventColumns | Sequence[Event]]",
        *,
        allowed_lateness_ms: int | None = None,
    ) -> RunReport:
        """Run the full three-tier deployment: sensors → locals → root.

        Requires a topology built with ``streams_per_local > 0``.  Streams
        are keyed by *local node id* and distributed round-robin over that
        node's sensors; events then cross a real channel before reaching the
        local operator, paying bytes, latency and CPU at both ends.

        Args:
            streams: Per-local-node event streams in timestamp order
                (``EventColumns`` or sequences of ``Event``).
            allowed_lateness_ms: Window grace to absorb the sensor→local
                link delay.  Defaults to a bound derived from the link
                latency, so no event is dropped as late.

        Raises:
            ConfigurationError: If the topology has no sensor tier, a
                stream targets an unknown local node or carries another
                node's events or a NaN value, or a sensor's share regresses
                in time.
        """
        if not any(self._topology.stream_ids.values()):
            raise ConfigurationError(
                "run_via_sensors requires TopologyConfig.streams_per_local > 0"
            )
        streams = local_streams(self._topology.local_ids, streams)
        if allowed_lateness_ms is None:
            # The sensor may hold a reading for up to its batch-age bound,
            # plus link latency and a transfer allowance.
            first_sensor_id = next(
                sid for sids in self._topology.stream_ids.values() for sid in sids
            )
            sensor = self._simulator.nodes[first_sensor_id]
            allowed_lateness_ms = (
                sensor.max_batch_delay_ms
                + int(self._topology.config.link_latency_s * 1000 * 4)
                + 2
            )
        windows: dict[int, set[Window]] = {}
        for local_id, events in streams.items():
            sensors = self._topology.stream_ids[local_id]
            self._segment(event_timestamps(events), windows)
            for index, sensor_id in enumerate(sensors):
                self._simulator.nodes[sensor_id].load(
                    events[index :: len(sensors)]
                )
            self._driver.account_external_events(len(events))
        return self._finish(windows, allowed_lateness_ms=allowed_lateness_ms)

    def _segment(
        self, timestamps: np.ndarray, windows: dict[int, set[Window]]
    ) -> np.ndarray:
        """Add the windows ``timestamps`` touch to ``windows``, per group,
        and return where any group's window assignment changes: a batch
        split there stays within the windows of every group."""
        cuts = []
        for group_id, assigner in self._window_groups:
            starts, touched = window_segments(timestamps, assigner)
            cuts.append(starts)
            windows.setdefault(group_id, set()).update(touched)
        return np.unique(np.concatenate(cuts))

    def _outcomes(self) -> list:
        """The report's rows: the root's completed windows."""
        return self.root.outcomes

    def _finish(
        self, windows: dict[int, set[Window]], *, allowed_lateness_ms: int
    ) -> RunReport:
        ordered = {group_id: sorted(touched) for group_id, touched in windows.items()}
        for local_id in self._topology.local_ids:
            operator = self._simulator.nodes[local_id]
            for group_id, group_windows in ordered.items():
                self._driver.announce_windows(
                    operator,
                    group_windows,
                    allowed_lateness_ms=allowed_lateness_ms,
                    group_id=group_id,
                )

        final_time = self._simulator.run()
        outcomes = self._outcomes()
        latency = LatencyStats()
        for outcome in outcomes:
            latency.add(outcome.result_time - outcome.window.end / MS_PER_SECOND)
        if self._tracer.enabled:
            self._tracer.registry.counter(
                "windows_completed_total", "Windows that produced a result."
            ).inc(len(outcomes))
            self._tracer.finalize(self._simulator, final_time)
        return RunReport(
            outcomes=outcomes,
            network=NetworkMetrics.capture(self._simulator),
            latency=latency,
            final_time=final_time,
            events_ingested=self._driver.scheduled_events,
        )
