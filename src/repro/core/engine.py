"""Dema entry points: pure algorithm and full simulated deployment.

:func:`dema_quantiles` runs identification + calculation in-process over
already-collected local windows — no simulator, no messages — for several
quantiles with one :func:`~repro.core.identification.identify_multi` pass;
:func:`dema_quantile` is its one-``q`` case.  The algorithmic heart of the
paper in one call, used by tests, examples and the accuracy experiment.

:class:`DemaEngine` deploys Dema operators on the simulated three-layer
network, drives per-node workloads through it, and reports results together
with network and latency metrics.  It serves one query or many: several
queries share one deployment in groups (:func:`~repro.core.query.group_queries`),
each group's quantiles answered from one synopsis batch per node.  The
benchmark harness builds every Dema datapoint through this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.network.driver import (
    MS_PER_SECOND,
    BatchSourceDriver,
    event_timestamps,
    local_arrivals,
    local_streams,
    window_segments,
)
from repro.network.metrics import LatencyStats, NetworkMetrics
from repro.network.simulator import Simulator
from repro.obs.tracer import NOOP_TRACER
from repro.network.topology import Topology, TopologyConfig
from repro.streaming.columns import EventColumns, as_event_columns
from repro.streaming.events import Event
from repro.streaming.windows import Window

# Hot-path module: every stream becomes an ``EventColumns`` once, at this
# door, and window sets come from the driver's segmenter: no loop here
# assigns windows (enforced by tests/test_hotpath_lint.py).
from repro.core.calculation import calculate_quantile
from repro.core.identification import MultiIdentificationResult, identify_multi
from repro.core.local_node import DemaLocalNode
from repro.core.query import QuantileQuery, QueryGroup, served_groups
from repro.core.root_node import DemaRootNode, WindowOutcome
from repro.core.slicing import slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow

__all__ = ["DemaResult", "MultiQuantileResult", "ConcurrentOutcome",
           "DemaRunReport", "dema_quantile", "dema_quantiles", "DemaEngine"]


@dataclass(frozen=True, slots=True)
class DemaResult:
    """Outcome of one in-memory Dema computation.

    Attributes:
        value: The exact quantile value.
        rank: Global rank ``Pos(q)`` that was located.
        global_window_size: Total events across the local windows.
        candidate_events: Events a deployment would transfer in the
            calculation step.
        candidate_slices: Number of candidate slices selected.
        synopses: Number of synopses a deployment would transfer in the
            identification step.
        transfer_events: Synopsis-equivalent plus candidate events — the
            paper's network cost model evaluated on this window.
    """

    value: float
    rank: int
    global_window_size: int
    candidate_events: int
    candidate_slices: int
    synopses: int

    @property
    def transfer_events(self) -> int:
        """Events-on-the-wire cost: two per synopsis plus candidates."""
        return 2 * self.synopses + self.candidate_events


@dataclass(frozen=True, slots=True)
class MultiQuantileResult:
    """Outcome of one multi-quantile Dema computation.

    Attributes:
        values: Exact quantile values keyed by the requested ``q``.
        ranks: The global rank located for each ``q``.
        global_window_size: Total events across the local windows.
        candidate_events: Events fetched for the union of all candidate
            slices (each slice counted once).
        synopses: Synopses shipped in the identification step.
    """

    values: Mapping[float, float]
    ranks: Mapping[float, int]
    global_window_size: int
    candidate_events: int
    synopses: int

    @property
    def transfer_events(self) -> int:
        """Events-on-the-wire cost of the whole multi-quantile query."""
        return 2 * self.synopses + self.candidate_events


def _answer(
    local_windows: "Mapping[int, EventColumns | Sequence[Event]]",
    qs: Sequence[float],
    gamma: int,
) -> tuple[MultiIdentificationResult, dict[float, float], int]:
    """Sort and slice every local window, identify every ``q`` in one
    shared pass, fetch the union of the candidate slices once, and select
    each answer; returns the plan, the values and the synopsis count."""
    if not local_windows:
        raise ConfigurationError("need at least one local window")
    if not qs:
        raise ConfigurationError("need at least one quantile")
    sliced = {
        node_id: slice_sorted_events(
            SortedLocalWindow(as_event_columns(events)).seal(), gamma, node_id
        )
        for node_id, events in local_windows.items()
    }
    plan = identify_multi(
        {n: s.synopses for n, s in sliced.items()},
        {n: s.window_size for n, s in sliced.items()},
        qs,
    )
    values = {
        q: calculate_quantile(cut, [
            sliced[s.node_id].run_for(s.slice_index) for s in cut.candidates
        ]).value
        for q, cut in plan.cuts.items()
    }
    return plan, values, sum(len(s.synopses) for s in sliced.values())


def dema_quantiles(
    local_windows: "Mapping[int, EventColumns | Sequence[Event]]",
    qs: Sequence[float],
    gamma: int,
) -> MultiQuantileResult:
    """Compute several exact quantiles with one shared identification pass.

    Each entry of ``local_windows`` plays the role of one local node's
    window: it is sorted locally, sliced with ``gamma`` and reduced to
    synopses.  Synopses are shipped once for every quantile, and the
    calculation step fetches the **union** of every rank's candidate
    slices, so a slice needed by two quantiles crosses the network once.

    Args:
        local_windows: Per-node event collections (any order within a
            node), each an ``EventColumns`` or a sequence of ``Event``.
        qs: The quantiles, each in ``(0, 1]``; duplicates are collapsed.
        gamma: The slice factor, ≥ 2.

    Returns:
        Exact values for every requested quantile plus shared transfer
        accounting.

    Raises:
        ConfigurationError: If no nodes or no quantiles are given.
        IdentificationError: If all windows are empty.
    """
    plan, values, n_synopses = _answer(local_windows, qs, gamma)
    return MultiQuantileResult(
        values=values,
        ranks={q: cut.rank for q, cut in plan.cuts.items()},
        global_window_size=plan.global_window_size,
        candidate_events=plan.candidate_events,
        synopses=n_synopses,
    )


def dema_quantile(
    local_windows: "Mapping[int, EventColumns | Sequence[Event]]",
    q: float,
    gamma: int,
) -> DemaResult:
    """Compute an exact quantile the Dema way, in memory, with
    transfer-cost accounting: :func:`dema_quantiles` for the single
    quantile ``q``, same arguments and errors."""
    plan, values, n_synopses = _answer(local_windows, (q,), gamma)
    cut = plan.cuts[q]
    return DemaResult(
        value=values[q],
        rank=cut.rank,
        global_window_size=plan.global_window_size,
        candidate_events=cut.candidate_events,
        candidate_slices=len(cut.candidates),
        synopses=n_synopses,
    )


@dataclass(frozen=True, slots=True)
class ConcurrentOutcome:
    """One query's result for one window of a many-query run."""

    query_index: int
    q: float
    window: Window
    value: float | None
    global_window_size: int
    result_time: float


@dataclass
class DemaRunReport:
    """Everything a benchmark needs from one simulated Dema run.

    ``outcomes`` is the root's per-window list for one query; for several
    it is one :class:`ConcurrentOutcome` row per query per window, in
    completion order and then member order.
    """

    outcomes: "list[WindowOutcome] | list[ConcurrentOutcome]"
    network: NetworkMetrics
    latency: LatencyStats
    final_time: float
    events_ingested: int

    @property
    def values(self) -> list[float | None]:
        """Per-window quantile values in completion order."""
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


class DemaEngine:
    """A Dema deployment on the simulated three-layer network, serving one
    query or a sequence of them."""

    def __init__(
        self,
        queries: "QuantileQuery | Sequence[QuantileQuery]",
        topology_config: TopologyConfig,
        *,
        batch_size: int = 512,
        reliability=None,
        degrade_after_retries: bool = False,
        trace=None,
        tracer=None,
    ) -> None:
        if isinstance(queries, QuantileQuery):
            queries = (queries,)
        self._queries = tuple(queries)
        self._groups = served_groups(self._queries)
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._simulator = Simulator(trace=trace, tracer=self._tracer)
        self._root: DemaRootNode | None = None

        local_ids = list(
            range(1, topology_config.n_local_nodes + 1)
        )

        def root_factory(node_id: int, ops: float) -> DemaRootNode:
            self._root = DemaRootNode(
                node_id,
                local_ids=local_ids,
                queries=self._queries,
                ops_per_second=ops,
                reliability=reliability,
                degrade_after_retries=degrade_after_retries,
            )
            return self._root

        def local_factory(node_id: int, ops: float) -> DemaLocalNode:
            return DemaLocalNode(
                node_id,
                root_id=0,
                queries=self._queries,
                ops_per_second=ops,
                reliability=reliability,
            )

        def stream_factory(node_id: int, ops: float, local_id: int):
            from repro.network.sources import StreamSensorNode

            return StreamSensorNode(
                node_id,
                local_id=local_id,
                ops_per_second=ops,
                batch_size=batch_size,
            )

        self._topology = Topology.build(
            self._simulator,
            topology_config,
            root_factory=root_factory,
            local_factory=local_factory,
            stream_factory=stream_factory,
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
    def groups(self) -> list[QueryGroup]:
        """The sharing groups the queries were partitioned into."""
        return list(self._groups)

    @property
    def root(self) -> DemaRootNode:
        """The root operator."""
        assert self._root is not None
        return self._root

    def run(
        self, streams: "Mapping[int, EventColumns | Sequence[Event]]"
    ) -> DemaRunReport:
        """Feed per-local-node streams through the deployment and drain it.

        Args:
            streams: Event streams keyed by *local node id* (the ids in
                ``topology.local_ids``), each an ``EventColumns`` or a
                sequence of ``Event`` — converted to columns once, here;
                missing nodes receive no events.

        Returns:
            The run report with per-window outcomes and metrics.

        Raises:
            ConfigurationError: If a stream targets an unknown node or
                carries another node's events.
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

    def run_unordered(
        self,
        arrivals: Mapping[int, Sequence[tuple[Event, int]]],
        *,
        allowed_lateness_ms: int = 0,
    ) -> DemaRunReport:
        """Like :meth:`run`, but events arrive with per-event delays.

        Args:
            arrivals: ``(event, arrival_ms)`` pairs keyed by local node id
                (see :meth:`SensorStreamGenerator.generate_with_arrivals`).
            allowed_lateness_ms: How long past its event-time end each
                window stays open.  Arrivals later than this are dropped by
                the local nodes and counted in their ``late_events``.
        """
        windows: dict[int, set[Window]] = {}
        split = local_arrivals(self._topology.local_ids, arrivals)
        for local_id, (events, arrival_ms) in split.items():
            self._segment(event_timestamps(events), windows)
            self._driver.feed_arrivals(
                self._simulator.nodes[local_id], events, arrival_ms
            )
        return self._finish(windows, allowed_lateness_ms=allowed_lateness_ms)

    def run_via_sensors(
        self,
        streams: "Mapping[int, EventColumns | Sequence[Event]]",
        *,
        allowed_lateness_ms: int | None = None,
    ) -> DemaRunReport:
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
                node's events, or a sensor's share regresses in time.
        """
        if not any(self._topology.stream_ids.values()):
            raise ConfigurationError(
                "run_via_sensors requires TopologyConfig.streams_per_local > 0"
            )
        streams = local_streams(self._topology.local_ids, streams)
        if allowed_lateness_ms is None:
            # The sensor may hold a reading for up to its batch-age bound,
            # plus link latency and a transfer allowance.
            from repro.network.sources import StreamSensorNode

            first_sensor_id = next(
                sid for sids in self._topology.stream_ids.values() for sid in sids
            )
            sensor = self._simulator.nodes[first_sensor_id]
            assert isinstance(sensor, StreamSensorNode)
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
        for group in self._groups:
            starts, touched = window_segments(
                timestamps, group.prototype.assigner()
            )
            cuts.append(starts)
            windows.setdefault(group.group_id, set()).update(touched)
        return np.unique(np.concatenate(cuts))

    def _finish(
        self, windows: dict[int, set[Window]], *, allowed_lateness_ms: int
    ) -> DemaRunReport:
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
        answered = self.root.outcomes
        outcomes = answered
        if len(self._queries) > 1:
            outcomes = [
                ConcurrentOutcome(
                    query_index=index,
                    q=query.q,
                    window=outcome.window,
                    value=value,
                    global_window_size=outcome.global_window_size,
                    result_time=outcome.result_time,
                )
                for outcome in answered
                for (index, query), value in zip(
                    self._groups[outcome.group_id].queries, outcome.values
                )
            ]
        latency = LatencyStats()
        for outcome in outcomes:
            window_end_s = outcome.window.end / MS_PER_SECOND
            latency.add(outcome.result_time - window_end_s)
        if self._tracer.enabled:
            registry = self._tracer.registry
            registry.counter(
                "windows_completed_total", "Windows that produced a result."
            ).inc(len(outcomes))
            for outcome in answered:
                registry.counter(
                    "candidate_events_total",
                    "Candidate events fetched for calculation.",
                ).inc(outcome.candidate_events)
            self._tracer.finalize(self._simulator, final_time)
        return DemaRunReport(
            outcomes=outcomes,
            network=NetworkMetrics.capture(self._simulator),
            latency=latency,
            final_time=final_time,
            events_ingested=self._driver.scheduled_events,
        )
