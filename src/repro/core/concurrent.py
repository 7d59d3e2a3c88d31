"""Concurrent continuous queries over one Dema deployment.

The systems Dema builds on (Scotty, Desis) are fundamentally about serving
*many* windowed queries at once.  This module brings that capability to
Dema: any number of continuous quantile queries — different quantiles,
different window lengths or steps — run over the same event streams on the
same physical nodes.

Sharing structure.  Queries are partitioned into **groups** by their window
shape and slice factor.  Within a group the expensive local work happens
once: one sorted window, one slicing pass, one synopsis batch on the wire.
The root answers every quantile of the group with one
:func:`~repro.core.identification.identify_multi` pass over those synopses,
fetching the *union* of the candidate slices — the shared cut
:func:`repro.core.engine.dema_quantiles` and the live query root use.
Groups with different window shapes share only the physical substrate —
ingestion CPU, channels and their contention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, IdentificationError, SliceError
from repro.network.driver import (
    MS_PER_SECOND,
    BatchSourceDriver,
    event_timestamps,
    window_segments,
)
from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    Message,
    SynopsisMessage,
)
from repro.network.metrics import LatencyStats, NetworkMetrics
from repro.network.simulator import (
    INGEST_OPS,
    SimulatedNode,
    Simulator,
    merge_cost,
    receive_ops,
)
from repro.network.topology import Topology, TopologyConfig
from repro.obs.tracer import NOOP_TRACER
from repro.streaming.columns import EventColumns, as_event_columns
from repro.streaming.events import Event
from repro.streaming.windows import Window
from repro.core.calculation import calculate_quantile
from repro.core.identification import MultiIdentificationResult, identify_multi
from repro.core.local_node import _SERVE_OPS_PER_EVENT, _SLICE_OPS_PER_EVENT
from repro.core.query import QuantileQuery
from repro.core.root_node import _IDENTIFY_OPS_PER_SYNOPSIS
from repro.core.slicing import SlicedWindow, slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow
from repro.core.synopsis import SliceSynopsis

import math

# Hot-path module: every group's windows take ``EventColumns`` batches — no
# loop here runs per ``Event`` or assigns windows (enforced by
# tests/test_hotpath_lint.py).

__all__ = [
    "QueryGroup",
    "group_queries",
    "ConcurrentOutcome",
    "ConcurrentDemaLocalNode",
    "ConcurrentDemaRootNode",
    "ConcurrentDemaEngine",
]


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


@dataclass(frozen=True, slots=True)
class ConcurrentOutcome:
    """One query's result for one window in a concurrent deployment."""

    query_index: int
    q: float
    window: Window
    value: float | None
    global_window_size: int
    result_time: float


@dataclass
class _GroupLocalState:
    """Per-group window state on a local node."""

    open: dict[Window, SortedLocalWindow] = field(default_factory=dict)
    pending: dict[Window, SlicedWindow] = field(default_factory=dict)
    completed: set[Window] = field(default_factory=set)


class ConcurrentDemaLocalNode(SimulatedNode):
    """Edge operator serving every query group from shared ingestion."""

    def __init__(
        self,
        node_id: int,
        *,
        root_id: int,
        groups: Sequence[QueryGroup],
        ops_per_second: float = 1e8,
    ) -> None:
        super().__init__(node_id, ops_per_second=ops_per_second)
        self._root_id = root_id
        self._groups = {group.group_id: group for group in groups}
        self._state = {
            group.group_id: _GroupLocalState() for group in groups
        }
        self._events_ingested = 0

    @property
    def events_ingested(self) -> int:
        """Raw events accepted so far (once, regardless of group count)."""
        return self._events_ingested

    def ingest(self, events: EventColumns, now: float) -> float:
        """Route the batch into every group's open windows.

        Ingestion (parse + route) is paid once per event; the sorted insert
        is paid once per *group* per event because each group maintains its
        own sorted windows: ``log2(window size after the insert)`` per event
        per (group, window), summed event-major over the rows each window
        received (docs/cost-model.md: the order of the float sum is part of
        the simulated clock).
        """
        inserts: list[tuple[int, int]] = []  # (size before, rows added)
        for group_id, group in self._groups.items():
            length, step, _ = group.shape
            state = self._state[group_id]
            for start, rows in events.by_window(length, step):
                window = Window(start, start + length)
                if window in state.completed:
                    continue
                sorted_window = state.open.setdefault(
                    window, SortedLocalWindow()
                )
                inserts.append((len(sorted_window), len(rows)))
                sorted_window.add_all(rows)
        insert_ops = 0.0
        for row in range(1, len(events) + 1):
            for before, added in inserts:
                if row <= added:
                    insert_ops += math.log2(max(before + row, 2))
        self._events_ingested += len(events)
        return self.work(INGEST_OPS * len(events) + insert_ops, now)

    def on_group_window_complete(
        self, group_id: int, window: Window, now: float
    ) -> None:
        """Seal one group's window; slice once; ship one synopsis batch."""
        state = self._state[group_id]
        if window in state.completed:
            return
        state.completed.add(window)
        sorted_window = state.open.pop(window, SortedLocalWindow())
        events = sorted_window.seal()
        finish = self.work(_SLICE_OPS_PER_EVENT * len(events), now)
        gamma = self._groups[group_id].prototype.gamma
        sliced = slice_sorted_events(events, gamma, self.node_id)
        state.pending[window] = sliced
        message = SynopsisMessage(
            sender=self.node_id,
            window=window,
            group_id=group_id,
            synopses=sliced.synopses,
            local_window_size=sliced.window_size,
        )
        self.send(message, self._root_id, finish)

    def on_message(self, message: Message, now: float) -> None:
        """Serve candidate requests for any group."""
        if not isinstance(message, CandidateRequestMessage):
            raise SliceError(
                f"concurrent local node cannot handle "
                f"{type(message).__name__}"
            )
        state = self._state[message.group_id]
        sliced = state.pending.pop(message.window, None)
        if sliced is None:
            raise SliceError(
                f"node {self.node_id} has no sealed window {message.window} "
                f"for group {message.group_id}"
            )
        send_at = self.work(receive_ops(message.payload_bytes), now)
        for slice_index in message.slice_indices:
            run = sliced.run_for(slice_index)
            send_at = self.work(_SERVE_OPS_PER_EVENT * len(run), send_at)
            reply = CandidateEventsMessage(
                sender=self.node_id,
                window=message.window,
                group_id=message.group_id,
                slice_index=slice_index,
                events=run,
            )
            self.send(reply, self._root_id, send_at)


@dataclass
class _GroupWindowState:
    """Root-side bookkeeping for one (group, window) pair."""

    synopses: dict[int, Sequence[SliceSynopsis]] = field(default_factory=dict)
    sizes: dict[int, int] = field(default_factory=dict)
    plan: MultiIdentificationResult | None = None
    runs: dict[tuple[int, int], EventColumns] = field(default_factory=dict)

    @property
    def expected_runs(self) -> int:
        """Candidate runs the plan requested, across every local."""
        return sum(len(indices) for indices in self.plan.requests.values())


class ConcurrentDemaRootNode(SimulatedNode):
    """Root operator answering every group's quantiles from shared synopses."""

    def __init__(
        self,
        node_id: int,
        *,
        local_ids: Sequence[int],
        groups: Sequence[QueryGroup],
        ops_per_second: float = 2e8,
    ) -> None:
        super().__init__(node_id, ops_per_second=ops_per_second)
        if not local_ids:
            raise IdentificationError("root needs at least one local node")
        self._local_ids = tuple(local_ids)
        self._groups = {group.group_id: group for group in groups}
        self._states: dict[tuple[int, Window], _GroupWindowState] = {}
        self._outcomes: list[ConcurrentOutcome] = []

    @property
    def outcomes(self) -> list[ConcurrentOutcome]:
        """Per-query, per-window results in completion order."""
        return list(self._outcomes)

    @property
    def open_windows(self) -> int:
        """(group, window) pairs still in flight."""
        return len(self._states)

    def on_message(self, message: Message, now: float) -> None:
        """Dispatch synopsis batches and candidate runs by group."""
        if isinstance(message, SynopsisMessage):
            self._on_synopses(message, now)
        elif isinstance(message, CandidateEventsMessage):
            self._on_candidates(message, now)
        else:
            raise IdentificationError(
                f"concurrent root cannot handle {type(message).__name__}"
            )

    def _on_synopses(self, message: SynopsisMessage, now: float) -> None:
        now = self.work(receive_ops(message.payload_bytes), now)
        key = (message.group_id, message.window)
        state = self._states.setdefault(key, _GroupWindowState())
        if message.sender in state.synopses:
            raise IdentificationError(
                f"duplicate synopsis batch from node {message.sender} for "
                f"group {message.group_id}, window {message.window}"
            )
        state.synopses[message.sender] = message.synopses
        state.sizes[message.sender] = message.local_window_size
        if len(state.synopses) == len(self._local_ids):
            self._identify(message.group_id, message.window, state, now)

    def _identify(
        self,
        group_id: int,
        window: Window,
        state: _GroupWindowState,
        now: float,
    ) -> None:
        group = self._groups[group_id]
        total = sum(state.sizes.values())
        if total == 0:
            self._states.pop((group_id, window))
            for query_index, q in group.quantiles:
                self._outcomes.append(
                    ConcurrentOutcome(
                        query_index=query_index,
                        q=q,
                        window=window,
                        value=None,
                        global_window_size=0,
                        result_time=now,
                    )
                )
            return

        state.plan = identify_multi(
            state.synopses, state.sizes, [q for _, q in group.quantiles]
        )
        n_synopses = sum(len(batch) for batch in state.synopses.values())
        ops = _IDENTIFY_OPS_PER_SYNOPSIS * n_synopses * max(
            1.0, math.log2(max(n_synopses, 2))
        ) * len(group.quantiles)
        finish = self.work(ops, now)
        if self._tracer.enabled:
            self._tracer.record(
                "identification",
                self.node_id,
                now,
                finish,
                window=window,
                group=group_id,
                synopses=n_synopses,
                quantiles=len(group.quantiles),
            )
        for local_id in self._local_ids:
            request = CandidateRequestMessage(
                sender=self.node_id,
                window=window,
                group_id=group_id,
                slice_indices=state.plan.requests.get(local_id, ()),
            )
            self.send(request, local_id, finish)

    def _on_candidates(
        self, message: CandidateEventsMessage, now: float
    ) -> None:
        now = self.work(receive_ops(message.payload_bytes), now)
        key = (message.group_id, message.window)
        state = self._states.get(key)
        if state is None or state.plan is None:
            raise IdentificationError(
                f"unexpected candidate events for group {message.group_id}, "
                f"window {message.window}"
            )
        run_key = (message.sender, message.slice_index)
        if run_key in state.runs:
            raise IdentificationError(
                f"duplicate candidate run {run_key} for window {message.window}"
            )
        state.runs[run_key] = message.events
        if len(state.runs) == state.expected_runs:
            self._calculate(message.group_id, message.window, state, now)

    def _calculate(
        self,
        group_id: int,
        window: Window,
        state: _GroupWindowState,
        now: float,
    ) -> None:
        group = self._groups[group_id]
        total_fetched = sum(len(run) for run in state.runs.values())
        finish = self.work(
            merge_cost(total_fetched, max(len(state.runs), 1)), now
        )
        if self._tracer.enabled:
            self._tracer.record(
                "calculation",
                self.node_id,
                now,
                finish,
                window=window,
                group=group_id,
                candidate_events=total_fetched,
                runs=len(state.runs),
            )
        self._states.pop((group_id, window))
        for query_index, q in group.quantiles:
            cut = state.plan.cuts[q]
            runs = [
                state.runs[synopsis.slice_id] for synopsis in cut.candidates
            ]
            answer = calculate_quantile(cut, runs)
            self._outcomes.append(
                ConcurrentOutcome(
                    query_index=query_index,
                    q=q,
                    window=window,
                    value=answer.value,
                    global_window_size=state.plan.global_window_size,
                    result_time=finish,
                )
            )


@dataclass
class ConcurrentRunReport:
    """Results of one concurrent-deployment run."""

    outcomes: list[ConcurrentOutcome]
    network: NetworkMetrics
    latency: LatencyStats
    final_time: float
    events_ingested: int

    def outcomes_for(self, query_index: int) -> list[ConcurrentOutcome]:
        """Chronological outcomes of one query."""
        return sorted(
            (o for o in self.outcomes if o.query_index == query_index),
            key=lambda o: o.window,
        )


class ConcurrentDemaEngine:
    """A multi-query Dema deployment on the simulated network."""

    def __init__(
        self,
        queries: Sequence[QuantileQuery],
        topology_config: TopologyConfig,
        *,
        batch_size: int = 512,
        tracer=None,
    ) -> None:
        self._queries = list(queries)
        self._groups = group_queries(queries)
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._simulator = Simulator(tracer=self._tracer)
        self._root: ConcurrentDemaRootNode | None = None
        local_ids = list(range(1, topology_config.n_local_nodes + 1))

        def root_factory(node_id: int, ops: float) -> ConcurrentDemaRootNode:
            self._root = ConcurrentDemaRootNode(
                node_id,
                local_ids=local_ids,
                groups=self._groups,
                ops_per_second=ops,
            )
            return self._root

        def local_factory(node_id: int, ops: float) -> ConcurrentDemaLocalNode:
            return ConcurrentDemaLocalNode(
                node_id,
                root_id=0,
                groups=self._groups,
                ops_per_second=ops,
            )

        self._topology = Topology.build(
            self._simulator,
            topology_config,
            root_factory=root_factory,
            local_factory=local_factory,
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
    def topology(self) -> Topology:
        """The wired deployment."""
        return self._topology

    @property
    def groups(self) -> list[QueryGroup]:
        """The sharing groups the queries were partitioned into."""
        return list(self._groups)

    @property
    def root(self) -> ConcurrentDemaRootNode:
        """The root operator."""
        assert self._root is not None
        return self._root

    def run(
        self, streams: "Mapping[int, EventColumns | Sequence[Event]]"
    ) -> ConcurrentRunReport:
        """Feed per-local-node streams (``EventColumns`` or sequences of
        ``Event``, converted to columns here) through every query at once."""
        unknown = set(streams) - set(self._topology.local_ids)
        if unknown:
            raise ConfigurationError(
                f"streams reference unknown local nodes {sorted(unknown)}"
            )
        assigners = {
            group.group_id: group.prototype.assigner() for group in self._groups
        }
        group_windows: dict[int, set[Window]] = {
            group_id: set() for group_id in assigners
        }
        for local_id in self._topology.local_ids:
            events = as_event_columns(streams.get(local_id, ()))
            timestamps = event_timestamps(events, ordered=True)
            # A batch splits wherever any group's window assignment
            # changes, so arrivals stay within their windows.
            cuts = []
            for group_id, assigner in assigners.items():
                starts, windows = window_segments(timestamps, assigner)
                cuts.append(starts)
                group_windows[group_id].update(windows)
            self._driver.schedule_batches(
                self._simulator.nodes[local_id],
                events,
                timestamps,
                np.unique(np.concatenate(cuts)),
            )
        for local_id in self._topology.local_ids:
            operator = self._simulator.nodes[local_id]
            for group_id, windows in group_windows.items():
                for window in sorted(windows):
                    completion = window.end / MS_PER_SECOND + 1e-6
                    self._simulator.schedule(
                        completion,
                        lambda now, op=operator, g=group_id, w=window: (
                            op.on_group_window_complete(g, w, now)
                        ),
                    )

        final_time = self._simulator.run()
        outcomes = self.root.outcomes
        latency = LatencyStats()
        for outcome in outcomes:
            latency.add(
                outcome.result_time - outcome.window.end / MS_PER_SECOND
            )
        if self._tracer.enabled:
            self._tracer.registry.counter(
                "windows_completed_total", "Windows that produced a result."
            ).inc(len(outcomes))
            self._tracer.finalize(self._simulator, final_time)
        return ConcurrentRunReport(
            outcomes=outcomes,
            network=NetworkMetrics.capture(self._simulator),
            latency=latency,
            final_time=final_time,
            events_ingested=self._driver.scheduled_events,
        )
