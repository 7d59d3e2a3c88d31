"""Cluster driver: any live Dema topology as one cluster object.

:func:`run_cluster` launches the deployment a
:class:`~repro.mesh.config.ClusterConfig` describes — ``n_shards`` root
:class:`~repro.runtime.servers.RootServer` hosts behind the deterministic
window→shard routing function, an optional tier of fan-in-F
:class:`~repro.mesh.relay.RelayServer` hosts, ``n_locals``
:class:`~repro.runtime.servers.LocalServer` hosts and
``streams_per_local`` :class:`~repro.runtime.servers.StreamServer` replay
tasks per local — over either transport, replays the given per-local
workload, waits for every tumbling window of the grid to produce an
outcome, and tears everything down gracefully.  The classic flat cluster
(one root, no relays) is the default shape, not a separate code path:
``run_live``/``run_mesh`` and ``LiveClusterConfig``/``MeshConfig`` are
pairs of names for one function and one class.

A run is one :class:`Cluster`: built (no I/O), then wired, driven,
closed and reported on.

Everything else is an option on the one config or an argument here: a
fault plan fired on the wall clock, a membership schedule applied at grid
boundaries (replays pause at each boundary, the coordinator applies the
joins/leaves on every shard, and only then do post-boundary events flow —
so a join serves its first full window correctly and a leave can never
hang a window, by construction rather than by timeout), shard failover,
the telemetry plane, a query-plane driver, and a ``disturb`` test hook.

The quantile values a run produces are **bit-identical** to
:class:`~repro.core.engine.DemaEngine` on the same workload (with a fixed
γ and membership truncations applied): watermark-driven sealing
guarantees every event lands in its window, shards run the unmodified
operators on disjoint window subsets, and relays combine frames without
touching their contents.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Mapping, Sequence

import numpy as np

from repro.core.local_node import DemaLocalNode
from repro.core.root_node import DemaRootNode, WindowOutcome
from repro.errors import ConfigurationError, TransportError
from repro.faults.chaos import ChaosController, ChaosStream
from repro.faults.plan import FaultEvent, ToleranceConfig
from repro.mesh.config import ClusterConfig
from repro.mesh.failover import FailoverController
from repro.mesh.relay import RelayServer
from repro.mesh.routing import relay_node_id, shard_node_id, shard_of
from repro.network.metrics import LatencyStats
from repro.network.topology import relay_groups
from repro.obs.fleet import FleetCollector, TelemetryUplink
from repro.obs.live.http import TelemetryServer
from repro.obs.live.recorder import FlightRecorder
from repro.obs.live.sampler import RuntimeSampler
from repro.obs.tracer import NOOP_TRACER, RecordingTracer, Tracer
from repro.runtime.servers import (
    LIVE_OPS_PER_SECOND,
    LiveFabric,
    LocalServer,
    RootServer,
    StreamServer,
)
from repro.runtime.transport import (
    FailureLatch,
    MemoryNetwork,
    MessageStream,
    TcpNetwork,
)
from repro.streaming.columns import (
    EMPTY_EVENTS,
    EventColumns,
    as_event_columns,
    check_streams,
)
from repro.streaming.events import Event
from repro.streaming.windows import CONTROL_WINDOW, Window

__all__ = [
    "ClusterConfig",
    "ClusterReport",
    "LiveClusterConfig",
    "MeshChaosContext",
    "QueryDriverContext",
    "membership_grid",
    "run_cluster",
    "run_live",
]

#: The flat cluster's name for the one config.
LiveClusterConfig = ClusterConfig

#: Stream-server ids start here: above every local, shard and relay id.
_STREAM_ID_BASE = 1 << 22

#: Coordinator poll interval while waiting on shard membership epochs.
_EPOCH_POLL_S = 0.002


@dataclass(frozen=True, slots=True)
class QueryDriverContext:
    """What a query-plane driver coroutine gets handed by the cluster.

    The driver runs alongside the cluster: it dials the root with the
    ``driver`` role (:meth:`dial`), registers queries before or during
    the replay, and decides when the event streams start flowing
    (:meth:`start_replay` — replays are gated until then so queries
    registered up front cover the whole grid).  Whatever dict the driver
    returns lands in :attr:`ClusterReport.queries`.
    """

    grid_start: int
    grid_end: int
    config: ClusterConfig
    #: Dial the root as a driver client: ``await ctx.dial(client_id)``.
    dial: Callable[[int], Awaitable[MessageStream]]
    #: Open the replay gate; idempotent, called automatically when the
    #: driver coroutine finishes (so a failed driver cannot hang the run).
    start_replay: Callable[[], None]
    #: Total results the root plane has produced so far (all clients).
    #: Durable-session scenarios poll this while *disconnected* to know
    #: when the retained log holds the whole run.
    plane_results: Callable[[], int] = lambda: 0


@dataclass
class ClusterReport:
    """Everything a caller needs from one live run."""

    outcomes: list[WindowOutcome]
    windows: int
    events_sent: int
    wall_seconds: float
    #: Watermark seal (last local) → root outcome, one sample per
    #: answered window.
    seal_to_result: LatencyStats
    #: Bytes/messages on the wire, summed over every dialed stream (both
    #: directions), keyed by layer: ``stream_local``, ``local_root``
    #: (locals dial the roots), ``local_relay`` + ``relay_root`` (relayed).
    bytes_by_layer: dict[str, int]
    messages_by_layer: dict[str, int]
    transport: str
    n_shards: int = 1
    relay_fanin: int = 0
    #: Bytes that actually entered a root (the toward-root direction of
    #: the ``local_root`` and ``relay_root`` links) — the quantity the
    #: relay tier exists to shrink.
    root_ingress_bytes: int = 0
    #: Fault-tolerance accounting (all zero on an undisturbed run).
    reconnects: int = 0
    heartbeat_misses: int = 0
    degraded_windows: int = 0
    locals_declared_dead: int = 0
    dropped_sends: int = 0
    windows_lost: int = 0
    #: Canonical descriptions of the fault events actually applied.
    fault_events: list[str] = field(default_factory=list)
    #: Final membership epoch per shard index (all equal on a clean run).
    membership_epochs: dict[int, int] = field(default_factory=dict)
    #: Final member list as shard 0 sees it.
    members: tuple[int, ...] = ()
    relay_frames_combined: int = 0
    relay_sections_combined: int = 0
    #: Shard takeovers completed by the failover controller.
    shard_failovers: int = 0
    #: Windows re-homed onto successor shards.
    windows_adopted: int = 0
    #: Retained frames relays re-sent to successors on failover.
    relay_frames_replayed: int = 0
    #: Frames from epoch-fenced (dead) shards dropped by hosts.
    fenced_frames: int = 0
    #: Telemetry-plane facts (empty when the plane was off): the bound
    #: HTTP port, sampler tick count, traced live spans, recorder path
    #: and the final ``/fleet`` document.
    telemetry: dict = field(default_factory=dict)
    #: Whatever dict the query-plane driver returned (empty without one).
    queries: dict = field(default_factory=dict)

    @property
    def values(self) -> list[float | None]:
        """Per-window quantile values in window order."""
        return [outcome.value for outcome in self.outcomes]

    @property
    def total_bytes(self) -> int:
        """Bytes across all layers and directions."""
        return sum(self.bytes_by_layer.values())

    @property
    def events_per_second(self) -> float:
        """Replay throughput on the wall clock."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_sent / self.wall_seconds

    def outcome_by_window(self) -> "dict[Window, WindowOutcome]":
        return {outcome.window: outcome for outcome in self.outcomes}


def membership_grid(
    config: ClusterConfig, streams: Mapping[int, EventColumns]
) -> "tuple[int, int, dict[int, tuple[int, int]]]":
    """The tumbling grid ``[start, end)`` covering every event, and each
    local's membership range ``[lo, hi)`` on it.

    The one place a run's grid and ranges are computed: the cluster's
    build step and :func:`repro.mesh.cluster.served_windows` both call
    it, so the oracle cuts the streams exactly as the replays do.  Every
    refusal of the streams and the membership schedule is raised here.
    """
    length = config.query.window_length_ms
    shares = [events for events in streams.values() if len(events)]
    if not shares:
        raise ConfigurationError("a run needs at least one event")
    start = min(events.min_timestamp() for events in shares) // length * length
    end = (max(events.max_timestamp() for events in shares) // length + 1) * length
    joins = {e.local_id: e.at_ms for e in config.membership if e.kind == "join"}
    leaves = {e.local_id: e.at_ms for e in config.membership if e.kind == "leave"}
    ranges = {
        local_id: (start, leaves.get(local_id, end))
        for local_id in range(1, config.n_locals + 1)
    }
    for local_id, at_ms in joins.items():
        ranges[local_id] = (at_ms, leaves.get(local_id, end))
    for local_id, at_ms in leaves.items():
        if local_id not in ranges:
            raise ConfigurationError(f"local {local_id} leaves but never joins")
        if at_ms <= ranges[local_id][0]:
            raise ConfigurationError(
                f"local {local_id} leaves at {at_ms} before it is a "
                f"member (from {ranges[local_id][0]})"
            )
    check_streams(ranges, streams)
    for event in config.membership:
        if not start < event.at_ms < end:
            raise ConfigurationError(
                f"membership boundary {event.at_ms} outside the grid "
                f"({start}, {end})"
            )
        if (event.at_ms - start) % length != 0:
            raise ConfigurationError(
                f"membership boundary {event.at_ms} is not on the "
                f"{length} ms tumbling grid"
            )
    if config.membership:
        # A replay finds each boundary's cut by binary search; on an
        # out-of-order stream that would ship post-boundary events
        # before the boundary's gate opens.
        for local_id, share in streams.items():
            if not share.timestamps_sorted():
                raise ConfigurationError(
                    f"local {local_id}'s stream is not in timestamp "
                    "order; membership boundaries need ordered streams"
                )
    return start, end, ranges


def _answers(shards: "Sequence[RootServer]") -> dict:
    """Every answered window once: ``window → (outcome, shard)``.

    After a failover the dead shard's pre-crash answers and the
    successor's adopted share partition the windows, but a race on the
    very takeover boundary can answer one window on both sides
    (identically): it is one answered window, kept from the first shard.
    """
    answers = {}
    for shard in shards:
        for outcome in shard.node.outcomes:
            answers.setdefault(outcome.window, (outcome, shard))
    return answers


def _links(dialed: Sequence[tuple[str, int, int, MessageStream]]) -> list:
    """One row of counters per dialed stream, in dial order."""
    links = []
    for layer, src, dst, stream in list(dialed):
        try:
            backlog = stream.send_backlog()
        except Exception:
            backlog = 0  # stream already torn down
        stats = stream.stats
        links.append({
            "layer": layer,
            "src": src,
            "dst": dst,
            "send_backlog": backlog,
            "send_stall_s": round(stats.send_stall_s, 6),
            "frames_sent": stats.messages_sent,
            "frames_received": stats.messages_received,
            "bytes_sent": stats.bytes_sent,
            "bytes_received": stats.bytes_received,
        })
    return links


def _cluster_summary(
    *,
    transport: str,
    expected_windows: int,
    shards: "Sequence[RootServer]",
    tracer: Tracer,
    dialed: Sequence[tuple[str, int, int, MessageStream]],
) -> dict:
    """The live per-node phase/queue digest served at ``/summary``.

    Built on demand from completed live spans and the dialed streams'
    counters — this is what ``python -m repro top`` renders.
    """
    nodes: dict[int, dict[str, dict]] = {}
    if isinstance(tracer, RecordingTracer):
        for span in tracer.spans:
            if not span.name.startswith("live_"):
                continue
            phases = nodes.setdefault(span.node_id, {})
            entry = phases.setdefault(
                span.name, {"count": 0, "seconds": 0.0}
            )
            entry["count"] += 1
            entry["seconds"] += span.duration
    return {
        "transport": transport,
        "windows_expected": expected_windows,
        "windows_done": len(_answers(shards)),
        "nodes": [
            {
                "node": node_id,
                "phases": {
                    name: {
                        "count": entry["count"],
                        "seconds": round(entry["seconds"], 6),
                    }
                    for name, entry in sorted(phases.items())
                },
            }
            for node_id, phases in sorted(nodes.items())
        ],
        "links": _links(dialed),
    }


class Cluster:
    """One live run of a :class:`ClusterConfig`: hosts, links and clocks.

    :func:`run_cluster` takes it through build (this constructor: no
    I/O), :meth:`wire`, :meth:`drive`, :meth:`close` and :meth:`report`.
    It is also what the fault plan and a ``disturb`` hook inject with:
    crash a local with :meth:`~repro.runtime.servers.LocalServer.crash`
    or kill a whole relay with :meth:`~repro.mesh.relay.RelayServer.close`
    and the shards' failure detectors degrade the affected windows — the
    run still completes (the "degrade, never hang" guarantee under abrupt
    death rather than graceful leave).
    """

    def __init__(
        self,
        config: ClusterConfig,
        streams: Mapping[int, Sequence[Event]],
        *,
        tracer: Tracer,
        driver: Callable[[QueryDriverContext], Awaitable[dict | None]] | None,
    ) -> None:
        config.check(driver=driver is not None)
        self.config = config
        self.driver = driver
        length = self.length = config.query.window_length_ms
        self.streams = {
            local_id: as_event_columns(share)
            for local_id, share in streams.items()
        }
        self.grid_start, self.grid_end, self.ranges = membership_grid(
            config, self.streams
        )
        self.windows = [
            Window(start, start + length)
            for start in range(self.grid_start, self.grid_end, length)
        ]
        self.shard_windows = {
            index: [
                window for window in self.windows
                if shard_of(window.start, length, config.n_shards) == index
            ]
            for index in range(config.n_shards)
        }
        self.shard_ids = [shard_node_id(i) for i in range(config.n_shards)]
        self.initial_ids = list(range(1, config.n_locals + 1))
        #: Relay assignment covers every local that will ever exist, so a
        #: joiner's relay is known (and wired) before the join happens.
        self.groups = relay_groups(sorted(self.ranges), config.relay_fanin)
        self.relay_of = {
            local_id: relay_node_id(group_index)
            for group_index, group in enumerate(self.groups)
            for local_id in group
        }
        tolerance = config.tolerance
        if tolerance is None and config.faults is not None:
            tolerance = ToleranceConfig()
        self.tolerance = tolerance
        self.reliability = tolerance.reliability if tolerance is not None else None

        self._build_telemetry(tracer)
        self.failures = FailureLatch(
            on_trip=(
                self.recorder.on_failure if self.recorder is not None else None
            )
        )
        self.controller = (
            ChaosController(config.faults) if config.faults is not None
            else None
        )
        self.network = (
            TcpNetwork(failures=self.failures)
            if config.transport == "tcp"
            else MemoryNetwork(failures=self.failures)
        )
        self.loop = asyncio.get_event_loop()
        self.epoch = self.loop.time()
        self.dialed: list[tuple[str, int, int, MessageStream]] = []

        #: Replays wait here until a query driver has registered its
        #: queries (so they cover the whole grid); open at once without one.
        self.replay_gate = asyncio.Event()
        self.query_plane = None
        self.local_planes: dict = {}
        if driver is None:
            self.replay_gate.set()
        else:
            # Imported lazily: the queries package's runner module imports
            # this module back, so a top-level import would be circular.
            from repro.queries.local import LocalQueryPlane
            from repro.queries.root import RootQueryPlane

            self.query_plane = RootQueryPlane(
                tuple(self.initial_ids), tracer=self.tracer,
                durable=config.durable_queries,
            )
            # Plane spans share the cluster's fabric clock.
            self.query_plane.clock = lambda: self.loop.time() - self.epoch
            self.local_planes = {
                local_id: LocalQueryPlane(local_id, grid_start=self.grid_start)
                for local_id in self.initial_ids
            }
        self.gates = {
            at_ms: asyncio.Event()
            for at_ms in {event.at_ms for event in config.membership}
        }

        self.shards: list[RootServer] = []
        self.relays: list[RelayServer] = []
        self.locals_by_id: dict[int, LocalServer] = {}
        self.failover: FailoverController | None = None
        self.stream_servers: list[StreamServer] = []
        self.replays: list[asyncio.Task] = []
        self.replays_by_local: dict[int, list[asyncio.Task]] = {}
        self.driver_links: list[ChaosStream] = []
        self.driver_result: dict = {}
        self.side_tasks: list[asyncio.Task] = []
        #: The one seal→result sample of each answered window.
        self.latencies: dict[Window, float] = {}

    def _build_telemetry(self, tracer: Tracer) -> None:
        """The telemetry plane: off by default, and bit-identical when off."""
        telemetry = self.telemetry = self.config.telemetry
        if telemetry is not None and not tracer.enabled:
            # The plane needs somewhere to put spans and metrics; a caller
            # who asked for telemetry but passed no tracer gets a private
            # one.
            tracer = RecordingTracer()
        self.tracer = tracer
        self.sample_rate = telemetry.sample_rate if telemetry is not None else 1.0
        self.recorder: FlightRecorder | None = None
        if telemetry is not None and telemetry.flight_recorder_path is not None:
            self.recorder = FlightRecorder(
                telemetry.flight_recorder_path,
                capacity=telemetry.flight_recorder_capacity,
            )
            if isinstance(tracer, RecordingTracer):
                tracer.on_record = self.recorder.record
        self.collector = FleetCollector() if telemetry is not None else None
        self.sampler: RuntimeSampler | None = None
        self.uplink_interval = 0.25
        if telemetry is not None and telemetry.sampler_interval_s > 0:
            self.sampler = RuntimeSampler(
                tracer.registry, interval_s=telemetry.sampler_interval_s
            )
            self.uplink_interval = telemetry.sampler_interval_s
        self.http_server: TelemetryServer | None = None

    def _uplink(self, node_id: int) -> "TelemetryUplink | None":
        return TelemetryUplink(node_id) if self.telemetry is not None else None

    def _track(
        self, layer: str, src: int, dst: int, stream: MessageStream
    ) -> None:
        """Remember a dialed stream for accounting and the sampler."""
        self.dialed.append((layer, src, dst, stream))
        if self.sampler is not None:
            self.sampler.register_stream(stream, src=src, dst=dst)

    async def wire(self) -> None:
        """Start the telemetry plane, the shards, failover, relays and the
        fault plan, then wire each initial local and start its replays."""
        telemetry = self.telemetry
        if self.sampler is not None:
            self.sampler.start()
        if telemetry is not None and telemetry.http_port is not None:
            tracer = self.tracer
            self.http_server = TelemetryServer(
                tracer.registry,
                host=telemetry.http_host,
                port=telemetry.http_port,
                spans=lambda: (
                    tracer.spans if isinstance(tracer, RecordingTracer) else []
                ),
                summary=functools.partial(
                    _cluster_summary, transport=self.config.transport,
                    expected_windows=len(self.windows), shards=self.shards,
                    tracer=tracer, dialed=self.dialed,
                ),
                fleet=self.fleet_summary,
            )
            await self.http_server.start()
            if telemetry.announce is not None:
                telemetry.announce(self.http_server.port)
        await self._wire_shards()
        await self._wire_relays()
        # -- the fault plan is armed before any replay task exists: an
        # unpaced replay can burst through the whole run between two
        # ticks, and a shard kill due at time zero must not miss it.
        if self.controller is not None:
            self.side_tasks.append(self.failures.spawn(self._drive_faults()))
        # -- locals, each replaying as soon as it is wired (a relay waits
        # for its founding children by id, connected yet or not).
        for local_id in self.initial_ids:
            await self.wire_local(local_id)
            self.start_replays(local_id)

    async def _wire_shards(self) -> None:
        """Listen on every root shard, then start the failover plane."""
        telemetry = self.telemetry
        for index, node_id in enumerate(self.shard_ids):
            shard = RootServer(
                DemaRootNode(
                    node_id,
                    local_ids=self.initial_ids,
                    queries=(self.config.query,),
                    ops_per_second=LIVE_OPS_PER_SECOND,
                    reliability=self.reliability,
                    degrade_after_retries=self.tolerance is not None,
                ),
                LiveFabric(self.epoch),
                expected_windows=len(self.shard_windows[index]),
                downstream=self.relay_of,
                tracer=self.tracer,
                tolerance=self.tolerance,
                failures=self.failures,
                wire_tracing=telemetry is not None,
                echo_heartbeats=(
                    telemetry.heartbeat_rtt if telemetry is not None else False
                ),
                query_plane=self.query_plane,
                on_telemetry=(
                    self.collector.on_message
                    if self.collector is not None else None
                ),
                uplink=self._uplink(node_id),
            )
            await self.network.listen(node_id, shard.serve)
            shard.start_monitor()
            self.shards.append(shard)
        #: The failover plane exists when there is a successor to fail
        #: onto and a heartbeat cadence to detect with.
        if self.config.n_shards > 1 and self.tolerance is not None:
            self.failover = FailoverController(
                self.shards,
                self.shard_windows,
                heartbeat_interval_s=self.tolerance.heartbeat_interval_s,
                tracer=self.tracer,
                failures=self.failures,
                on_takeover=self._on_takeover,
            )
            self.failover.start()

    def _on_takeover(
        self, dead: int, successor: int, map_epoch: int, adopted: int
    ) -> None:
        if self.collector is not None:
            self.collector.record_failover(
                dead, successor, map_epoch, self.loop.time() - self.epoch
            )
        if self.recorder is not None:
            # Dump the in-flight span ring at the moment of takeover: the
            # post-mortem of the dead shard, captured while the evidence
            # is fresh (same contract as a latch trip).
            self.recorder.dump(
                f"shard {dead} takeover by {successor} "
                f"(epoch {map_epoch}, {adopted} windows adopted)"
            )

    async def _wire_relays(self) -> None:
        """Listen on every relay and dial it to every shard."""
        failover = self.failover
        for group_index, group in enumerate(self.groups):
            relay = RelayServer(
                group_index,
                window_length_ms=self.length,
                n_shards=self.config.n_shards,
                children=tuple(n for n in group if n in self.initial_ids),
                flush_after_s=self.config.relay_flush_s,
                tracer=self.tracer,
                failures=self.failures,
                on_shard_down=(
                    failover.report_link_down if failover is not None else None
                ),
                uplink=self._uplink(relay_node_id(group_index)),
                uplink_interval_s=self.uplink_interval,
            )
            await self.network.listen(relay.node_id, relay.serve)
            uplinks: dict[int, MessageStream] = {}
            for index, node_id in enumerate(self.shard_ids):
                uplinks[index] = stream = await self.network.dial(node_id)
                self._track("relay_root", relay.node_id, node_id, stream)
            await relay.connect_shards(uplinks)
            self.relays.append(relay)

    async def wire_local(
        self, local_id: int, *, join_from: "int | None" = None
    ) -> None:
        """Listen, dial every upstream and say hello — no data flows yet."""
        config = self.config
        lo, hi = self.ranges[local_id]
        failover = self.failover
        local = LocalServer(
            DemaLocalNode(
                local_id,
                root_id=0,
                queries=(config.query,),
                ops_per_second=LIVE_OPS_PER_SECOND,
                reliability=self.reliability,
                # Sharded roots release windows independently, so a
                # release must prune only its own window — the others
                # are the failover replay source (see DemaLocalNode).
                cumulative_releases=config.n_shards <= 1,
            ),
            LiveFabric(self.epoch),
            expected_streams=config.streams_per_local,
            grid_start=lo,
            grid_end=hi,
            window_length_ms=self.length,
            n_shards=config.n_shards,
            tracer=self.tracer,
            tolerance=self.tolerance,
            dial=functools.partial(self.dial, local_id),
            failures=self.failures,
            wire_tracing=self.telemetry is not None,
            sample_rate=self.sample_rate,
            query_plane=self.local_planes.get(local_id),
            on_upstream_down=(
                failover.report_link_down if failover is not None else None
            ),
            uplink=self._uplink(local_id),
            uplink_interval_s=self.uplink_interval,
        )
        self.locals_by_id[local_id] = local
        await self.network.listen(local_id, local.serve)
        await local.connect_upstreams(
            [self.relay_of[local_id]] if self.groups else self.shard_ids,
            join_from=join_from,
        )

    async def dial(self, local_id: int, peer_id: int) -> MessageStream:
        """Dial local ``local_id``'s upstream ``peer_id`` (relay or shard)."""
        controller = self.controller
        if controller is not None and not controller.dial_allowed(local_id):
            raise TransportError(
                f"chaos: local {local_id} is partitioned from the roots"
            )
        if any(s.crashed for s in self.shards if s.node_id == peer_id):
            raise TransportError(f"shard {peer_id} is down")
        stream: MessageStream = await self.network.dial(peer_id)
        if controller is not None:
            stream = controller.wrap(local_id, stream)
        layer = "local_relay" if self.groups else "local_root"
        self._track(layer, local_id, peer_id, stream)
        return stream

    def start_replays(self, local_id: int) -> None:
        """Create the local's stream servers and their replay tasks."""
        config = self.config
        lo, hi = self.ranges[local_id]
        share = self.streams.get(local_id, EMPTY_EVENTS)
        if (lo, hi) != (self.grid_start, self.grid_end):
            # Membership demands timestamp-sorted streams (checked at
            # build), so truncation is a zero-copy slice.
            i, j = np.searchsorted(share.timestamps, [lo, hi]).tolist()
            share = share[i:j]
        n_streams = config.streams_per_local
        # Strided views give exactly the round-robin assignment (stream k
        # takes events k, k+n, k+2n, …) without copying.
        for k in range(n_streams):
            server = StreamServer(
                _STREAM_ID_BASE + len(self.stream_servers),
                events=share[k::n_streams],
                batch_size=config.batch_size,
                grid_start=lo,
                grid_end=hi,
                window_length_ms=self.length,
                gates=self.gates,
                time_scale=config.time_scale,
                tracer=self.tracer,
                wire_tracing=self.telemetry is not None,
                sample_rate=self.sample_rate,
                epoch=self.epoch,
            )
            self.stream_servers.append(server)
            task = asyncio.ensure_future(self._replay(local_id, server))
            self.replays.append(task)
            self.replays_by_local.setdefault(local_id, []).append(task)

    async def _replay(self, local_id: int, server: StreamServer) -> None:
        await self.replay_gate.wait()
        pipe = await self.network.dial(local_id)
        self._track("stream_local", server.stream_id, local_id, pipe)
        await server.replay(pipe)

    async def _drive_faults(self) -> None:
        """Fire the fault plan against the live cluster on the wall clock.

        Event times are event-time seconds; the driver scales them by the
        run's ``time_scale`` (one second of event time replays in
        ``time_scale`` wall seconds) so the same plan hits the same point
        of the stream on both substrates.
        """
        controller = self.controller
        plan = controller.plan
        never_restart = {
            node
            for node, intervals in plan.crash_intervals().items()
            if any(end is None for _, end in intervals)
        }
        for event in plan.schedule():
            due = self.epoch + event.at_s * self.config.time_scale
            if due > self.loop.time():
                await asyncio.sleep(due - self.loop.time())
            controller.record(event)
            if self.tracer.enabled:
                now = self.loop.time() - self.epoch
                self.tracer.record(
                    f"fault_{event.kind}",
                    shard_node_id(0) if event.node is None else event.node,
                    now, now,
                )
            await self._apply_fault(event, never_restart)

    async def _apply_fault(
        self, event: FaultEvent, never_restart: "set[int]"
    ) -> None:
        controller = self.controller
        if event.kind == "crash":
            controller.sever(event.node)
            await self.locals_by_id[event.node].crash()
            if event.node in never_restart:
                # Nothing will ever drain this local's pipes again; cancel
                # its feeds so the run can finish degraded instead of
                # deadlocking on a full queue.
                for task in self.replays_by_local.get(event.node, ()):
                    task.cancel()
        elif event.kind == "restart":
            await self.locals_by_id[event.node].restart()
        elif event.kind == "drop_link":
            controller.sever(event.node)
        elif event.kind == "partition_start":
            controller.start_partition()
        elif event.kind == "partition_heal":
            controller.heal_partition()
        elif event.kind == "kill_shard":
            # Pinned to a protocol point, not the wall clock: the victim
            # dies right after its next answered window (an unpaced replay
            # bursts through whole runs between two event-loop ticks).
            victim = self.shards[event.node]
            victim.crash_after(len(victim.node.outcomes) + 1)
        elif event.kind == "driver_drop":
            for link in self.driver_links:
                link.sever()

    async def kill_shard(self, index: int) -> None:
        """Crash root shard ``index`` and wait for its takeover.

        Requires a failover controller (``n_shards > 1`` plus a
        tolerance config): killing the only root, or killing without a
        failure detector, has no successor to recover onto.
        """
        if self.failover is None:
            raise ConfigurationError(
                "kill_shard needs a failover controller "
                "(n_shards > 1 and a tolerance config)"
            )
        await self.failover.kill_shard(index)

    async def drive(
        self, disturb: Callable[["Cluster"], Awaitable[None]] | None
    ) -> None:
        """Start the disturb hook, the query driver and the membership
        coordinator, then wait for every window, the latch or the
        timeout — whichever comes first."""
        config = self.config
        if disturb is not None:
            self.side_tasks.append(self.failures.spawn(disturb(self)))
        driver_task: asyncio.Task | None = None
        if self.driver is not None:
            driver_task = self.failures.spawn(self._run_driver())
            self.side_tasks.append(driver_task)
        coordinator = asyncio.ensure_future(self._coordinate_membership())
        main_task = asyncio.ensure_future(self._finish(coordinator, driver_task))
        failure_task = asyncio.ensure_future(self.failures.event.wait())
        self.side_tasks += [coordinator, main_task, failure_task]
        done, _ = await asyncio.wait(
            {main_task, failure_task},
            timeout=config.timeout_s,
            return_when=asyncio.FIRST_COMPLETED,
        )
        if failure_task in done and self.failures.error is not None:
            # A background task died; without the latch these used to
            # vanish silently and the run would hang until the deadline.
            raise TransportError(
                f"live cluster task failed: {self.failures.error!r}"
            ) from self.failures.error
        if main_task not in done:
            raise TransportError(
                f"live run did not complete {len(self.windows)} windows "
                f"within {config.timeout_s}s "
                f"({len(_answers(self.shards))} finished)"
            )
        main_task.result()  # propagate replay errors, if any

    async def _run_driver(self) -> None:
        plane = self.query_plane
        context = QueryDriverContext(
            grid_start=self.grid_start,
            grid_end=self.grid_end,
            config=self.config,
            dial=self._dial_client,
            start_replay=self.replay_gate.set,
            plane_results=lambda: plane.results_served,
        )
        try:
            result = await self.driver(context)
            if isinstance(result, dict):
                self.driver_result.update(result)
        finally:
            self.replay_gate.set()  # a dead driver must not hang replays

    async def _dial_client(self, client_id: int) -> MessageStream:
        link: MessageStream = await self.network.dial(self.shard_ids[0])
        if self.controller is not None:
            link = ChaosStream(link)  # what ``driver_drop`` severs
            self.driver_links.append(link)
        self._track("driver_root", client_id, self.shard_ids[0], link)
        return link

    async def _coordinate_membership(self) -> None:
        """Apply each boundary's joins/leaves on every shard, then open
        that boundary's replay gate."""
        applied = 0
        for at_ms in sorted(self.gates):
            for event in self.config.membership:
                if event.at_ms != at_ms:
                    continue
                if event.kind == "leave":
                    await self.locals_by_id[event.local_id].announce_leave(at_ms)
                else:
                    await self.wire_local(event.local_id, join_from=at_ms)
                    self.start_replays(event.local_id)
                applied += 1
            while any(
                shard.node.membership_epoch < applied
                for shard in self.shards
                if not shard.crashed
            ):
                await asyncio.sleep(_EPOCH_POLL_S)
            self.gates[at_ms].set()

    async def _finish(
        self, coordinator: asyncio.Task, driver_task: asyncio.Task | None
    ) -> None:
        await coordinator
        results = await asyncio.gather(*self.replays, return_exceptions=True)
        for result in results:
            if isinstance(result, asyncio.CancelledError):
                continue  # a never-restarting crash cancels its feeds
            if isinstance(result, BaseException):
                raise result
        # A takeover re-arms the successor's latch before it settles the
        # dead shard's, so "every shard done" has to hold at one instant,
        # not once per shard in turn.
        while not all(shard.done.is_set() for shard in self.shards):
            for shard in self.shards:
                await shard.done.wait()
        if driver_task is not None:
            await driver_task

    async def close(self) -> None:
        """Halt every host's timers and reap every task, then stop
        failover, shards, locals, relays, links, the network and the
        telemetry plane, in that order, and close the latch on whatever
        they left spawned."""
        for host in [*self.shards, *self.locals_by_id.values()]:
            host.fabric.halt()
        await self.failures.reap([*self.side_tasks, *self.replays])
        if self.failover is not None:
            await self.failover.close()
        for shard in self.shards:
            await shard.stop_monitor()
        for local in self.locals_by_id.values():
            await local.shutdown()
        for relay in self.relays:
            await relay.close()
        for _, _, _, stream in self.dialed:
            with contextlib.suppress(TransportError):
                await stream.close()
        await self.network.close()
        if self.http_server is not None:
            await self.http_server.stop()
        if self.sampler is not None:
            await self.sampler.stop()
        await self.failures.close()

    def _seal_wall(self, window: Window) -> float:
        return max(
            (
                local.seal_walls.get(window, 0.0)
                for local in self.locals_by_id.values()
            ),
            default=0.0,
        )

    def _sample_latencies(self) -> None:
        """Take the one seal→result sample of each newly answered window.

        The driver is where the locals' seal walls and the shards' result
        walls meet.  With telemetry on, each sample also goes to the
        answering shard's uplink, so the merged fleet digest is built from
        exactly the samples the central report aggregates.
        """
        for window, (_, shard) in _answers(self.shards).items():
            finished = shard.result_walls.get(window)
            if window in self.latencies or finished is None:
                continue
            latency = max(0.0, finished - self._seal_wall(window))
            self.latencies[window] = latency
            if shard.uplink is not None:
                shard.uplink.observe("seal_to_result_s", latency)

    def fleet_summary(self) -> dict:
        """The ``/fleet`` document: merged digests plus cluster health.

        Shards are collocated with the coordinator, so their telemetry
        never crosses a wire: their stats and frames go to the collector
        in-process here.  Locals and relays uplink in-band on their own
        cadence.
        """
        shards = [
            {
                "index": index,
                "node_id": shard.node_id,
                "live": not shard.crashed,
                "windows_answered": len(shard.node.outcomes),
                "windows_expected": (
                    len(self.shard_windows[index]) + shard.windows_adopted
                ),
                "windows_adopted": shard.windows_adopted,
                "heartbeat_misses": shard.heartbeat_misses,
            }
            for index, shard in enumerate(self.shards)
        ]
        self._sample_latencies()
        for shard, row in zip(self.shards, shards):
            for stat in ("windows_answered", "windows_adopted", "heartbeat_misses"):
                shard.uplink.set_stat(stat, float(row[stat]))
            for frame in shard.uplink.build(CONTROL_WINDOW):
                self.collector.on_message(frame)
        answered = len(_answers(self.shards))
        expected = len(self.windows)
        summary = self.collector.report()
        summary["shards"] = shards
        summary["relays"] = [
            {
                "index": relay.index,
                "node_id": relay.node_id,
                "frames_combined": relay.frames_combined,
                "sections_combined": relay.sections_combined,
                "singleton_forwards": relay.singleton_forwards,
                "frames_replayed": relay.frames_replayed,
                "fenced_frames": relay.fenced_frames,
            }
            for relay in self.relays
        ]
        summary["windows"] = {
            "expected": expected,
            "answered": answered,
            "completeness": answered / expected if expected else 1.0,
        }
        summary["epoch"] = self.failover.map.epoch if self.failover else 0
        summary["staleness_s"] = self.collector.stat_max("oldest_pending_age_s")
        return summary

    def _telemetry_report(self) -> dict:
        # Final pump: the in-band cadence may not have fired on a fast
        # run, so refresh and drain every uplink once more — cumulative
        # digests with latest-sequence-wins make this idempotent.
        for host in (*self.locals_by_id.values(), *self.relays):
            host.refresh_uplink_stats()
            for frame in host.uplink.build(CONTROL_WINDOW):
                self.collector.on_message(frame)
        tracer, recorder = self.tracer, self.recorder
        http, sampler = self.http_server, self.sampler
        spans = tracer.spans if isinstance(tracer, RecordingTracer) else []
        return {
            "http_port": http.port if http is not None else None,
            "sampler_samples": sampler.samples if sampler is not None else 0,
            "traced_live_spans": sum(
                span.name.startswith("live_") for span in spans
            ),
            "flight_recorder": (
                str(recorder.path) if recorder is not None else None
            ),
            "flight_recorder_dumped": recorder is not None and recorder.dumped,
            "fleet": self.fleet_summary(),
        }

    def report(self) -> ClusterReport:
        """The run's :class:`ClusterReport`, read off the torn-down hosts."""
        wall_seconds = self.loop.time() - self.epoch
        tracer, shards, relays = self.tracer, self.shards, self.relays
        locals_ = list(self.locals_by_id.values())
        outcomes = sorted(
            (outcome for outcome, _ in _answers(shards).values()),
            key=lambda outcome: outcome.window,
        )
        self._sample_latencies()
        bytes_by_layer: dict[str, int] = {}
        messages_by_layer: dict[str, int] = {}
        root_ingress = 0
        for link in _links(self.dialed):
            layer, src, dst = link["layer"], link["src"], link["dst"]
            sent, received = link["bytes_sent"], link["bytes_received"]
            frames = link["frames_sent"], link["frames_received"]
            bytes_by_layer[layer] = bytes_by_layer.get(layer, 0) + sent + received
            messages_by_layer[layer] = messages_by_layer.get(layer, 0) + sum(frames)
            if layer in ("local_root", "relay_root"):
                root_ingress += sent
            if tracer.enabled:
                tracer.record_link(src, dst, bytes=sent, messages=frames[0])
                tracer.record_link(dst, src, bytes=received, messages=frames[1])

        degraded = sum(shard.node.degraded_windows for shard in shards)
        dropped_sends = sum(shard.dropped_sends for shard in shards) + sum(
            local.dropped_sends for local in locals_
        )
        if tracer.enabled and self.tolerance is not None:
            tracer.registry.gauge(
                "degraded_windows",
                "Windows answered from a strict subset of the locals.",
            ).set(float(degraded))
            tracer.registry.gauge(
                "dropped_sends",
                "Messages dropped at severed or unroutable links.",
            ).set(float(dropped_sends))
        config, failover = self.config, self.failover
        return ClusterReport(
            outcomes=outcomes,
            windows=len(self.windows),
            events_sent=sum(s.events_sent for s in self.stream_servers),
            wall_seconds=wall_seconds,
            seal_to_result=LatencyStats(list(self.latencies.values())),
            bytes_by_layer=bytes_by_layer,
            messages_by_layer=messages_by_layer,
            transport=config.transport,
            n_shards=config.n_shards,
            relay_fanin=config.relay_fanin,
            root_ingress_bytes=root_ingress,
            reconnects=sum(local.reconnects for local in locals_),
            heartbeat_misses=sum(shard.heartbeat_misses for shard in shards),
            degraded_windows=degraded,
            locals_declared_dead=sum(
                shard.locals_declared_dead for shard in shards
            ),
            dropped_sends=dropped_sends,
            windows_lost=max(0, len(self.windows) - len(outcomes)),
            fault_events=(
                list(self.controller.applied) if self.controller else []
            ),
            membership_epochs={
                index: shard.node.membership_epoch
                for index, shard in enumerate(shards)
            },
            members=shards[0].node.current_members,
            relay_frames_combined=sum(r.frames_combined for r in relays),
            relay_sections_combined=sum(r.sections_combined for r in relays),
            shard_failovers=failover.failovers if failover is not None else 0,
            windows_adopted=sum(shard.windows_adopted for shard in shards),
            relay_frames_replayed=sum(r.frames_replayed for r in relays),
            fenced_frames=(
                sum(local.fenced_frames for local in locals_)
                + sum(relay.fenced_frames for relay in relays)
            ),
            telemetry=(
                self._telemetry_report() if self.collector is not None else {}
            ),
            queries=self.driver_result,
        )


#: What the fault plan and a ``disturb`` hook receive: the cluster itself.
MeshChaosContext = Cluster


async def run_cluster(
    config: ClusterConfig,
    streams: Mapping[int, Sequence[Event]],
    *,
    tracer: Tracer = NOOP_TRACER,
    driver: Callable[
        [QueryDriverContext], Awaitable[dict | None]
    ] | None = None,
    disturb: Callable[[MeshChaosContext], Awaitable[None]] | None = None,
) -> ClusterReport:
    """Run the configured topology over ``streams`` and collect the report.

    Args:
        config: Topology, transport, pacing, faults, membership.
        streams: Per-**local-node** event streams in timestamp order,
            keyed by local id, as :class:`EventColumns` batches or
            sequences of events (converted once, here) — runtime joiners
            included (their pre-join events are dropped, as are a
            leaver's post-leave events).  A local's stream is split
            round-robin over its stream servers exactly as the simulated
            engine does.
        tracer: Observability hooks; live message deliveries are recorded
            as protocol traces, membership changes and relay combines as
            spans, current membership as the ``mesh_members`` gauge.
        driver: Optional query-plane driver coroutine.  When given, the
            cluster attaches a :class:`~repro.queries.root.RootQueryPlane`
            to the root and a :class:`~repro.queries.local.LocalQueryPlane`
            to every local, gates the replays on the driver's
            ``start_replay()`` call, and runs the driver alongside the
            cluster.
        disturb: Optional ``async (MeshChaosContext) -> None`` test hook,
            started once every initial local is wired and cancelled at
            teardown.  Use with a tolerance config so the
            failure detectors can degrade around what it breaks.

    Returns:
        The run report with per-window outcomes and wall-clock metrics.
    """
    cluster = Cluster(config, streams, tracer=tracer, driver=driver)
    try:
        await cluster.wire()
        await cluster.drive(disturb)
    finally:
        await cluster.close()
    return cluster.report()


def run_live(
    config: ClusterConfig,
    streams: Mapping[int, Sequence[Event]],
    *,
    tracer: Tracer = NOOP_TRACER,
    driver: Callable[
        [QueryDriverContext], Awaitable[dict | None]
    ] | None = None,
    disturb: Callable[[MeshChaosContext], Awaitable[None]] | None = None,
) -> ClusterReport:
    """Synchronous wrapper around :func:`run_cluster`."""
    return asyncio.run(
        run_cluster(
            config, streams, tracer=tracer, driver=driver, disturb=disturb
        )
    )
