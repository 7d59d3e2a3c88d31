"""Cluster driver: any live Dema topology as one coroutine.

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
class MeshChaosContext:
    """Live handles the fault plan and a ``disturb`` coroutine inject with.

    The hook runs alongside the replays; crash a local with
    :meth:`~repro.runtime.servers.LocalServer.crash` or kill a whole
    relay with :meth:`~repro.mesh.relay.RelayServer.close` and the
    shards' failure detectors degrade the affected windows — the run
    still completes (the "degrade, never hang" guarantee under abrupt
    death rather than graceful leave).
    """

    locals_by_id: "dict[int, LocalServer]"
    relays: "list[RelayServer]"
    shards: "list[RootServer]"
    #: The failover plane; present when the run has more than one shard
    #: and a tolerance config (detection needs the heartbeat cadence).
    failover: "FailoverController | None" = None

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


@dataclass
class ClusterReport:
    """Everything a caller needs from one live run."""

    outcomes: list[WindowOutcome]
    windows: int
    events_sent: int
    wall_seconds: float
    #: Watermark seal (last local) → root outcome, per completed window.
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


def _grid(
    streams: Mapping[int, EventColumns], window_length_ms: int
) -> tuple[int, int]:
    """The tumbling-window grid ``[start, end)`` covering every event."""
    shares = [events for events in streams.values() if len(events)]
    if not shares:
        raise ConfigurationError("a run needs at least one event")
    lo = min(events.min_timestamp() for events in shares)
    hi = max(events.max_timestamp() for events in shares)
    start = (lo // window_length_ms) * window_length_ms
    end = (hi // window_length_ms + 1) * window_length_ms
    return start, end


def _membership_ranges(
    config: ClusterConfig, grid_start: int, grid_end: int
) -> "dict[int, tuple[int, int]]":
    """Per-local eligibility range ``[lo, hi)`` implied by the schedule."""
    joins = {
        event.local_id: event.at_ms
        for event in config.membership
        if event.kind == "join"
    }
    leaves = {
        event.local_id: event.at_ms
        for event in config.membership
        if event.kind == "leave"
    }
    ranges: dict[int, tuple[int, int]] = {}
    for local_id in range(1, config.n_locals + 1):
        ranges[local_id] = (grid_start, leaves.get(local_id, grid_end))
    for local_id, at_ms in joins.items():
        ranges[local_id] = (at_ms, leaves.get(local_id, grid_end))
    for local_id, at_ms in leaves.items():
        if local_id not in ranges:
            raise ConfigurationError(
                f"local {local_id} leaves but never joins"
            )
        lo, _ = ranges[local_id]
        if at_ms <= lo:
            raise ConfigurationError(
                f"local {local_id} leaves at {at_ms} before it is a "
                f"member (from {lo})"
            )
    return ranges


async def _drive_faults(
    controller: ChaosController,
    config: ClusterConfig,
    hosts: MeshChaosContext,
    replays_by_local: Mapping[int, "list[asyncio.Task]"],
    driver_links: "list[ChaosStream]",
    epoch: float,
    tracer: Tracer,
) -> None:
    """Fire the fault plan against the live cluster on the wall clock.

    Event times are event-time seconds; the driver scales them by the
    run's ``time_scale`` (one second of event time replays in
    ``time_scale`` wall seconds) so the same plan hits the same point of
    the stream on both substrates.
    """
    loop = asyncio.get_event_loop()
    plan = controller.plan
    never_restart = {
        node
        for node, intervals in plan.crash_intervals().items()
        if any(end is None for _, end in intervals)
    }
    for event in plan.schedule():
        delay = epoch + event.at_s * config.time_scale - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        controller.record(event)
        if tracer.enabled:
            now = loop.time() - epoch
            tracer.record(
                f"fault_{event.kind}",
                shard_node_id(0) if event.node is None else event.node,
                now, now,
            )
        await _apply_fault(
            event, controller, hosts, replays_by_local, never_restart,
            driver_links,
        )


async def _apply_fault(
    event: FaultEvent,
    controller: ChaosController,
    hosts: MeshChaosContext,
    replays_by_local: Mapping[int, "list[asyncio.Task]"],
    never_restart: "set[int]",
    driver_links: "list[ChaosStream]",
) -> None:
    if event.kind == "crash":
        controller.sever(event.node)
        await hosts.locals_by_id[event.node].crash()
        if event.node in never_restart:
            # Nothing will ever drain this local's pipes again; cancel its
            # feeds so the run can finish degraded instead of deadlocking
            # on a full queue.
            for task in replays_by_local.get(event.node, ()):
                task.cancel()
    elif event.kind == "restart":
        await hosts.locals_by_id[event.node].restart()
    elif event.kind == "drop_link":
        controller.sever(event.node)
    elif event.kind == "partition_start":
        controller.start_partition()
    elif event.kind == "partition_heal":
        controller.heal_partition()
    elif event.kind == "kill_shard":
        # Pinned to a protocol point, not the wall clock: the victim dies
        # right after its next answered window (an unpaced replay bursts
        # through whole runs between two event-loop ticks).
        victim = hosts.shards[event.node]
        victim.crash_after(len(victim.node.outcomes) + 1)
    elif event.kind == "driver_drop":
        for link in driver_links:
            link.sever()


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
    return {
        "transport": transport,
        "windows_expected": expected_windows,
        "windows_done": sum(len(shard.node.outcomes) for shard in shards),
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
        "links": links,
    }


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
    config.check(driver=driver is not None)
    length = config.query.window_length_ms
    streams = {
        local_id: as_event_columns(share)
        for local_id, share in streams.items()
    }
    grid_start, grid_end = _grid(streams, length)
    ranges = _membership_ranges(config, grid_start, grid_end)
    check_streams(ranges, streams)
    for event in config.membership:
        if not grid_start < event.at_ms < grid_end:
            raise ConfigurationError(
                f"membership boundary {event.at_ms} outside the grid "
                f"({grid_start}, {grid_end})"
            )
        if (event.at_ms - grid_start) % length != 0:
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

    windows = [
        Window(start, start + length)
        for start in range(grid_start, grid_end, length)
    ]
    shard_windows = {
        index: [
            window for window in windows
            if shard_of(window.start, length, config.n_shards) == index
        ]
        for index in range(config.n_shards)
    }
    shard_ids = [shard_node_id(index) for index in range(config.n_shards)]

    initial_ids = list(range(1, config.n_locals + 1))
    all_local_ids = sorted(ranges)
    #: Relay assignment covers every local that will ever exist, so a
    #: joiner's relay is known (and wired) before the join happens.
    groups = relay_groups(all_local_ids, config.relay_fanin)
    relay_of = {
        local_id: relay_node_id(group_index)
        for group_index, group in enumerate(groups)
        for local_id in group
    }
    #: Where each local dials: its relay, or every root shard.
    uplink_layer = "local_relay" if groups else "local_root"
    upstreams_of = {
        local_id: [relay_of[local_id]] if groups else shard_ids
        for local_id in all_local_ids
    }

    tolerance = config.tolerance
    if tolerance is None and config.faults is not None:
        tolerance = ToleranceConfig()
    reliability = tolerance.reliability if tolerance is not None else None

    # -- telemetry plane (off by default; bit-identical when off) --------
    telemetry = config.telemetry
    if telemetry is not None and not tracer.enabled:
        # The plane needs somewhere to put spans and metrics; a caller who
        # asked for telemetry but passed no tracer gets a private one.
        tracer = RecordingTracer()
    wire_tracing = telemetry is not None
    sample_rate = telemetry.sample_rate if telemetry is not None else 1.0
    recorder: FlightRecorder | None = None
    if telemetry is not None and telemetry.flight_recorder_path is not None:
        recorder = FlightRecorder(
            telemetry.flight_recorder_path,
            capacity=telemetry.flight_recorder_capacity,
        )
        if isinstance(tracer, RecordingTracer):
            tracer.on_record = recorder.record
    collector = FleetCollector() if telemetry is not None else None
    sampler: RuntimeSampler | None = None
    if telemetry is not None and telemetry.sampler_interval_s > 0:
        sampler = RuntimeSampler(
            tracer.registry, interval_s=telemetry.sampler_interval_s
        )
    uplink_interval = (
        telemetry.sampler_interval_s
        if telemetry is not None and telemetry.sampler_interval_s > 0
        else 0.25
    )

    def uplink_for(node_id: int) -> "TelemetryUplink | None":
        return TelemetryUplink(node_id) if telemetry is not None else None

    http_server: TelemetryServer | None = None

    failures = FailureLatch(
        on_trip=recorder.on_failure if recorder is not None else None
    )
    controller = (
        ChaosController(config.faults) if config.faults is not None else None
    )
    network = (
        TcpNetwork(failures=failures)
        if config.transport == "tcp"
        else MemoryNetwork(max_frames=config.queue_frames, failures=failures)
    )
    loop = asyncio.get_event_loop()
    epoch = loop.time()
    dialed: list[tuple[str, int, int, MessageStream]] = []

    def track(layer: str, src: int, dst: int, stream: MessageStream) -> None:
        """Remember a dialed stream for accounting and the sampler."""
        dialed.append((layer, src, dst, stream))
        if sampler is not None:
            sampler.register_stream(stream, src=src, dst=dst)

    #: Replays wait here until a query driver has registered its queries
    #: (so they cover the whole grid); open at once without a driver.
    replay_gate = asyncio.Event()
    query_plane = None
    local_planes: dict = {}
    if driver is None:
        replay_gate.set()
    else:
        # Imported lazily: the queries package's runner module imports
        # this module back, so a top-level import would be circular.
        from repro.queries.local import LocalQueryPlane
        from repro.queries.root import RootQueryPlane

        query_plane = RootQueryPlane(
            tuple(initial_ids), tracer=tracer, durable=config.durable_queries
        )
        # Plane spans share the cluster's fabric clock.
        query_plane.clock = lambda: loop.time() - epoch
        local_planes = {
            local_id: LocalQueryPlane(local_id, grid_start=grid_start)
            for local_id in initial_ids
        }
    gates = {
        at_ms: asyncio.Event()
        for at_ms in {event.at_ms for event in config.membership}
    }

    shards: list[RootServer] = []
    relays: list[RelayServer] = []
    locals_by_id: dict[int, LocalServer] = {}
    failover: FailoverController | None = None
    stream_servers: list[StreamServer] = []
    replays: list[asyncio.Task] = []
    replays_by_local: dict[int, list[asyncio.Task]] = {}
    driver_links: list[ChaosStream] = []
    driver_result: dict = {}
    hosts = MeshChaosContext(
        locals_by_id=locals_by_id, relays=relays, shards=shards
    )

    async def wire_local(
        local_id: int, *, join_from: "int | None" = None
    ) -> None:
        """Listen, dial every upstream and say hello — no data flows yet."""
        lo, hi = ranges[local_id]

        async def dial(peer_id: int) -> MessageStream:
            if controller is not None and not controller.dial_allowed(
                local_id
            ):
                raise TransportError(
                    f"chaos: local {local_id} is partitioned from the roots"
                )
            if any(s.crashed for s in shards if s.node_id == peer_id):
                raise TransportError(f"shard {peer_id} is down")
            stream: MessageStream = await network.dial(peer_id)
            if controller is not None:
                stream = controller.wrap(local_id, stream)
            track(uplink_layer, local_id, peer_id, stream)
            return stream

        local = LocalServer(
            DemaLocalNode(
                local_id,
                root_id=0,
                queries=(config.query,),
                ops_per_second=LIVE_OPS_PER_SECOND,
                reliability=reliability,
                # Sharded roots release windows independently, so a
                # release must prune only its own window — the others
                # are the failover replay source (see DemaLocalNode).
                cumulative_releases=config.n_shards <= 1,
            ),
            LiveFabric(epoch),
            expected_streams=config.streams_per_local,
            grid_start=lo,
            grid_end=hi,
            window_length_ms=length,
            n_shards=config.n_shards,
            tracer=tracer,
            tolerance=tolerance,
            dial=dial,
            failures=failures,
            wire_tracing=wire_tracing,
            sample_rate=sample_rate,
            query_plane=local_planes.get(local_id),
            on_upstream_down=(
                failover.report_link_down if failover is not None else None
            ),
            uplink=uplink_for(local_id),
            uplink_interval_s=uplink_interval,
        )
        locals_by_id[local_id] = local
        await network.listen(local_id, local.serve)
        await local.connect_upstreams(
            upstreams_of[local_id], join_from=join_from
        )

    def start_replays(local_id: int) -> None:
        """Create the local's stream servers and their replay tasks."""
        lo, hi = ranges[local_id]
        share = streams.get(local_id, EMPTY_EVENTS)
        if (lo, hi) != (grid_start, grid_end):
            # Membership demands timestamp-sorted streams (checked
            # above), so truncation is a zero-copy slice.
            i, j = np.searchsorted(share.timestamps, [lo, hi]).tolist()
            share = share[i:j]
        n_streams = config.streams_per_local
        # Strided views give exactly the round-robin assignment (stream k
        # takes events k, k+n, k+2n, …) without copying.
        for k in range(n_streams):
            server = StreamServer(
                _STREAM_ID_BASE + len(stream_servers),
                events=share[k::n_streams],
                batch_size=config.batch_size,
                grid_start=lo,
                grid_end=hi,
                window_length_ms=length,
                gates=gates,
                time_scale=config.time_scale,
                tracer=tracer,
                wire_tracing=wire_tracing,
                sample_rate=sample_rate,
                epoch=epoch,
            )
            stream_servers.append(server)

            async def replay(srv: StreamServer) -> None:
                await replay_gate.wait()
                pipe = await network.dial(local_id)
                track("stream_local", srv.stream_id, local_id, pipe)
                await srv.replay(pipe)

            task = asyncio.ensure_future(replay(server))
            replays.append(task)
            replays_by_local.setdefault(local_id, []).append(task)

    async def coordinate_membership() -> None:
        """Apply each boundary's joins/leaves on every shard, then open
        that boundary's replay gate."""
        applied = 0
        for at_ms in sorted(gates):
            for event in config.membership:
                if event.at_ms != at_ms:
                    continue
                if event.kind == "leave":
                    await locals_by_id[event.local_id].announce_leave(at_ms)
                else:
                    await wire_local(event.local_id, join_from=at_ms)
                    start_replays(event.local_id)
                applied += 1
            while any(
                shard.node.membership_epoch < applied
                for shard in shards
                if not shard.crashed
            ):
                await asyncio.sleep(_EPOCH_POLL_S)
            gates[at_ms].set()

    def seal_wall(window: Window) -> float:
        return max(
            (
                local.seal_walls.get(window, 0.0)
                for local in locals_by_id.values()
            ),
            default=0.0,
        )

    observed_results: set[Window] = set()

    def pump_shard_uplinks() -> None:
        """Feed shard uplinks straight into the collector.

        Shards are collocated with the coordinator, so their telemetry
        never crosses a wire: the driver refreshes their stats and hands
        the built frames to the collector in-process.  Locals and relays
        uplink in-band on their own cadence.  Seal→result latency is
        observed here — the driver is where the locals' seal walls and
        the shards' result walls meet — so the merged fleet digest is
        built from exactly the samples the central report aggregates.
        """
        assert collector is not None
        for shard in shards:
            for outcome in shard.node.outcomes:
                window = outcome.window
                finished = shard.result_walls.get(window)
                if window in observed_results or finished is None:
                    continue
                observed_results.add(window)
                shard.uplink.observe(
                    "seal_to_result_s",
                    max(0.0, finished - seal_wall(window)),
                )
            shard.uplink.set_stat(
                "windows_answered", float(len(shard.node.outcomes))
            )
            shard.uplink.set_stat(
                "windows_adopted", float(shard.windows_adopted)
            )
            shard.uplink.set_stat(
                "heartbeat_misses", float(shard.heartbeat_misses)
            )
            for frame in shard.uplink.build(CONTROL_WINDOW):
                collector.on_message(frame)

    def fleet_summary() -> dict:
        """The ``/fleet`` document: merged digests plus cluster health."""
        assert collector is not None
        pump_shard_uplinks()
        answered = {
            outcome.window
            for shard in shards
            for outcome in shard.node.outcomes
        }
        summary = collector.report()
        summary["shards"] = [
            {
                "index": index,
                "node_id": shard.node_id,
                "live": not shard.crashed,
                "windows_answered": len(shard.node.outcomes),
                "windows_expected": (
                    len(shard_windows[index]) + shard.windows_adopted
                ),
                "windows_adopted": shard.windows_adopted,
                "heartbeat_misses": shard.heartbeat_misses,
            }
            for index, shard in enumerate(shards)
        ]
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
            for relay in relays
        ]
        summary["windows"] = {
            "expected": len(windows),
            "answered": len(answered),
            "completeness": (
                len(answered) / len(windows) if windows else 1.0
            ),
        }
        summary["epoch"] = (
            failover.map.epoch if failover is not None else 0
        )
        summary["staleness_s"] = collector.stat_max("oldest_pending_age_s")
        return summary

    side_tasks: list[asyncio.Task] = []
    try:
        if sampler is not None:
            sampler.start()
        if telemetry is not None and telemetry.http_port is not None:
            http_server = TelemetryServer(
                tracer.registry,
                host=telemetry.http_host,
                port=telemetry.http_port,
                spans=lambda: (
                    tracer.spans
                    if isinstance(tracer, RecordingTracer)
                    else []
                ),
                summary=lambda: _cluster_summary(
                    transport=config.transport,
                    expected_windows=len(windows),
                    shards=shards,
                    tracer=tracer,
                    dialed=dialed,
                ),
                fleet=fleet_summary,
            )
            await http_server.start()
            if telemetry.announce is not None:
                telemetry.announce(http_server.port)

        # -- root shards ---------------------------------------------------
        for index, node_id in enumerate(shard_ids):
            shard = RootServer(
                DemaRootNode(
                    node_id,
                    local_ids=initial_ids,
                    queries=(config.query,),
                    ops_per_second=LIVE_OPS_PER_SECOND,
                    reliability=reliability,
                    degrade_after_retries=tolerance is not None,
                ),
                LiveFabric(epoch),
                expected_windows=len(shard_windows[index]),
                downstream=relay_of,
                tracer=tracer,
                tolerance=tolerance,
                failures=failures,
                wire_tracing=wire_tracing,
                echo_heartbeats=(
                    telemetry.heartbeat_rtt if telemetry is not None else False
                ),
                query_plane=query_plane,
                on_telemetry=(
                    collector.on_message if collector is not None else None
                ),
                uplink=uplink_for(node_id),
            )
            await network.listen(node_id, shard.serve)
            shard.start_monitor()
            shards.append(shard)

        #: The failover plane exists when there is a successor to fail
        #: onto and a heartbeat cadence to detect with.
        if config.n_shards > 1 and tolerance is not None:

            def on_takeover(
                dead: int, successor: int, map_epoch: int, adopted: int
            ) -> None:
                if collector is not None:
                    collector.record_failover(
                        dead, successor, map_epoch, loop.time() - epoch
                    )
                if recorder is not None:
                    # Dump the in-flight span ring at the moment of
                    # takeover: the post-mortem of the dead shard, captured
                    # while the evidence is fresh (same contract as a
                    # latch trip).
                    recorder.dump(
                        f"shard {dead} takeover by {successor} "
                        f"(epoch {map_epoch}, {adopted} windows adopted)"
                    )

            failover = hosts.failover = FailoverController(
                shards,
                shard_windows,
                heartbeat_interval_s=tolerance.heartbeat_interval_s,
                tracer=tracer,
                failures=failures,
                on_takeover=on_takeover,
            )
            failover.start()

        # -- relay tier ----------------------------------------------------
        for group_index in range(len(groups)):
            relay = RelayServer(
                group_index,
                window_length_ms=length,
                n_shards=config.n_shards,
                children=tuple(
                    local_id
                    for local_id in groups[group_index]
                    if local_id in initial_ids
                ),
                flush_after_s=config.relay_flush_s,
                tracer=tracer,
                failures=failures,
                on_shard_down=(
                    failover.report_link_down if failover is not None else None
                ),
                uplink=uplink_for(relay_node_id(group_index)),
                uplink_interval_s=uplink_interval,
            )
            await network.listen(relay.node_id, relay.serve)
            uplinks: dict[int, MessageStream] = {}
            for index, node_id in enumerate(shard_ids):
                uplinks[index] = await network.dial(node_id)
                track("relay_root", relay.node_id, node_id, uplinks[index])
            await relay.connect_shards(uplinks)
            relays.append(relay)

        # -- the fault plan is armed before any replay task exists: an
        # unpaced replay can burst through the whole run between two
        # ticks, and a shard kill due at time zero must not miss it.
        if controller is not None:
            side_tasks.append(failures.spawn(_drive_faults(
                controller, config, hosts, replays_by_local, driver_links,
                epoch, tracer,
            )))

        # -- locals, each replaying as soon as it is wired (a relay waits
        # for its founding children by id, connected yet or not).
        for local_id in initial_ids:
            await wire_local(local_id)
            start_replays(local_id)

        if disturb is not None:
            side_tasks.append(failures.spawn(disturb(hosts)))
        driver_task: asyncio.Task | None = None
        if driver is not None:

            async def dial_client(client_id: int) -> MessageStream:
                link: MessageStream = await network.dial(shard_ids[0])
                if controller is not None:
                    link = ChaosStream(link)  # what ``driver_drop`` severs
                    driver_links.append(link)
                track("driver_root", client_id, shard_ids[0], link)
                return link

            plane = query_plane
            context = QueryDriverContext(
                grid_start=grid_start,
                grid_end=grid_end,
                config=config,
                dial=dial_client,
                start_replay=replay_gate.set,
                plane_results=lambda: plane.results_served,
            )
            async def run_driver() -> None:
                try:
                    result = await driver(context)
                    if isinstance(result, dict):
                        driver_result.update(result)
                finally:
                    replay_gate.set()  # a dead driver must not hang replays

            driver_task = failures.spawn(run_driver())
            side_tasks.append(driver_task)

        coordinator = asyncio.ensure_future(coordinate_membership())
        side_tasks.append(coordinator)

        async def main() -> None:
            await coordinator
            results = await asyncio.gather(*replays, return_exceptions=True)
            for result in results:
                if isinstance(result, asyncio.CancelledError):
                    continue  # a never-restarting crash cancels its feeds
                if isinstance(result, BaseException):
                    raise result
            # A takeover re-arms the successor's latch before it settles
            # the dead shard's, so "every shard done" has to hold at one
            # instant, not once per shard in turn.
            while not all(shard.done.is_set() for shard in shards):
                for shard in shards:
                    await shard.done.wait()
            if driver_task is not None:
                await driver_task

        main_task = asyncio.ensure_future(main())
        failure_task = asyncio.ensure_future(failures.event.wait())
        side_tasks += [main_task, failure_task]
        done, _ = await asyncio.wait(
            {main_task, failure_task},
            timeout=config.timeout_s,
            return_when=asyncio.FIRST_COMPLETED,
        )
        if failure_task in done and failures.error is not None:
            # A background task died; without the latch these used to
            # vanish silently and the run would hang until the deadline.
            raise TransportError(
                f"live cluster task failed: {failures.error!r}"
            ) from failures.error
        if main_task not in done:
            finished = sum(len(shard.node.outcomes) for shard in shards)
            raise TransportError(
                f"live run did not complete {len(windows)} windows "
                f"within {config.timeout_s}s ({finished} finished)"
            )
        main_task.result()  # propagate replay errors, if any
    finally:
        await failures.reap([*side_tasks, *replays])
        if failover is not None:
            await failover.close()
        for shard in shards:
            await shard.stop_monitor()
        for local in locals_by_id.values():
            await local.shutdown()
        for relay in relays:
            await relay.close()
        for _, _, _, stream in dialed:
            with contextlib.suppress(TransportError):
                await stream.close()
        await network.close()
        if http_server is not None:
            await http_server.stop()
        if sampler is not None:
            await sampler.stop()

    # -- report ------------------------------------------------------------
    wall_seconds = loop.time() - epoch
    #: Keyed by window: after a failover the dead shard's pre-crash
    #: answers and the successor's adopted share partition the windows,
    #: but a race on the very takeover boundary could answer one window
    #: on both sides (identically) — the report keeps one.
    outcome_index: dict[Window, WindowOutcome] = {}
    seal_to_result = LatencyStats()
    for shard in shards:
        for outcome in shard.node.outcomes:
            outcome_index.setdefault(outcome.window, outcome)
            finished = shard.result_walls.get(outcome.window)
            if finished is not None:
                seal_to_result.add(
                    max(0.0, finished - seal_wall(outcome.window))
                )
    outcomes = sorted(
        outcome_index.values(), key=lambda outcome: outcome.window
    )

    bytes_by_layer: dict[str, int] = {}
    messages_by_layer: dict[str, int] = {}
    root_ingress = 0
    for layer, src, dst, stream in dialed:
        stats = stream.stats
        bytes_by_layer[layer] = (
            bytes_by_layer.get(layer, 0)
            + stats.bytes_sent
            + stats.bytes_received
        )
        messages_by_layer[layer] = (
            messages_by_layer.get(layer, 0)
            + stats.messages_sent
            + stats.messages_received
        )
        if layer in ("local_root", "relay_root"):
            root_ingress += stats.bytes_sent
        if tracer.enabled:
            tracer.record_link(
                src, dst,
                bytes=stats.bytes_sent, messages=stats.messages_sent,
            )
            tracer.record_link(
                dst, src,
                bytes=stats.bytes_received, messages=stats.messages_received,
            )

    degraded = sum(shard.node.degraded_windows for shard in shards)
    dropped_sends = sum(shard.dropped_sends for shard in shards) + sum(
        local.dropped_sends for local in locals_by_id.values()
    )
    if tracer.enabled and tolerance is not None:
        tracer.registry.gauge(
            "degraded_windows",
            "Windows answered from a strict subset of the locals.",
        ).set(float(degraded))
        tracer.registry.gauge(
            "dropped_sends",
            "Messages dropped at severed or unroutable links.",
        ).set(float(dropped_sends))

    telemetry_report: dict = {}
    if collector is not None:
        # Final pump: the in-band cadence may not have fired on a fast
        # run, so refresh and drain every uplink once more — cumulative
        # digests with latest-sequence-wins make this idempotent.
        for host in (*locals_by_id.values(), *relays):
            host.refresh_uplink_stats()
            for frame in host.uplink.build(CONTROL_WINDOW):
                collector.on_message(frame)
        traced_live = 0
        if isinstance(tracer, RecordingTracer):
            traced_live = sum(
                1 for span in tracer.spans if span.name.startswith("live_")
            )
        telemetry_report = {
            "http_port": (
                http_server.port if http_server is not None else None
            ),
            "sampler_samples": sampler.samples if sampler is not None else 0,
            "traced_live_spans": traced_live,
            "flight_recorder": (
                str(recorder.path) if recorder is not None else None
            ),
            "flight_recorder_dumped": (
                recorder.dumped if recorder is not None else False
            ),
            "fleet": fleet_summary(),
        }

    return ClusterReport(
        outcomes=outcomes,
        windows=len(windows),
        events_sent=sum(server.events_sent for server in stream_servers),
        wall_seconds=wall_seconds,
        seal_to_result=seal_to_result,
        bytes_by_layer=bytes_by_layer,
        messages_by_layer=messages_by_layer,
        transport=config.transport,
        n_shards=config.n_shards,
        relay_fanin=config.relay_fanin,
        root_ingress_bytes=root_ingress,
        reconnects=sum(local.reconnects for local in locals_by_id.values()),
        heartbeat_misses=sum(shard.heartbeat_misses for shard in shards),
        degraded_windows=degraded,
        locals_declared_dead=sum(
            shard.locals_declared_dead for shard in shards
        ),
        dropped_sends=dropped_sends,
        windows_lost=max(0, len(windows) - len(outcomes)),
        fault_events=list(controller.applied) if controller else [],
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
            sum(local.fenced_frames for local in locals_by_id.values())
            + sum(relay.fenced_frames for relay in relays)
        ),
        telemetry=telemetry_report,
        queries=driver_result,
    )


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
