"""Mesh cluster driver: shards, relays and elastic membership as one run.

:func:`run_mesh_cluster` deploys R root shards behind the deterministic
window→shard routing function, optionally a relay tier of fan-in F, and
``n_locals`` locals fed by gated stream replays.  Membership events are
driven at grid boundaries by a coordinator coroutine: the replays pause
at each boundary, the coordinator applies the joins/leaves on every
shard, and only then do post-boundary events flow — so a join serves its
first full window correctly and a leave can never hang a window, by
construction rather than by timeout.

Without membership events and with a fixed γ, a mesh run's per-window
quantile values are **bit-identical** to the single-root
:class:`~repro.core.engine.DemaEngine` on the same workload: shards run
the unmodified operators on disjoint window subsets, and relays combine
frames without touching their contents.  :func:`mesh_oracle` computes
that truth (membership truncations included) and
:func:`classify_outcomes` grades a live mesh run against it with the
chaos suite's recovered/degraded/lost taxonomy.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.engine import DemaEngine
from repro.core.local_node import DemaLocalNode
from repro.core.root_node import DemaRootNode, WindowOutcome
from repro.errors import ConfigurationError, TransportError
from repro.mesh.config import MeshConfig
from repro.mesh.failover import FailoverController
from repro.mesh.relay import RelayServer
from repro.mesh.routing import relay_node_id, shard_node_id, shard_of
from repro.mesh.servers import MeshLocalServer, MeshRootServer
from repro.network.metrics import LatencyStats
from repro.network.topology import TopologyConfig, relay_groups
from repro.obs.fleet import FleetCollector, TelemetryUplink
from repro.obs.live.http import TelemetryServer
from repro.obs.live.recorder import FlightRecorder
from repro.obs.live.sampler import RuntimeSampler
from repro.obs.tracer import NOOP_TRACER, RecordingTracer, Tracer
from repro.runtime.cluster import _NO_EVENTS, _as_columns, _grid
from repro.runtime.servers import (
    LIVE_OPS_PER_SECOND,
    LiveFabric,
    StreamServer,
)
from repro.runtime.transport import (
    FailureLatch,
    MemoryNetwork,
    MessageStream,
    TcpNetwork,
)
from repro.streaming.events import Event
from repro.streaming.windows import Window

__all__ = [
    "MeshChaosContext",
    "MeshRunReport",
    "run_mesh_cluster",
    "run_mesh",
    "mesh_oracle",
    "classify_outcomes",
]

#: Stream-server ids start here: above every local, shard and relay id.
_STREAM_ID_BASE = 1 << 22

#: Coordinator poll interval while waiting on shard membership epochs.
_EPOCH_POLL_S = 0.002

#: Placeholder window on telemetry frames built by the cluster driver.
_TELEMETRY_WINDOW = Window(0, 1)


@dataclass
class MeshChaosContext:
    """Live handles a ``disturb`` coroutine gets to inject faults with.

    The hook runs alongside the replays; crash a local with
    :meth:`~repro.mesh.servers.MeshLocalServer.crash_mesh` or kill a
    whole relay with :meth:`~repro.mesh.relay.RelayServer.close` and the
    shards' failure detectors degrade the affected windows — the run
    still completes (the "degrade, never hang" guarantee under abrupt
    death rather than graceful leave).
    """

    locals_by_id: "dict[int, MeshLocalServer]"
    relays: "list[RelayServer]"
    shards: "list[MeshRootServer]"
    #: The failover plane; present when the run has shards and a
    #: tolerance config (detection needs the heartbeat cadence).
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
class MeshRunReport:
    """Everything a caller needs from one mesh run."""

    outcomes: list[WindowOutcome]
    windows: int
    events_sent: int
    wall_seconds: float
    #: Bytes/messages per layer, both directions: ``stream_local``,
    #: ``local_root`` (flat), ``local_relay`` + ``relay_root`` (relayed).
    bytes_by_layer: dict[str, int]
    messages_by_layer: dict[str, int]
    #: Bytes that actually entered a root shard (the toward-shard
    #: direction of the ``local_root`` and ``relay_root`` links) — the
    #: quantity the relay tier exists to shrink.
    root_ingress_bytes: int
    transport: str
    n_shards: int
    relay_fanin: int
    #: Watermark seal (last local) → shard outcome, per completed window.
    seal_to_result: LatencyStats
    #: Final membership epoch per shard index (all equal on a clean run).
    membership_epochs: dict[int, int] = field(default_factory=dict)
    #: Final member list as shard 0 sees it.
    members: tuple[int, ...] = ()
    degraded_windows: int = 0
    dropped_sends: int = 0
    heartbeat_misses: int = 0
    locals_declared_dead: int = 0
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
    #: Fleet telemetry report (empty dict when telemetry is off): the
    #: final ``/fleet`` document plus recorder/sampler bookkeeping.
    telemetry: dict = field(default_factory=dict)

    @property
    def values(self) -> "list[float | None]":
        """Per-window quantile values in window order."""
        return [
            outcome.value
            for outcome in sorted(self.outcomes, key=lambda o: o.window)
        ]

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


def _membership_ranges(
    config: MeshConfig, grid_start: int, grid_end: int
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


def mesh_oracle(
    streams: Mapping[int, Sequence[Event]],
    config: MeshConfig,
) -> "dict[Window, float | None]":
    """Ground truth: the single-root engine on the truncated workload.

    Each local's stream is truncated to its eligibility range, which is
    exactly the data the mesh serves — a graceful leave means "windows
    past the boundary see none of my events", and a join means "windows
    before the boundary see none of mine".  The engine's empty-synopsis
    handling makes an ineligible local indistinguishable from an absent
    one, so one engine run covers every membership schedule.
    """
    length = config.query.window_length_ms
    grid_start, grid_end = _grid(_as_columns(streams), length)
    ranges = _membership_ranges(config, grid_start, grid_end)
    n_nodes = max(ranges)
    truncated = {
        local_id: [
            event
            for event in streams.get(local_id, ())
            if ranges[local_id][0] <= event.timestamp < ranges[local_id][1]
        ]
        for local_id in range(1, n_nodes + 1)
    }
    engine = DemaEngine(
        config.query,
        TopologyConfig(n_local_nodes=n_nodes),
        batch_size=config.batch_size,
    )
    report = engine.run(truncated)
    return {
        outcome.window: outcome.value for outcome in report.outcomes
    }


def classify_outcomes(
    truth: "Mapping[Window, float | None]",
    outcomes: "Sequence[WindowOutcome]",
) -> "dict[str, int]":
    """Grade mesh outcomes with the chaos suite's taxonomy.

    ``recovered``: exact truth at completeness 1.0 (bit-identical);
    ``degraded``: answered from a strict subset of the eligible locals;
    ``lost``: no answer (or an empty answer where truth has a value);
    ``mismatch``: a full-completeness answer that differs from truth —
    always a bug, and exactly what the bit-identity tests pin to zero.
    """
    by_window = {outcome.window: outcome for outcome in outcomes}
    classes = {"recovered": 0, "degraded": 0, "lost": 0, "mismatch": 0}
    for window in sorted(truth):
        expected = truth[window]
        outcome = by_window.get(window)
        if outcome is None:
            classes["lost"] += 1
        elif outcome.completeness < 1.0:
            classes["degraded"] += 1
        elif outcome.value is None:
            if expected is None:
                classes["recovered"] += 1
            else:
                classes["lost"] += 1
        elif outcome.value == expected:
            classes["recovered"] += 1
        else:
            classes["mismatch"] += 1
    return classes


async def run_mesh_cluster(
    config: MeshConfig,
    streams: Mapping[int, Sequence[Event]],
    *,
    tracer: Tracer = NOOP_TRACER,
    disturb=None,
) -> MeshRunReport:
    """Run the full mesh topology over ``streams`` and collect the report.

    Args:
        config: Shards, relays, membership schedule, transport.
        streams: Per-local event streams in timestamp order, keyed by
            local id, as :class:`~repro.streaming.columns.EventColumns`
            batches or sequences of events (converted once, here) —
            including runtime joiners (their pre-join events are dropped,
            as are a leaver's post-leave events).
        tracer: Observability hooks; membership changes and relay
            combines are recorded as spans, current membership as the
            ``mesh_members`` gauge.
        disturb: Optional ``async (MeshChaosContext) -> None`` fault
            hook, started once the cluster is live and cancelled at
            teardown.  Use with a :attr:`MeshConfig.tolerance` so the
            failure detectors can degrade around what it breaks.
    """
    length = config.query.window_length_ms
    streams = _as_columns(streams)
    grid_start, grid_end = _grid(streams, length)
    ranges = _membership_ranges(config, grid_start, grid_end)
    unknown = set(streams) - set(ranges)
    if unknown:
        raise ConfigurationError(
            f"streams reference unknown local nodes {sorted(unknown)}"
        )
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

    initial_ids = list(range(1, config.n_locals + 1))
    joiner_ids = sorted(
        event.local_id
        for event in config.membership
        if event.kind == "join"
    )
    all_local_ids = sorted({*initial_ids, *joiner_ids})

    #: Relay assignment covers every local that will ever exist, so a
    #: joiner's relay is known (and wired) before the join happens.
    groups = relay_groups(all_local_ids, config.relay_fanin)
    relay_of = {
        local_id: group_index
        for group_index, group in enumerate(groups)
        for local_id in group
    }

    tolerance = config.tolerance
    reliability = tolerance.reliability if tolerance is not None else None

    # -- fleet telemetry plane (off by default; bit-identical when off) --
    telemetry = config.telemetry
    if telemetry is not None and not tracer.enabled:
        # The plane needs somewhere to put spans and metrics; a caller
        # who asked for telemetry but passed no tracer gets a private one.
        tracer = RecordingTracer()
    wire_tracing = telemetry is not None
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
    http_server: TelemetryServer | None = None

    failures = FailureLatch(
        on_trip=recorder.on_failure if recorder is not None else None
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
        dialed.append((layer, src, dst, stream))
        if sampler is not None:
            sampler.register_stream(stream, src=src, dst=dst)

    gates = {
        at_ms: asyncio.Event()
        for at_ms in {event.at_ms for event in config.membership}
    }

    # ------------------------------------------------------------------
    # root shards
    shards: list[MeshRootServer] = []
    downstream = (
        {
            local_id: relay_node_id(group_index)
            for local_id, group_index in relay_of.items()
        }
        if groups
        else None
    )
    for index in range(config.n_shards):
        shard = MeshRootServer(
            DemaRootNode(
                shard_node_id(index),
                local_ids=initial_ids,
                query=config.query,
                ops_per_second=LIVE_OPS_PER_SECOND,
                reliability=reliability,
                degrade_after_retries=tolerance is not None,
            ),
            LiveFabric(epoch),
            expected_windows=len(shard_windows[index]),
            downstream=downstream,
            tracer=tracer,
            tolerance=tolerance,
            failures=failures,
            wire_tracing=wire_tracing,
            on_telemetry=(
                collector.on_message if collector is not None else None
            ),
            uplink=(
                TelemetryUplink(shard_node_id(index))
                if telemetry is not None
                else None
            ),
        )
        await network.listen(shard_node_id(index), shard.serve)
        shard.start_monitor()
        shards.append(shard)

    #: The failover plane exists when there is a successor to fail onto
    #: and a heartbeat cadence to detect with.
    failover: FailoverController | None = None
    if config.n_shards > 1 and tolerance is not None:

        def on_takeover(
            dead: int, successor: int, map_epoch: int, adopted: int
        ) -> None:
            if collector is not None:
                collector.record_failover(
                    dead, successor, map_epoch, loop.time() - epoch
                )
            if recorder is not None:
                # Dump the in-flight span ring at the moment of takeover:
                # the post-mortem of the dead shard, captured while the
                # evidence is fresh (same contract as a latch trip).
                recorder.dump(
                    f"shard {dead} takeover by {successor} "
                    f"(epoch {map_epoch}, {adopted} windows adopted)"
                )

        failover = FailoverController(
            shards,
            shard_windows,
            heartbeat_interval_s=tolerance.heartbeat_interval_s,
            tracer=tracer,
            failures=failures,
            on_takeover=(
                on_takeover
                if collector is not None or recorder is not None
                else None
            ),
        )
        failover.start()

    # ------------------------------------------------------------------
    # relay tier
    relays: list[RelayServer] = []
    for group_index in range(len(groups)):
        relay = RelayServer(
            group_index,
            window_length_ms=length,
            n_shards=config.n_shards,
            flush_after_s=config.relay_flush_s,
            tracer=tracer,
            failures=failures,
            on_shard_down=(
                failover.report_link_down if failover is not None else None
            ),
            uplink=(
                TelemetryUplink(relay_node_id(group_index))
                if telemetry is not None
                else None
            ),
            uplink_interval_s=uplink_interval,
        )
        await network.listen(relay.node_id, relay.serve)
        uplinks: dict[int, MessageStream] = {}
        for index in range(config.n_shards):
            stream = await network.dial(shard_node_id(index))
            track("relay_root", relay.node_id, shard_node_id(index), stream)
            uplinks[index] = stream
        await relay.connect_shards(uplinks)
        relays.append(relay)

    # ------------------------------------------------------------------
    # locals and their gated stream replays
    locals_by_id: dict[int, MeshLocalServer] = {}
    stream_servers: list[StreamServer] = []
    replays: list[asyncio.Task] = []
    next_stream_id = [_STREAM_ID_BASE]

    async def start_local(
        local_id: int, *, join_from: "int | None" = None
    ) -> None:
        lo, hi = ranges[local_id]
        local = MeshLocalServer(
            DemaLocalNode(
                local_id,
                root_id=0,
                query=config.query,
                ops_per_second=LIVE_OPS_PER_SECOND,
                reliability=reliability,
                # Sharded roots release windows independently, so a
                # release must prune only its own window — the others
                # are the failover replay source (see DemaLocalNode).
                cumulative_releases=config.n_shards <= 1,
            ),
            LiveFabric(epoch),
            n_shards=config.n_shards,
            on_upstream_down=(
                failover.report_link_down if failover is not None else None
            ),
            expected_streams=config.streams_per_local,
            grid_start=lo,
            grid_end=hi,
            window_length_ms=length,
            tracer=tracer,
            tolerance=tolerance,
            failures=failures,
            wire_tracing=wire_tracing,
            sample_rate=(
                telemetry.sample_rate if telemetry is not None else 1.0
            ),
            uplink=(
                TelemetryUplink(local_id)
                if telemetry is not None
                else None
            ),
            uplink_interval_s=uplink_interval,
        )
        locals_by_id[local_id] = local
        await network.listen(local_id, local.serve)
        uplinks: dict[int, MessageStream] = {}
        if groups:
            relay_peer = relay_node_id(relay_of[local_id])
            stream = await network.dial(relay_peer)
            track("local_relay", local_id, relay_peer, stream)
            uplinks[relay_peer] = stream
        else:
            for index in range(config.n_shards):
                stream = await network.dial(shard_node_id(index))
                track(
                    "local_root", local_id, shard_node_id(index), stream
                )
                uplinks[shard_node_id(index)] = stream
        await local.connect_upstreams(uplinks, join_from=join_from)

        share = streams.get(local_id, _NO_EVENTS)
        timestamps = share.timestamps
        share = share[(lo <= timestamps) & (timestamps < hi)]
        for k in range(config.streams_per_local):
            server = StreamServer(
                next_stream_id[0],
                events=share[k::config.streams_per_local],
                batch_size=config.batch_size,
                grid_start=lo,
                grid_end=hi,
                window_length_ms=length,
                gates=gates,
                time_scale=config.time_scale,
            )
            next_stream_id[0] += 1
            stream_servers.append(server)

            async def replay(srv: StreamServer, dst: int) -> None:
                pipe = await network.dial(dst)
                track("stream_local", srv.stream_id, dst, pipe)
                await srv.replay(pipe)

            replays.append(
                asyncio.ensure_future(replay(server, local_id))
            )

    for local_id in initial_ids:
        await start_local(local_id)

    # ------------------------------------------------------------------
    # membership coordinator: applies each boundary's joins/leaves on
    # every shard before opening that boundary's replay gate.
    async def coordinate_membership() -> None:
        applied = 0
        for at_ms in sorted(gates):
            here = [
                event for event in config.membership
                if event.at_ms == at_ms
            ]
            for event in here:
                if event.kind == "leave":
                    await locals_by_id[event.local_id].announce_leave(at_ms)
                else:
                    await start_local(event.local_id, join_from=at_ms)
                applied += 1
            while any(
                shard.node.membership_epoch < applied
                for shard in shards
                if not shard.crashed
            ):
                await asyncio.sleep(_EPOCH_POLL_S)
            gates[at_ms].set()

    async def run_disturb() -> None:
        try:
            await disturb(
                MeshChaosContext(
                    locals_by_id=locals_by_id,
                    relays=relays,
                    shards=shards,
                    failover=failover,
                )
            )
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            failures.record(exc)

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
        for index, shard in enumerate(shards):
            if shard.uplink is None:
                continue
            for outcome in shard.node.outcomes:
                window = outcome.window
                if window in observed_results:
                    continue
                finished = shard.result_walls.get(window)
                if finished is None:
                    continue
                observed_results.add(window)
                sealed = max(
                    (
                        local.seal_walls.get(window, 0.0)
                        for local in locals_by_id.values()
                    ),
                    default=0.0,
                )
                shard.uplink.observe(
                    "seal_to_result_s", max(0.0, finished - sealed)
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
            for frame in shard.uplink.build(_TELEMETRY_WINDOW):
                collector.on_message(frame)

    def fleet_summary() -> dict:
        """The ``/fleet`` document: merged digests plus mesh health."""
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
                "node_id": shard_node_id(index),
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
                "index": group_index,
                "node_id": relay_node_id(group_index),
                "frames_combined": relay.frames_combined,
                "sections_combined": relay.sections_combined,
                "singleton_forwards": relay.singleton_forwards,
                "frames_replayed": relay.frames_replayed,
                "fenced_frames": relay.fenced_frames,
            }
            for group_index, relay in enumerate(relays)
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

    coordinator: asyncio.Task | None = None
    main_task: asyncio.Task | None = None
    failure_task: asyncio.Task | None = None
    disturb_task: asyncio.Task | None = None
    try:
        # Arm chaos before any await: starting the telemetry HTTP plane
        # yields to the loop, and an unpaced replay can burst through
        # the whole run in those ticks — a disturb scheduled after it
        # would arm its tripwires against an already-finished cluster.
        if disturb is not None:
            disturb_task = asyncio.ensure_future(run_disturb())
        if sampler is not None:
            sampler.start()
        if telemetry is not None and telemetry.http_port is not None:

            def live_spans():
                if isinstance(tracer, RecordingTracer):
                    return tracer.spans
                return []

            http_server = TelemetryServer(
                tracer.registry,
                host=telemetry.http_host,
                port=telemetry.http_port,
                spans=live_spans,
                fleet=fleet_summary,
            )
            await http_server.start()
            if telemetry.announce is not None:
                telemetry.announce(http_server.port)

        coordinator = asyncio.ensure_future(coordinate_membership())

        async def main() -> None:
            assert coordinator is not None
            await coordinator
            results = await asyncio.gather(*replays, return_exceptions=True)
            for result in results:
                if isinstance(result, asyncio.CancelledError):
                    continue  # a chaos crash cancels its feeds
                if isinstance(result, BaseException):
                    raise result
            for shard in shards:
                await shard.done.wait()

        main_task = asyncio.ensure_future(main())
        failure_task = asyncio.ensure_future(failures.event.wait())
        done, _ = await asyncio.wait(
            {main_task, failure_task},
            timeout=config.timeout_s,
            return_when=asyncio.FIRST_COMPLETED,
        )
        if failure_task in done and failures.error is not None:
            raise TransportError(
                f"mesh cluster task failed: {failures.error!r}"
            ) from failures.error
        if main_task not in done:
            finished = sum(len(s.node.outcomes) for s in shards)
            raise TransportError(
                f"mesh run did not complete {len(windows)} windows within "
                f"{config.timeout_s}s ({finished} finished)"
            )
        main_task.result()
    finally:
        for task in (coordinator, main_task, failure_task, disturb_task):
            if task is not None and not task.done():
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        for task in replays:
            if not task.done():
                task.cancel()
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

    # ------------------------------------------------------------------
    # report
    wall_seconds = loop.time() - epoch
    #: Keyed by window: after a failover the dead shard's pre-crash
    #: answers and the successor's adopted share partition the windows,
    #: but a race on the very takeover boundary could answer one window
    #: on both sides (identically) — the report keeps one.
    outcome_index: dict[Window, WindowOutcome] = {}
    for shard in shards:
        for outcome in shard.node.outcomes:
            outcome_index.setdefault(outcome.window, outcome)
    outcomes = sorted(
        outcome_index.values(), key=lambda outcome: outcome.window
    )
    seal_to_result = LatencyStats()
    for shard in shards:
        for outcome in shard.node.outcomes:
            sealed = max(
                (
                    local.seal_walls.get(outcome.window, 0.0)
                    for local in locals_by_id.values()
                ),
                default=0.0,
            )
            finished = shard.result_walls.get(outcome.window)
            if finished is not None:
                seal_to_result.add(max(0.0, finished - sealed))

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

    telemetry_report: dict = {}
    if telemetry is not None and collector is not None:
        # Final pump: the in-band cadence may not have fired on a fast
        # run, so refresh and drain every uplink once more — cumulative
        # digests with latest-sequence-wins make this idempotent.
        for local in locals_by_id.values():
            if local.uplink is not None:
                local.refresh_uplink_stats()
                for frame in local.uplink.build(_TELEMETRY_WINDOW):
                    collector.on_message(frame)
        for relay in relays:
            if relay.uplink is not None:
                relay.refresh_uplink_stats()
                for frame in relay.uplink.build(_TELEMETRY_WINDOW):
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

    return MeshRunReport(
        outcomes=outcomes,
        windows=len(windows),
        events_sent=sum(server.events_sent for server in stream_servers),
        wall_seconds=wall_seconds,
        bytes_by_layer=bytes_by_layer,
        messages_by_layer=messages_by_layer,
        root_ingress_bytes=root_ingress,
        transport=config.transport,
        n_shards=config.n_shards,
        relay_fanin=config.relay_fanin,
        seal_to_result=seal_to_result,
        membership_epochs={
            index: shard.node.membership_epoch
            for index, shard in enumerate(shards)
        },
        members=shards[0].node.current_members,
        degraded_windows=sum(
            shard.node.degraded_windows for shard in shards
        ),
        dropped_sends=(
            sum(shard.dropped_sends for shard in shards)
            + sum(
                local.dropped_sends for local in locals_by_id.values()
            )
        ),
        heartbeat_misses=sum(
            shard.heartbeat_misses for shard in shards
        ),
        locals_declared_dead=sum(
            shard.locals_declared_dead for shard in shards
        ),
        relay_frames_combined=sum(
            relay.frames_combined for relay in relays
        ),
        relay_sections_combined=sum(
            relay.sections_combined for relay in relays
        ),
        shard_failovers=(
            failover.failovers if failover is not None else 0
        ),
        windows_adopted=sum(
            shard.windows_adopted for shard in shards
        ),
        relay_frames_replayed=sum(
            relay.frames_replayed for relay in relays
        ),
        fenced_frames=(
            sum(local.fenced_frames for local in locals_by_id.values())
            + sum(relay.fenced_frames for relay in relays)
        ),
        telemetry=telemetry_report,
    )


def run_mesh(
    config: MeshConfig,
    streams: Mapping[int, Sequence[Event]],
    *,
    tracer: Tracer = NOOP_TRACER,
    disturb=None,
) -> MeshRunReport:
    """Synchronous wrapper around :func:`run_mesh_cluster`."""
    return asyncio.run(
        run_mesh_cluster(config, streams, tracer=tracer, disturb=disturb)
    )
