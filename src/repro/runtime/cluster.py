"""Cluster driver: a full live Dema topology as one coroutine.

:func:`run_live_cluster` launches the three-layer deployment — one
:class:`~repro.runtime.servers.RootServer`, ``n_locals``
:class:`~repro.runtime.servers.LocalServer` hosts and
``streams_per_local`` :class:`~repro.runtime.servers.StreamServer` replay
tasks per local — over either transport, replays the given per-local-node
workload, waits for every tumbling window of the grid to produce an
outcome, and tears everything down gracefully.

The quantile values a live run produces are **bit-identical** to
:class:`~repro.core.engine.DemaEngine` on the same workload (with a fixed
γ): watermark-driven sealing guarantees every event lands in its window,
and the operators on both substrates are literally the same objects.  The
equivalence test in ``tests/runtime`` pins this.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Mapping, Sequence

from repro.core.local_node import DemaLocalNode
from repro.core.query import QuantileQuery
from repro.core.root_node import DemaRootNode, WindowOutcome
from repro.errors import ConfigurationError, TransportError
from repro.faults.chaos import ChaosController
from repro.faults.plan import FaultEvent, FaultPlan, ToleranceConfig
from repro.network.metrics import LatencyStats
from repro.obs.live.config import TelemetryConfig
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
    DEFAULT_QUEUE_FRAMES,
    FailureLatch,
    MemoryNetwork,
    MessageStream,
    TcpNetwork,
)
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event

__all__ = [
    "LiveClusterConfig",
    "LiveRunReport",
    "QueryDriverContext",
    "run_live_cluster",
    "run_live",
]

#: Root node id, matching the simulated topology's convention.
ROOT_NODE_ID = 0

#: Event timestamps are milliseconds; wall clock runs in seconds.
_MS_PER_SECOND = 1000.0

#: The share of a local no stream was given for.
_NO_EVENTS = EventColumns.from_wire(b"")


@dataclass(frozen=True, slots=True)
class LiveClusterConfig:
    """Shape and pacing of one live deployment.

    Attributes:
        n_locals: Local (edge) node count; ids ``1..n_locals``.
        streams_per_local: Replay tasks feeding each local node.
        query: The quantile query (fixed γ recommended for live runs).
        batch_size: Events per replayed batch (window splits still apply).
        transport: ``"memory"`` (deterministic, in-process) or ``"tcp"``
            (real localhost sockets).
        time_scale: Wall-clock seconds per second of event time.  ``1.0``
            replays in real time, ``0.0`` as fast as backpressure allows.
        queue_frames: Bound of each in-memory pipe direction.
        timeout_s: Overall deadline for the run; ``None`` waits forever.
        faults: Optional fault schedule injected while the run is live;
            event times scale to the wall clock by ``time_scale``.
        tolerance: Survival policy (heartbeats, reconnect backoff, the
            reliability timers).  Defaults to :class:`ToleranceConfig`
            whenever ``faults`` is given; without either, the cluster runs
            the original fail-fast path.
        telemetry: Live telemetry plane (wire-level trace context, the
            runtime sampler, the scrape endpoint, the flight recorder).
            ``None`` — the default — starts none of it and puts zero
            extra bytes on the wire; quantile results are bit-identical
            either way.
        durable_queries: Retain per-driver result logs at the root and
            replay them when a driver reconnects with a resume cursor,
            so a dropped query connection loses no results.  Only
            meaningful when a query driver is attached.
    """

    n_locals: int = 2
    streams_per_local: int = 2
    query: QuantileQuery = field(default_factory=QuantileQuery)
    batch_size: int = 512
    transport: str = "memory"
    time_scale: float = 0.0
    queue_frames: int = DEFAULT_QUEUE_FRAMES
    timeout_s: float | None = 60.0
    faults: FaultPlan | None = None
    tolerance: ToleranceConfig | None = None
    telemetry: TelemetryConfig | None = None
    durable_queries: bool = False

    def __post_init__(self) -> None:
        if self.n_locals < 1:
            raise ConfigurationError("need at least one local node")
        if self.streams_per_local < 1:
            raise ConfigurationError("need at least one stream per local")
        if self.transport not in ("memory", "tcp"):
            raise ConfigurationError(
                f"transport must be 'memory' or 'tcp', got {self.transport!r}"
            )
        if self.time_scale < 0:
            raise ConfigurationError(
                f"time_scale must be >= 0, got {self.time_scale}"
            )
        if self.faults is not None and self.time_scale <= 0:
            raise ConfigurationError(
                "fault injection needs time_scale > 0 — event-time fault "
                "schedules are meaningless at replay-as-fast-as-possible"
            )


@dataclass(frozen=True, slots=True)
class QueryDriverContext:
    """What a query-plane driver coroutine gets handed by the cluster.

    The driver runs alongside the cluster: it dials the root with the
    ``driver`` role (:meth:`dial`), registers queries before or during
    the replay, and decides when the event streams start flowing
    (:meth:`start_replay` — replays are gated until then so queries
    registered up front cover the whole grid).  Whatever dict the driver
    returns lands in :attr:`LiveRunReport.queries`.
    """

    grid_start: int
    grid_end: int
    config: "LiveClusterConfig"
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
class LiveRunReport:
    """Everything a caller needs from one live run."""

    outcomes: list[WindowOutcome]
    windows: int
    events_sent: int
    wall_seconds: float
    #: Watermark seal (last local) → root outcome, per completed window.
    seal_to_result: LatencyStats
    #: Bytes/messages on the wire, summed over every dialed stream
    #: (both directions), keyed by layer.
    bytes_by_layer: dict[str, int]
    messages_by_layer: dict[str, int]
    transport: str
    #: Fault-tolerance accounting (all zero on an undisturbed run).
    reconnects: int = 0
    heartbeat_misses: int = 0
    degraded_windows: int = 0
    locals_declared_dead: int = 0
    dropped_sends: int = 0
    windows_lost: int = 0
    #: Canonical descriptions of the fault events actually applied.
    fault_events: list[str] = field(default_factory=list)
    #: Telemetry-plane facts (empty when the plane was off): the bound
    #: HTTP port, sampler tick count, traced live spans, recorder path.
    telemetry: dict = field(default_factory=dict)
    #: Whatever dict the query-plane driver returned (empty without one).
    queries: dict = field(default_factory=dict)

    @property
    def values(self) -> list[float | None]:
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


async def _drive_faults(
    controller: ChaosController,
    config: LiveClusterConfig,
    locals_by_id: Mapping[int, LocalServer],
    replays_by_local: Mapping[int, "list[asyncio.Task]"],
    epoch: float,
    root: RootServer,
    failures: FailureLatch,
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
    try:
        for event in plan.schedule():
            deadline = epoch + event.at_s * config.time_scale
            delay = deadline - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            controller.record(event)
            now = root.fabric.now
            if tracer.enabled:
                tracer.record(
                    f"fault_{event.kind}",
                    ROOT_NODE_ID if event.node is None else event.node,
                    now, now,
                )
            await _apply_fault(
                event, controller, locals_by_id, replays_by_local,
                never_restart,
            )
    except asyncio.CancelledError:
        raise
    except BaseException as exc:
        failures.record(exc)


async def _apply_fault(
    event: FaultEvent,
    controller: ChaosController,
    locals_by_id: Mapping[int, LocalServer],
    replays_by_local: Mapping[int, "list[asyncio.Task]"],
    never_restart: "set[int]",
) -> None:
    if event.kind == "crash":
        controller.sever(event.node)
        await locals_by_id[event.node].crash()
        if event.node in never_restart:
            # Nothing will ever drain this local's pipes again; cancel its
            # feeds so the run can finish degraded instead of deadlocking
            # on a full queue.
            for task in replays_by_local.get(event.node, ()):
                task.cancel()
    elif event.kind == "restart":
        await locals_by_id[event.node].restart()
    elif event.kind == "drop_link":
        controller.sever(event.node)
    elif event.kind == "partition_start":
        controller.start_partition()
    elif event.kind == "partition_heal":
        controller.heal_partition()


def _cluster_summary(
    *,
    transport: str,
    expected_windows: int,
    root: RootServer,
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
        "windows_done": len(root.node.outcomes),
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


def _as_columns(
    streams: Mapping[int, Sequence[Event]],
) -> dict[int, EventColumns]:
    """Each local's share as one columnar batch — the clusters' entry line.

    Columnar shares pass through and a sequence of events is converted
    once, so nothing below this call asks which form it was handed.
    """
    return {
        local_id: (
            share
            if isinstance(share, EventColumns)
            else EventColumns.from_events(share)
        )
        for local_id, share in streams.items()
    }


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


async def run_live_cluster(
    config: LiveClusterConfig,
    streams: Mapping[int, Sequence[Event]],
    *,
    tracer: Tracer = NOOP_TRACER,
    driver: Callable[
        [QueryDriverContext], Awaitable[dict | None]
    ] | None = None,
) -> LiveRunReport:
    """Run the full live topology over ``streams`` and collect the report.

    Args:
        config: Deployment shape, transport and pacing.
        streams: Per-**local-node** event streams (keys ``1..n_locals``),
            each in timestamp order, as :class:`EventColumns` batches or
            sequences of events (converted once, here); a local's stream
            is split round-robin over its stream servers exactly as the
            simulated engine does.
        tracer: Observability hooks; live message deliveries are recorded
            as protocol traces.
        driver: Optional query-plane driver coroutine.  When given, the
            cluster attaches a :class:`~repro.queries.root.RootQueryPlane`
            to the root and a :class:`~repro.queries.local.LocalQueryPlane`
            to every local, gates the replays on the driver's
            ``start_replay()`` call, and runs the driver alongside the
            cluster.

    Returns:
        The run report with per-window outcomes and wall-clock metrics.
    """
    local_ids = list(range(1, config.n_locals + 1))
    unknown = set(streams) - set(local_ids)
    if unknown:
        raise ConfigurationError(
            f"streams reference unknown local nodes {sorted(unknown)}"
        )
    length = config.query.window_length_ms
    if config.query.is_sliding:
        raise ConfigurationError("the live runtime seals tumbling grids only")
    streams = _as_columns(streams)
    grid_start, grid_end = _grid(streams, length)
    expected_windows = (grid_end - grid_start) // length

    tolerance = config.tolerance
    if tolerance is None and config.faults is not None:
        tolerance = ToleranceConfig()
    reliability = tolerance.reliability if tolerance is not None else None

    telemetry = config.telemetry
    if telemetry is not None and not tracer.enabled:
        # The plane needs somewhere to put spans and metrics; a caller who
        # asked for telemetry but passed no tracer gets a private one.
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
    failures = FailureLatch(
        on_trip=recorder.on_failure if recorder is not None else None
    )
    sampler: RuntimeSampler | None = None
    if telemetry is not None and telemetry.sampler_interval_s > 0:
        sampler = RuntimeSampler(
            tracer.registry, interval_s=telemetry.sampler_interval_s
        )
    http_server: TelemetryServer | None = None

    controller = (
        ChaosController(config.faults) if config.faults is not None else None
    )

    query_plane = None
    local_planes: dict = {}
    replay_gate: asyncio.Event | None = None
    if driver is not None:
        # Imported lazily: the queries package's runner module imports
        # this module back, so a top-level import would be circular.
        from repro.queries.local import LocalQueryPlane
        from repro.queries.root import RootQueryPlane

        query_plane = RootQueryPlane(
            tuple(local_ids), tracer=tracer, durable=config.durable_queries
        )
        local_planes = {
            local_id: LocalQueryPlane(local_id, grid_start=grid_start)
            for local_id in local_ids
        }
        replay_gate = asyncio.Event()

    network = (
        TcpNetwork(failures=failures)
        if config.transport == "tcp"
        else MemoryNetwork(max_frames=config.queue_frames, failures=failures)
    )
    loop = asyncio.get_event_loop()
    epoch = loop.time()
    dialed: list[tuple[str, int, int, MessageStream]] = []
    locals_: list[LocalServer] = []
    locals_by_id: dict[int, LocalServer] = {}

    def track(layer: str, src: int, dst: int, stream: MessageStream) -> None:
        """Remember a dialed stream for accounting and the sampler."""
        dialed.append((layer, src, dst, stream))
        if sampler is not None:
            sampler.register_stream(stream, src=src, dst=dst)

    root = RootServer(
        DemaRootNode(
            ROOT_NODE_ID,
            local_ids=local_ids,
            query=config.query,
            ops_per_second=LIVE_OPS_PER_SECOND,
            reliability=reliability,
            degrade_after_retries=tolerance is not None,
        ),
        LiveFabric(epoch),
        expected_windows=expected_windows,
        tracer=tracer,
        tolerance=tolerance,
        failures=failures,
        wire_tracing=wire_tracing,
        echo_heartbeats=(
            telemetry.heartbeat_rtt if telemetry is not None else False
        ),
        query_plane=query_plane,
    )
    if query_plane is not None:
        # Plane spans share the cluster's fabric clock.
        query_plane.clock = lambda: root.fabric.now
    await network.listen(ROOT_NODE_ID, root.serve)
    root.start_monitor()

    replays: list[asyncio.Task] = []
    replays_by_local: dict[int, list[asyncio.Task]] = {}
    servers: list[StreamServer] = []
    chaos_task: asyncio.Task | None = None
    main_task: asyncio.Task | None = None
    failure_task: asyncio.Task | None = None
    driver_task: asyncio.Task | None = None
    driver_result: dict = {}
    try:
        if sampler is not None:
            sampler.start()
        if telemetry is not None and telemetry.http_port is not None:

            def live_spans():
                if isinstance(tracer, RecordingTracer):
                    return tracer.spans
                return []

            def summary() -> dict:
                return _cluster_summary(
                    transport=config.transport,
                    expected_windows=expected_windows,
                    root=root,
                    tracer=tracer,
                    dialed=dialed,
                )

            http_server = TelemetryServer(
                tracer.registry,
                host=telemetry.http_host,
                port=telemetry.http_port,
                spans=live_spans,
                summary=summary,
            )
            await http_server.start()
            if telemetry.announce is not None:
                telemetry.announce(http_server.port)

        next_stream_id = config.n_locals + 1
        for local_id in local_ids:

            def make_dial(lid: int):
                async def dial_root() -> MessageStream:
                    if controller is not None and not controller.dial_allowed(
                        lid
                    ):
                        raise TransportError(
                            f"chaos: local {lid} is partitioned from the root"
                        )
                    stream: MessageStream = await network.dial(ROOT_NODE_ID)
                    if controller is not None:
                        stream = controller.wrap(lid, stream)
                    track("local_root", lid, ROOT_NODE_ID, stream)
                    return stream

                return dial_root

            dial_root = make_dial(local_id)
            local = LocalServer(
                DemaLocalNode(
                    local_id,
                    root_id=ROOT_NODE_ID,
                    query=config.query,
                    ops_per_second=LIVE_OPS_PER_SECOND,
                    reliability=reliability,
                ),
                LiveFabric(epoch),
                expected_streams=config.streams_per_local,
                grid_start=grid_start,
                grid_end=grid_end,
                window_length_ms=length,
                tracer=tracer,
                tolerance=tolerance,
                dial_root=dial_root,
                failures=failures,
                wire_tracing=wire_tracing,
                sample_rate=(
                    telemetry.sample_rate if telemetry is not None else 1.0
                ),
                query_plane=local_planes.get(local_id),
            )
            locals_.append(local)
            locals_by_id[local_id] = local
            await network.listen(local_id, local.serve)
            await local.connect_root(await dial_root())

            share = streams.get(local_id, _NO_EVENTS)
            n_shards = config.streams_per_local
            # Strided views give exactly the round-robin assignment
            # (shard k takes events k, k+n, k+2n, …) without copying.
            for k in range(n_shards):
                server = StreamServer(
                    next_stream_id,
                    events=share[k::n_shards],
                    batch_size=config.batch_size,
                    grid_start=grid_start,
                    grid_end=grid_end,
                    window_length_ms=length,
                    time_scale=config.time_scale,
                    tracer=tracer,
                    wire_tracing=wire_tracing,
                    sample_rate=(
                        telemetry.sample_rate
                        if telemetry is not None
                        else 1.0
                    ),
                    epoch=epoch,
                )
                servers.append(server)
                next_stream_id += 1

                async def replay(srv: StreamServer, dst: int) -> None:
                    if replay_gate is not None:
                        # Queries registered before the streams flow cover
                        # the whole grid; the driver opens the gate.
                        await replay_gate.wait()
                    pipe = await network.dial(dst)
                    track("stream_local", srv.stream_id, dst, pipe)
                    await srv.replay(pipe)

                task = asyncio.ensure_future(replay(server, local_id))
                replays.append(task)
                replays_by_local.setdefault(local_id, []).append(task)

        if controller is not None:
            chaos_task = asyncio.ensure_future(
                _drive_faults(
                    controller, config, locals_by_id, replays_by_local,
                    epoch, root, failures, tracer,
                )
            )

        if driver is not None:
            assert replay_gate is not None
            gate = replay_gate

            async def dial_client(client_id: int) -> MessageStream:
                stream: MessageStream = await network.dial(ROOT_NODE_ID)
                track("driver_root", client_id, ROOT_NODE_ID, stream)
                return stream

            plane = query_plane

            context = QueryDriverContext(
                grid_start=grid_start,
                grid_end=grid_end,
                config=config,
                dial=dial_client,
                start_replay=gate.set,
                plane_results=lambda: plane.results_served,
            )

            async def run_driver() -> None:
                try:
                    result = await driver(context)
                    if isinstance(result, dict):
                        driver_result.update(result)
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:
                    failures.record(exc)
                finally:
                    gate.set()  # a dead driver must not hang the replays

            driver_task = asyncio.ensure_future(run_driver())

        async def main() -> None:
            results = await asyncio.gather(*replays, return_exceptions=True)
            for result in results:
                if isinstance(result, asyncio.CancelledError):
                    continue  # a never-restarting crash cancels its feeds
                if isinstance(result, BaseException):
                    raise result
            await root.done.wait()
            if driver_task is not None:
                await driver_task

        main_task = asyncio.ensure_future(main())
        failure_task = asyncio.ensure_future(failures.event.wait())
        done, _ = await asyncio.wait(
            {main_task, failure_task},
            timeout=config.timeout_s,
            return_when=asyncio.FIRST_COMPLETED,
        )
        if failure_task in done and failures.error is not None:
            # A background task died (satellite fix: these used to vanish
            # silently and the run would hang until the deadline).
            raise TransportError(
                f"live cluster task failed: {failures.error!r}"
            ) from failures.error
        if main_task not in done:
            raise TransportError(
                f"live run did not complete {expected_windows} windows "
                f"within {config.timeout_s}s "
                f"({len(root.node.outcomes)} finished)"
            )
        main_task.result()  # propagate replay errors, if any
    finally:
        for task in (chaos_task, main_task, failure_task, driver_task):
            if task is not None and not task.done():
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        for task in replays:
            if not task.done():
                task.cancel()
        await root.stop_monitor()
        for local in locals_:
            await local.shutdown()
        for _, _, _, stream in dialed:
            with contextlib.suppress(TransportError):
                await stream.close()
        await network.close()
        if http_server is not None:
            await http_server.stop()
        if sampler is not None:
            await sampler.stop()

    wall_seconds = loop.time() - epoch
    outcomes = root.node.outcomes
    seal_to_result = LatencyStats()
    for outcome in outcomes:
        sealed = max(
            (
                local.seal_walls.get(outcome.window, 0.0)
                for local in locals_
            ),
            default=0.0,
        )
        finished = root.result_walls.get(outcome.window)
        if finished is not None:
            seal_to_result.add(max(0.0, finished - sealed))

    bytes_by_layer: dict[str, int] = {}
    messages_by_layer: dict[str, int] = {}
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
        if tracer.enabled:
            tracer.record_link(
                src, dst,
                bytes=stats.bytes_sent, messages=stats.messages_sent,
            )
            tracer.record_link(
                dst, src,
                bytes=stats.bytes_received, messages=stats.messages_received,
            )

    reconnects = sum(local.reconnects for local in locals_)
    dropped_sends = root.dropped_sends + sum(
        local.dropped_sends for local in locals_
    )
    degraded = root.node.degraded_windows
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
    if telemetry is not None:
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
        }

    return LiveRunReport(
        outcomes=outcomes,
        windows=expected_windows,
        events_sent=sum(server.events_sent for server in servers),
        wall_seconds=wall_seconds,
        seal_to_result=seal_to_result,
        bytes_by_layer=bytes_by_layer,
        messages_by_layer=messages_by_layer,
        transport=config.transport,
        reconnects=reconnects,
        heartbeat_misses=root.heartbeat_misses,
        degraded_windows=degraded,
        locals_declared_dead=root.locals_declared_dead,
        dropped_sends=dropped_sends,
        windows_lost=max(0, expected_windows - len(outcomes)),
        fault_events=list(controller.applied) if controller else [],
        telemetry=telemetry_report,
        queries=driver_result,
    )


def run_live(
    config: LiveClusterConfig,
    streams: Mapping[int, Sequence[Event]],
    *,
    tracer: Tracer = NOOP_TRACER,
    driver: Callable[
        [QueryDriverContext], Awaitable[dict | None]
    ] | None = None,
) -> LiveRunReport:
    """Synchronous wrapper around :func:`run_live_cluster`."""
    return asyncio.run(
        run_live_cluster(config, streams, tracer=tracer, driver=driver)
    )
