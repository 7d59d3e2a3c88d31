"""Node servers: the Dema operators as live asyncio tasks.

Three hosts mirror the simulated three-layer topology:

``StreamServer``
    Replays one sensor's share of the workload into its local node —
    batches that never span a window boundary, a
    :class:`~repro.network.messages.WatermarkMessage` at the window's end
    with the last batch of each window (so the window seals as soon as its
    last frame is in), and a final watermark that seals every window.

``LocalServer``
    Wraps an **unmodified** :class:`~repro.core.local_node.DemaLocalNode`.
    Event batches go straight into the operator; watermarks are a host
    concern: the server seals each tumbling window of the agreed grid once
    the *minimum* watermark over its attached streams has passed the
    window end, which guarantees no event is ever late.

``RootServer``
    Wraps an unmodified :class:`~repro.core.root_node.DemaRootNode` and
    signals completion once every expected grid window has an outcome.
    One root owns every window; R of them are root *shards*, each owning
    the windows :func:`~repro.mesh.routing.shard_of` deals it.  Either
    way it is this one class: it accepts ``local``, ``relay`` and
    ``driver`` peers, applies membership messages to the operator's
    table, and explodes relay frames back into the per-child originals.

A local holds one uplink per root shard (one, on the classic single-root
cluster) or a single relay uplink, and routes each outgoing frame by its
window's owner; the operator still addresses everything to root id 0.

The operators still talk to their ``self.simulator`` — here a
:class:`LiveFabric`, the asyncio implementation of the
:class:`~repro.network.simulator.Fabric` protocol.  ``route`` collects
outgoing messages in an outbox that the host flushes to real transport
streams after each dispatch (so a slow peer backpressures the host
through the transport's bounded queue / TCP drain), and ``schedule``
becomes an event-loop timer.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import heapq
import random
from typing import Awaitable, Callable, Mapping, Sequence

import numpy as np

from repro.errors import TransportError
from repro.faults.plan import ToleranceConfig
from repro.mesh.relay import explode_runs, explode_synopses
from repro.mesh.routing import (
    RELAY_ID_BASE,
    SHARD_ID_BASE,
    ShardMap,
    shard_node_id,
)
from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    EventBatchMessage,
    GammaUpdateMessage,
    HeartbeatMessage,
    JoinMessage,
    LeaveMessage,
    Message,
    QUERY_PLANE_BATCHES,
    QueryResultMessage,
    RelayRunsMessage,
    RelaySynopsisMessage,
    ResultMessage,
    RouteUpdateMessage,
    ShardFailoverMessage,
    SynopsisMessage,
    TelemetryDigestMessage,
    TelemetrySnapshotMessage,
    WatermarkMessage,
    WindowReleaseMessage,
)
from repro.network.simulator import SimulatedNode
from repro.obs.events import MessageTrace
from repro.obs.fleet.uplink import pump
from repro.obs.live.context import (
    TraceContext,
    context_scope,
    set_context,
    should_sample,
    trace_id_for_window,
)
from repro.obs.tracer import NOOP_TRACER, Tracer
from repro.runtime.codec import Hello
from repro.runtime.transport import FailureLatch, MessageStream
from repro.streaming.columns import EventColumns
from repro.streaming.windows import CONTROL_WINDOW, Window

# Hot-path module: event batches stay columnar from workload to window
# (exploded relay sections included), and no per-event ``Event`` objects
# are constructed here (enforced by tests/test_hotpath_lint.py).

__all__ = [
    "LIVE_OPS_PER_SECOND",
    "LiveFabric",
    "NodeHost",
    "RootServer",
    "LocalServer",
    "StreamServer",
    "batches_for",
]

#: CPU budget given to live operators.  The discrete-event CPU model is
#: meaningless on a wall clock — real work takes real time — so live nodes
#: get an effectively infinite budget and ``work()`` returns ~now.
LIVE_OPS_PER_SECOND = 1e15

#: Milliseconds of event time per second of fabric time.
_MS_PER_SECOND = 1000.0

#: Receiver-side live span names by incoming message type: the phase of
#: the window lifecycle that handling this message performs.  Types not
#: listed here get the generic ``live_dispatch``.
_LIVE_SPAN_NAMES: dict[type, str] = {
    EventBatchMessage: "live_ingest",
    SynopsisMessage: "live_identification",
    CandidateRequestMessage: "live_candidate_fetch",
    CandidateEventsMessage: "live_calculation",
    WindowReleaseMessage: "live_release",
    ResultMessage: "live_release",
}


class LiveFabric:
    """Asyncio implementation of the node-facing ``Fabric`` protocol.

    One fabric per host.  ``route`` is synchronous (operators call it from
    ``on_message``), so it only queues; the owning host awaits
    :meth:`drain` and ships the queued messages over real streams.
    """

    def __init__(self, epoch: float | None = None) -> None:
        self._loop = asyncio.get_event_loop()
        self._epoch = self._loop.time() if epoch is None else epoch
        self._outbox: list[tuple[int, Message]] = []
        self._halted = False
        #: Armed timers not yet fired, so :meth:`halt` can cancel them.
        self._timers: set[asyncio.TimerHandle] = set()
        #: Set by the owning host: called after each timer action so
        #: messages the action queued (reliability retransmits, releases)
        #: get flushed — a timer has no dispatch to piggyback on.
        self.on_timer: Callable[[], None] | None = None

    @property
    def now(self) -> float:
        """Seconds of wall clock since the cluster epoch."""
        return self._loop.time() - self._epoch

    @property
    def epoch(self) -> float:
        """Event-loop time corresponding to fabric time zero."""
        return self._epoch

    def route(self, message: Message, src: int, dst: int, now: float) -> None:
        """Queue ``message`` for the host to flush to ``dst``'s stream."""
        self._outbox.append((dst, message))

    def schedule(
        self, time: float, action: Callable[[float], None]
    ) -> None:
        """Run ``action`` at fabric time ``time`` via an event-loop timer."""
        delay = max(0.0, time - self.now)

        def fire() -> None:
            self._timers.discard(handle)
            if self._halted:
                return
            action(self.now)
            if self.on_timer is not None:
                self.on_timer()

        handle = self._loop.call_later(delay, fire)
        self._timers.add(handle)

    def halt(self) -> None:
        """Stop firing scheduled actions and cancel the armed ones: the
        owning host crashed, or the cluster is torn down.

        A killed shard's armed reliability timers must not keep mutating
        its operator — the takeover protocol snapshots the dead node's
        answered windows, and a post-mortem timer answering one more
        window would race that snapshot — and no action may run on a host
        while the loop shuts down.
        """
        self._halted = True
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()

    def drain(self) -> list[tuple[int, Message]]:
        """Take every queued ``(dst, message)`` pair."""
        queued, self._outbox = self._outbox, []
        return queued


class NodeHost:
    """Shared machinery: one operator, one fabric, streams to peers."""

    def __init__(self, node: SimulatedNode, fabric: LiveFabric,
                 tracer: Tracer = NOOP_TRACER, *,
                 drop_unroutable: bool = False,
                 failures: FailureLatch,
                 wire_tracing: bool = False) -> None:
        self.node = node
        self.fabric = fabric
        self.tracer = tracer
        #: Wall-clock causal tracing: dispatch opens a child span under
        #: the incoming frame's trace context and stamps its own context
        #: onto everything the handler sends.
        self.wire_tracing = wire_tracing and tracer.enabled
        self._peers: dict[int, MessageStream] = {}
        #: Tolerant mode: a send to a missing/dead peer is counted here
        #: instead of raising — reliability retransmits repair the gap.
        self._drop_unroutable = drop_unroutable
        #: Every background task this host starts is spawned on the latch.
        self._failures = failures
        self.dropped_sends = 0
        node.attach(fabric)
        fabric.on_timer = self._on_fabric_timer
        # Deliberately NOT node.set_tracer(tracer): operator spans measure
        # intervals on the simulated event-time clock (e.g. synopsis_wait
        # starts at the window's event-time end), which has no fixed
        # relation to the live wall clock.  Live runs trace message
        # deliveries and link totals instead; wall-clock latency comes from
        # the hosts' seal/result timestamps.

    @property
    def node_id(self) -> int:
        return self.node.node_id

    def register_peer(self, node_id: int, stream: MessageStream) -> None:
        self._peers[node_id] = stream

    async def dispatch(
        self, message: Message, context: TraceContext | None = None
    ) -> None:
        """Run the operator's handler, then flush whatever it sent.

        ``context`` is the trace context the delivering frame carried
        (``stream.last_context``).  When wire tracing is on and the trace
        is sampled, the handler runs inside a wall-clock span parented on
        the sender's span, and the span's own context is ambient for the
        flush — so the frames this dispatch causes carry the chain on.
        """
        now = self.fabric.now
        if self.tracer.enabled:
            # Live delivery is observed at dispatch; the trace records the
            # arrival instant on both ends of the interval.
            self.tracer.record_message(
                MessageTrace(
                    sent_at=now,
                    delivered_at=now,
                    src=message.sender,
                    dst=self.node_id,
                    message=message,
                )
            )
        token = None
        if self.wire_tracing and context is not None and context.sampled:
            name = _LIVE_SPAN_NAMES.get(type(message), "live_dispatch")
            span_id = self.tracer.begin(
                name, self.node_id, now,
                window=message.window,
                parent=context.span_id,
                trace_id=context.trace_id,
                wire_bytes=message.wire_bytes,
            )
            token = set_context(context.child(span_id))
        try:
            self.node.on_message(message, now)
            await self.flush()
        finally:
            if token is not None:
                token.var.reset(token)
        if token is not None:
            self.tracer.end(span_id, self.fabric.now)

    def _resolve(self, dst: int, message: Message) -> int:
        """The peer whose stream carries ``message`` toward ``dst``."""
        return dst

    async def flush(self) -> None:
        """Ship every message the operator queued on the fabric."""
        queued = self.fabric.drain()
        if queued:
            await self._send_routed(queued, droppable=self._drop_unroutable)

    async def _send_routed(
        self, pairs: "Sequence[tuple[int, Message]]", *, droppable: bool
    ) -> None:
        """The one send path: resolve each frame's carrier and ship it.

        Consecutive messages for the same peer coalesce into one
        ``send_many`` — one writev + one drain on TCP instead of a write
        and drain per frame (candidate serves and synopsis fan-out queue
        many frames per destination in a row).  ``droppable`` sends to a
        missing or dead peer are counted in :attr:`dropped_sends`
        instead of raising.
        """
        peers = [self._resolve(dst, message) for dst, message in pairs]
        i, n = 0, len(pairs)
        while i < n:
            peer_id = peers[i]
            j = i + 1
            while j < n and peers[j] == peer_id:
                j += 1
            group = [message for _, message in pairs[i:j]]
            i = j
            stream = self._peers.get(peer_id)
            if stream is None:
                if droppable:
                    self.dropped_sends += len(group)
                    continue
                raise TransportError(
                    f"node {self.node_id} has no stream to peer {peer_id}"
                )
            try:
                await stream.send_many(group)
            except TransportError:
                if not droppable:
                    raise
                self.dropped_sends += len(group)

    def _on_fabric_timer(self) -> None:
        """Timer actions queue messages; spawn a task to flush them."""
        with contextlib.suppress(RuntimeError):  # event loop closing
            self._failures.spawn(self._flush_after_timer())

    async def _flush_after_timer(self) -> None:
        await self.flush()
        self._after_timer_flush()

    def _after_timer_flush(self) -> None:
        """Subclass hook run after every timer-driven flush."""

    async def expect_hello(
        self, stream: MessageStream, role: "str | tuple[str, ...]"
    ) -> Hello:
        """Read and validate the connection preamble.

        ``role`` may be a single role or a tuple of acceptable roles (the
        root accepts both ``local`` and ``driver`` peers when a query
        plane is attached).
        """
        roles = (role,) if isinstance(role, str) else tuple(role)
        first = await stream.recv()
        if not isinstance(first, Hello):
            raise TransportError(
                f"node {self.node_id} expected a hello, got "
                f"{type(first).__name__}"
            )
        if first.role not in roles:
            expected = " or ".join(repr(r) for r in roles)
            raise TransportError(
                f"node {self.node_id} expected a {expected} peer, got "
                f"{first.role!r} from node {first.node_id}"
            )
        return first

    def _note_plane_message(self, message: Message) -> None:
        """Account a query-plane frame handled outside ``dispatch``."""
        if self.tracer.enabled:
            now = self.fabric.now
            self.tracer.record_message(
                MessageTrace(
                    sent_at=now,
                    delivered_at=now,
                    src=message.sender,
                    dst=self.node_id,
                    message=message,
                )
            )


class RootServer(NodeHost):
    """Hosts one Dema root (shard); completes once its windows answered.

    With a :class:`~repro.faults.plan.ToleranceConfig` the server also
    plays failure detector: it tracks the last time each local was heard
    from (heartbeats or protocol traffic), counts missed beats, and past
    the silence threshold declares the local dead — the root operator then
    re-plans its open windows over the survivors and answers them with a
    completeness fraction below 1.  A returning local's fresh ``Hello``
    reverses the verdict and, when the hello carries a resume cursor, gets
    a catch-up release so the local can prune its retained state.

    ``downstream`` is the relay routing table (child local id → the relay
    whose stream carries frames for it); empty when locals dial directly.
    """

    def __init__(self, node, fabric: LiveFabric, *, expected_windows: int,
                 downstream: "Mapping[int, int] | None" = None,
                 tracer: Tracer = NOOP_TRACER,
                 tolerance: ToleranceConfig | None = None,
                 failures: FailureLatch,
                 wire_tracing: bool = False,
                 query_plane=None,
                 on_telemetry=None,
                 uplink=None) -> None:
        super().__init__(node, fabric, tracer,
                         drop_unroutable=tolerance is not None,
                         failures=failures, wire_tracing=wire_tracing)
        self._expected_windows = expected_windows
        self._tolerance = tolerance
        self._downstream: dict[int, int] = dict(downstream or {})
        #: Optional fleet-telemetry sink: uplinked
        #: ``TelemetrySnapshotMessage``/``TelemetryDigestMessage`` frames
        #: are handed here (usually ``FleetCollector.on_message``) and
        #: never reach the operator.  ``None`` drops them.
        self._on_telemetry = on_telemetry
        #: Optional :class:`~repro.obs.fleet.TelemetryUplink`: the root's
        #: own contribution to the fleet plane (ingress frame sizes as a
        #: digest plus outcome counters).  Roots are collocated with the
        #: collector, so the cluster driver pumps this directly — no wire
        #: hop.
        self.uplink = uplink
        #: Optional :class:`~repro.queries.root.RootQueryPlane`: handles
        #: driver connections and every ``group_id != 0`` frame.
        self._query_plane = query_plane
        #: Durable-plane result writers: client id → the event that
        #: wakes its connection's log-drain task when new results land.
        self._driver_wakeups: dict[int, asyncio.Event] = {}
        self.done = asyncio.Event()
        if expected_windows == 0:
            self.done.set()  # a shard whose window share is empty
        #: Wall-clock (fabric) completion time per finished window.
        self.result_walls: dict[Window, float] = {}
        #: Fabric time each local was last heard from (tolerant mode).
        self.last_seen: dict[int, float] = {}
        self.heartbeat_misses = 0
        self.locals_declared_dead = 0
        self.reconnect_hellos = 0
        #: Failover state: set by :meth:`crash` (chaos) and by the
        #: coordinator's takeover protocol (:meth:`adopt_windows`).
        self.crashed = False
        self.failover_epoch = 0
        self.windows_adopted = 0
        self._crash_after: int | None = None
        self._known_locals: set[int] = set()
        self._accounted = 0
        self._monitor_task: asyncio.Task | None = None
        #: Deadline-ordered failure detection: ``(due, local_id, seen)``
        #: entries, one live entry per monitored local.  ``seen`` is the
        #: ``last_seen`` snapshot the deadline was armed against, so a
        #: popped entry whose local has been heard from since simply
        #: re-arms — O(log n) per heartbeat event instead of a linear
        #: scan over all locals every tick.
        self._deadlines: list[tuple[float, int, float]] = []
        self._monitored: set[int] = set()
        self._monitor_wake = asyncio.Event()

    def _observe(self, local_id: int) -> None:
        """Record liveness evidence and enroll the local in monitoring."""
        now = self.fabric.now
        self.last_seen[local_id] = now
        if self._tolerance is None or local_id in self._monitored:
            return
        self._monitored.add(local_id)
        interval = self._tolerance.heartbeat_interval_s
        heapq.heappush(self._deadlines, (now + 1.5 * interval, local_id, now))
        self._monitor_wake.set()

    def _account_outcomes(self) -> None:
        """Stamp new outcomes and re-check the completion condition."""
        fresh = self.node.outcomes_since(self._accounted)
        for outcome in fresh:
            self.result_walls[outcome.window] = self.fabric.now
        self._accounted += len(fresh)
        if self._accounted + self.node.aborted_windows >= self._expected_windows:
            self.done.set()

    def _after_timer_flush(self) -> None:
        # Reliability timers can finish a window (degrade path) without any
        # message arriving afterwards; account here or the run never ends.
        self._account_outcomes()

    def _on_local_hello(self, hello: Hello) -> None:
        now = self.fabric.now
        self._observe(hello.node_id)
        returning = hello.node_id in self._known_locals
        self._known_locals.add(hello.node_id)
        self.node.mark_alive(hello.node_id)
        if not returning:
            return
        self.reconnect_hellos += 1
        if self.tracer.enabled:
            self.tracer.record(
                "fault_reconnect", self.node_id, now, now,
                local=hello.node_id,
            )
            self.tracer.registry.counter(
                "reconnects_total",
                "Locals that re-established their root session.",
            ).inc()
        if hello.resume_from >= 0:
            self.node.resume_release(hello.node_id, hello.resume_from, now)

    async def _ship_plane(
        self, outgoing: "list[tuple[int, Message]]"
    ) -> None:
        """Send query-plane replies; a vanished peer is not fatal.

        On a durable plane, results for driver clients never go out
        here: the plane has already appended them to the client's
        retained log, and the connection's writer task drains that log
        in order (see :meth:`_drive_results`) — one totally-ordered
        result stream per client is what makes the resume cursor exact.
        """
        plane = self._query_plane
        live = []
        for dst, reply in outgoing:
            if (
                plane is not None
                and plane.durable
                and isinstance(reply, QueryResultMessage)
            ):
                wake = self._driver_wakeups.get(dst)
                if wake is not None:
                    wake.set()
                continue
            live.append((dst, reply))
        await self._send_routed(live, droppable=True)

    async def _drive_results(
        self, client_id: int, stream: MessageStream, cursor: int,
        wake: asyncio.Event,
    ) -> None:
        """Single writer for one durable driver connection.

        Drains the client's retained result log from ``cursor`` — the
        resume replay and live tail are one stream, so the client's
        received count is always a log prefix.  A transport error ends
        the writer; the recv loop observes the same death and tears the
        connection down.
        """
        plane = self._query_plane
        assert plane is not None
        try:
            while True:
                batch = plane.log_from(client_id, cursor)
                if not batch:
                    wake.clear()
                    await wake.wait()
                    continue
                for message in batch:
                    await stream.send(message)
                    cursor += 1
        except TransportError:
            pass

    async def _serve_driver(
        self, hello: Hello, stream: MessageStream
    ) -> None:
        """Connection handler for one query-plane driver client."""
        plane = self._query_plane
        assert plane is not None
        client_id = hello.node_id
        self.register_peer(client_id, stream)
        cursor = plane.on_client_resume(client_id, hello.resume_from)
        writer: asyncio.Task | None = None
        wake: asyncio.Event | None = None
        if plane.durable:
            wake = asyncio.Event()
            wake.set()  # drain any retained backlog immediately
            self._driver_wakeups[client_id] = wake
            writer = self._failures.spawn(
                self._drive_results(client_id, stream, cursor, wake)
            )
            if self.tracer.enabled and hello.resume_from >= 0:
                self.tracer.registry.counter(
                    "driver_reconnects_total",
                    "Driver clients that resumed with a result cursor.",
                ).inc()
        try:
            while True:
                try:
                    message = await stream.recv()
                except TransportError:
                    break  # driver link died: treated as a disconnect
                if message is None:
                    break
                if isinstance(message, Hello):
                    raise TransportError("unexpected second hello")
                self._note_plane_message(message)
                await self._ship_plane(
                    plane.on_client_message(client_id, message)
                )
        finally:
            if writer is not None:
                await self._failures.reap([writer])
            if wake is not None and self._driver_wakeups.get(client_id) is wake:
                del self._driver_wakeups[client_id]
            if self._peers.get(client_id) is stream:
                del self._peers[client_id]
            await self._ship_plane(plane.on_client_gone(client_id))

    async def serve(self, stream: MessageStream) -> None:
        """Connection handler for one dialing local, relay or driver."""
        roles = ("local", "relay") + (
            ("driver",) if self._query_plane is not None else ()
        )
        hello = await self.expect_hello(stream, roles)
        if hello.role == "driver":
            await self._serve_driver(hello, stream)
            return
        self.register_peer(hello.node_id, stream)
        if self._tolerance is not None and hello.role == "local":
            self._on_local_hello(hello)
            await self.flush()
            self._account_outcomes()
        elif self._tolerance is not None:
            # A relay's children never dial us, so their hellos cannot
            # enroll them; enroll every known member now and let their
            # forwarded heartbeats keep the deadlines fed.
            for local_id in self.node.current_members:
                self._observe(local_id)
        try:
            while True:
                try:
                    message = await stream.recv()
                except TransportError:
                    if self._tolerance is None:
                        raise
                    break  # link severed mid-frame; the peer will redial
                if message is None or self.crashed:
                    # Crash is a synchronous freeze: the flag is set
                    # before the crash yields, so nothing dispatched
                    # after it can mutate the operator's outcome log.
                    break
                if isinstance(message, Hello):
                    raise TransportError("unexpected second hello")
                if self._tolerance is not None:
                    # Liveness evidence is per *original sender*: frames a
                    # relay forwards keep the child's id, so children
                    # behind relays are monitored transparently; the relay
                    # id itself (no heartbeats of its own) is never
                    # enrolled.
                    if message.sender in self.node.local_ids:
                        self._observe(message.sender)
                    if isinstance(message, HeartbeatMessage):
                        continue
                if isinstance(
                    message, (TelemetrySnapshotMessage, TelemetryDigestMessage)
                ):
                    # In-band fleet telemetry rides the data links the way
                    # heartbeats do; it is collector traffic, never operator
                    # input.
                    if self._on_telemetry is not None:
                        self._on_telemetry(message)
                    continue
                if self._query_plane is not None and (
                    message.group_id != 0
                    or isinstance(message, QUERY_PLANE_BATCHES)
                ):
                    # Query-plane traffic multiplexed on the local link:
                    # handled by the plane, never by the base operator.
                    self._note_plane_message(message)
                    await self._ship_plane(
                        self._query_plane.on_local_message(message)
                    )
                    continue
                if self.uplink is not None:
                    self.uplink.observe(
                        "shard_ingress_bytes", float(message.wire_bytes)
                    )
                    self.uplink.inc_stat("ingress_frames")
                await self.dispatch(message, stream.last_context)
                self._account_outcomes()
                if self._maybe_trip_crash():
                    break
        finally:
            # Only unregister if a reconnect has not already replaced us.
            if self._peers.get(hello.node_id) is stream:
                del self._peers[hello.node_id]

    # -- membership & relay frames -------------------------------------

    async def dispatch(
        self, message: Message, context: TraceContext | None = None
    ) -> None:
        if isinstance(message, JoinMessage):
            if self.node.add_local(message.sender, message.first_window_start):
                await self._on_membership_change()
            await self.flush()
        elif isinstance(message, LeaveMessage):
            if self.node.remove_local(
                message.sender, message.effective_from, self.fabric.now
            ):
                await self._on_membership_change()
            # The leave may have completed degraded-eligible windows.
            await self.flush()
            self._account_outcomes()
        elif isinstance(message, (RelaySynopsisMessage, RelayRunsMessage)):
            # Each exploded part dispatches under its own section context
            # (captured by the relay at combine time), so the child's
            # spans — not the relay hop's — parent the shard-side work
            # and the window's timeline survives the combine/explode.
            explode = (
                explode_synopses
                if isinstance(message, RelaySynopsisMessage)
                else explode_runs
            )
            contexts = message.section_contexts
            for index, part in enumerate(explode(message)):
                part_context = (
                    contexts[index] if index < len(contexts) else None
                )
                await super().dispatch(part, part_context or context)
        else:
            await super().dispatch(message, context)

    async def _on_membership_change(self) -> None:
        """Trace the new member table and tell every connected peer."""
        members = self.node.current_members
        if self.tracer.enabled:
            now = self.fabric.now
            self.tracer.record(
                "mesh_membership", self.node_id, now, now,
                epoch=self.node.membership_epoch, members=len(members),
            )
            self.tracer.registry.gauge(
                "mesh_members",
                "Locals currently admitted to the mesh.",
            ).set(float(len(members)))
        await self._broadcast(
            RouteUpdateMessage(
                sender=self.node_id,
                window=CONTROL_WINDOW,
                epoch=self.node.membership_epoch,
                members=members,
            )
        )

    async def _broadcast(self, message: Message) -> None:
        for stream in list(self._peers.values()):
            with contextlib.suppress(TransportError):
                await stream.send(message)

    # -- relay-aware outbound routing ----------------------------------

    def _resolve(self, dst: int, message: Message) -> int:
        return self._downstream.get(dst, dst)

    def _addressed(self, dst: int, message: Message) -> Message:
        """``message`` as it travels toward ``dst``: a frame a relay
        carries names the child in ``group_id``."""
        if dst in self._downstream:
            return dataclasses.replace(message, group_id=dst)
        return message

    async def flush(self) -> None:
        """Ship queued frames, routing relay children via their relay.

        A frame for a child behind a relay travels on the relay's stream
        with the child in ``group_id``; identical broadcast-shaped frames
        (releases, gamma updates) are coalesced into one ``group_id`` 0
        frame per relay, which the relay fans out — the downlink copy of
        the uplink's combining.
        """
        if not self._downstream:
            await super().flush()
            return
        broadcast_sent: set[tuple[int, type, Window, int]] = set()
        routed = []
        for dst, message in self.fabric.drain():
            if dst in self._downstream and isinstance(
                message, (WindowReleaseMessage, GammaUpdateMessage)
            ):
                key = (
                    self._downstream[dst], type(message), message.window,
                    getattr(message, "gamma", 0),
                )
                if key in broadcast_sent:
                    continue
                broadcast_sent.add(key)  # group_id 0: relay broadcasts it
            else:
                message = self._addressed(dst, message)
            routed.append((dst, message))
        await self._send_routed(routed, droppable=True)

    # -- failover --------------------------------------------------------

    def crash_after(self, n_outcomes: int) -> None:
        """Arm a deterministic mid-run crash (chaos tripwire).

        The serve loop freezes this shard *synchronously* — flag set and
        fabric halted with no intervening yield — the moment its
        operator has answered ``n_outcomes`` windows, then severs the
        peer links asynchronously.  Unpaced replays burst through whole
        runs between event-loop ticks, so a wall-clock kill cannot
        reliably land mid-run; the tripwire pins the kill to a protocol
        point instead, making ``kill-shard`` scenarios reproducible.
        """
        self._crash_after = n_outcomes

    def _maybe_trip_crash(self) -> bool:
        if (
            self._crash_after is None
            or self.crashed
            or len(self.node.outcomes) < self._crash_after
        ):
            return False
        self.crashed = True
        self.fabric.halt()
        self._failures.spawn(self.crash())
        return True

    async def crash(self) -> None:
        """Abrupt shard death: stop monitoring and sever every peer link.

        Peers observe the EOF, report the link down, and the coordinator
        runs the takeover.  The operator's already-answered outcomes stay
        readable in-process for the final report — exactly what a
        post-mortem of the real process would recover from its log.
        """
        self.crashed = True
        self.fabric.halt()
        await self.stop_monitor()
        for stream in list(self._peers.values()):
            with contextlib.suppress(TransportError):
                await stream.close()
        self._peers.clear()

    def adopt_windows(self, windows: "Sequence[Window]", *, epoch: int,
                      finalized: "Sequence[Window]" = ()) -> None:
        """Take over a dead predecessor's unanswered windows.

        ``windows`` is the share this shard must now answer on top of its
        own; ``finalized`` is everything the predecessor already answered
        (inherited so replayed synopses get releases, never duplicate
        answers).  Completion arithmetic is re-armed: a shard that was
        born done (or finished early) wakes back up for the adopted
        share.
        """
        self.failover_epoch = max(self.failover_epoch, epoch)
        self.node.inherit_finalized(finalized)
        self._expected_windows += len(windows)
        self.windows_adopted += len(windows)
        outcomes = len(self.node.outcomes) + self.node.aborted_windows
        if outcomes < self._expected_windows:
            self.done.clear()
        if self.tracer.enabled:
            now = self.fabric.now
            self.tracer.record(
                "shard_takeover", self.node_id, now, now,
                epoch=epoch, adopted=len(windows),
            )
            self.tracer.registry.counter(
                "shard_windows_adopted_total",
                "Windows re-homed to a successor shard by failover.",
            ).inc(len(windows))

    async def announce_failover(self, shard_map: ShardMap) -> None:
        """Broadcast the new epoch's shard map to every connected peer.

        In-band announcement: locals and relays (who forward to their
        children) converge on the same ``(epoch, dead)`` pair and reroute
        + replay from retained buffers.
        """
        await self._broadcast(
            ShardFailoverMessage(
                sender=self.node_id,
                window=CONTROL_WINDOW,
                epoch=shard_map.epoch,
                dead=tuple(sorted(shard_map.dead)),
            )
        )

    def start_monitor(self) -> None:
        """Start the heartbeat monitor task (tolerant mode only)."""
        if self._tolerance is None or self._monitor_task is not None:
            return
        self._monitor_task = self._failures.spawn(self._monitor())

    async def stop_monitor(self) -> None:
        if self._monitor_task is None:
            return
        await self._failures.reap([self._monitor_task])
        self._monitor_task = None

    async def _monitor(self) -> None:
        """Declare locals dead after prolonged silence.

        Deadline-heap failure detector: the task sleeps until the earliest
        armed deadline (or a new enrollment wakes it) and handles only the
        entries that are actually due.  A popped entry whose local has
        been heard from since arming re-arms silently; a genuinely silent
        local accrues one miss per heartbeat interval and is declared dead
        once its silence passes ``declare_dead_after_s`` — the same
        observable cadence as the old per-tick scan, at O(log n) per
        event instead of O(n) per tick.
        """
        tolerance = self._tolerance
        assert tolerance is not None
        interval = tolerance.heartbeat_interval_s
        heap = self._deadlines
        loop = asyncio.get_event_loop()
        while True:
            now = self.fabric.now
            while heap and heap[0][0] <= now:
                _, local_id, seen_then = heapq.heappop(heap)
                seen = self.last_seen.get(local_id, seen_then)
                if (
                    local_id in self.node.dead_nodes
                    or local_id not in self.node.current_members
                ):
                    # Dead or gracefully departed: drop the tombstoned
                    # entry instead of re-arming it forever (a leaver
                    # never heartbeats again, so its entry would
                    # otherwise accrue misses each interval and end in
                    # a bogus death declaration).  A fresh hello
                    # re-enrolls either way.
                    self._monitored.discard(local_id)
                    continue
                if seen != seen_then:
                    # Heard from since this deadline was armed.
                    heapq.heappush(
                        heap, (seen + 1.5 * interval, local_id, seen)
                    )
                    continue
                silence = now - seen
                if silence <= 1.5 * interval:
                    heapq.heappush(
                        heap, (seen + 1.5 * interval, local_id, seen)
                    )
                    continue
                self.heartbeat_misses += 1
                if self.tracer.enabled:
                    self.tracer.registry.counter(
                        "heartbeat_misses_total",
                        "Monitor ticks that found a local silent.",
                    ).inc()
                if silence <= tolerance.declare_dead_after_s:
                    heapq.heappush(
                        heap, (now + interval, local_id, seen)
                    )
                    continue
                self._monitored.discard(local_id)
                if self.node.mark_dead(local_id, now):
                    self.locals_declared_dead += 1
                    if self.tracer.enabled:
                        self.tracer.record(
                            "fault_dead_local", self.node_id, now, now,
                            local=local_id, silence=silence,
                        )
                        self.tracer.registry.counter(
                            "locals_declared_dead_total",
                            "Locals the failure detector gave up on.",
                        ).inc()
                    await self.flush()
                    self._account_outcomes()
            timeout = interval
            if heap:
                timeout = max(0.001, heap[0][0] - self.fabric.now)
            # The deadline sets the wake event itself: ``wait_for`` on
            # Python 3.11 drops a cancel that lands as the event fires,
            # and a monitor that outlives its cancel hangs every reaper.
            timer = loop.call_later(timeout, self._monitor_wake.set)
            try:
                await self._monitor_wake.wait()
            finally:
                timer.cancel()
            self._monitor_wake.clear()


class LocalServer(NodeHost):
    """Hosts one Dema local node plus its watermark-driven window sealing.

    The simulator's driver announces window ends with perfect knowledge;
    live, the host reconstructs the same announcements from stream
    watermarks: every window ``[s, s + L)`` of the agreed grid is sealed
    once ``min(watermarks) >= s + L``.  Because each stream's events are
    FIFO-ordered before its watermark and timestamps are non-decreasing,
    no event for a sealed window can still be in flight.

    Upstream the local holds one session per root shard — or a single
    relay session — in :attr:`_upstreams`, each with its own reader task
    (redialing with backoff in tolerant mode), one heartbeat loop over
    all of them, and one routed send: the operator addresses root id 0
    and :meth:`_resolve` picks the relay or the window's owner shard.
    """

    def __init__(self, node, fabric: LiveFabric, *, expected_streams: int,
                 grid_start: int, grid_end: int, window_length_ms: int,
                 n_shards: int = 1,
                 tracer: Tracer = NOOP_TRACER,
                 tolerance: ToleranceConfig | None = None,
                 dial: Callable[
                     [int], Awaitable[MessageStream]
                 ] | None = None,
                 failures: FailureLatch,
                 wire_tracing: bool = False,
                 sample_rate: float = 1.0,
                 query_plane=None,
                 on_upstream_down=None,
                 uplink=None,
                 uplink_interval_s: float = 0.25) -> None:
        super().__init__(node, fabric, tracer,
                         drop_unroutable=tolerance is not None,
                         failures=failures, wire_tracing=wire_tracing)
        if expected_streams < 1:
            raise TransportError("a local server needs at least one stream")
        #: Optional :class:`~repro.queries.local.LocalQueryPlane`: fed
        #: every ingested batch and watermark, plus ``group_id != 0``
        #: frames from the root.
        self._query_plane = query_plane
        self._expected_streams = expected_streams
        self._window_length_ms = window_length_ms
        self._grid_end = grid_end
        self._next_start = grid_start
        self._watermarks: dict[int, int] = {}
        #: Wall-clock (fabric) seal time per sealed window.
        self.seal_walls: dict[Window, float] = {}
        self._tolerance = tolerance
        #: ``dial(peer_id)`` opens a stream to a shard or relay; used for
        #: the first connection and every redial.
        self._dial = dial
        #: Peer id → current session; a single entry behind a relay.
        self._upstreams: dict[int, MessageStream] = {}
        #: Set iff the only upstream is a relay: constant-route fast path.
        self._relay_peer: int | None = None
        #: Readers (one per upstream), the heartbeat loop, the uplink loop.
        self._tasks: list[asyncio.Task] = []
        self._heartbeat_seq = 0
        #: Head-based sampling rate for the trace roots this host opens
        #: (the per-window synopsis seal).
        self._sample_rate = sample_rate
        #: Optional :class:`~repro.obs.fleet.TelemetryUplink`.  ``None``
        #: (the default) starts no uplink task and ships zero telemetry
        #: bytes — the bit-identity configuration.
        self.uplink = uplink
        self._uplink_interval = uplink_interval_s
        #: Windows whose release has been observed (for seal→result
        #: latency and staleness accounting; releases may repeat after a
        #: failover replay, so observation is once per window).
        self._released_windows: set[Window] = set()
        #: Latest membership epoch seen from each upstream peer.
        self.route_epochs: dict[int, int] = {}
        #: Epoch-versioned shard liveness; frames route by its owner.
        self._shard_map = ShardMap(max(1, n_shards))
        #: Coordinator callback ``(shard_index) -> None`` fired when an
        #: uplink to a shard dies (failure-detection evidence).
        self._on_upstream_down = on_upstream_down
        self._closing = False
        self._crashed = False
        self._resumed = asyncio.Event()
        self._rng = random.Random(f"reconnect:{node.node_id}")
        self.reconnects = 0
        self.crashes = 0
        self.failovers_seen = 0
        self.fenced_frames = 0

    # -- upstream sessions ---------------------------------------------

    async def connect_upstreams(
        self, peer_ids: "Sequence[int]", *, join_from: int | None = None
    ) -> None:
        """Dial every upstream, announce, and start reading them.

        ``join_from`` marks a runtime joiner: a
        :class:`~repro.network.messages.JoinMessage` goes out FIFO-first
        on every uplink, so no shard can see the joiner's data before its
        membership.
        """
        if len(peer_ids) == 1 and peer_ids[0] >= RELAY_ID_BASE:
            self._relay_peer = peer_ids[0]
        for peer_id in peer_ids:
            await self._attach(peer_id, await self._dial(peer_id), join_from)
        self._start_tasks()

    async def _attach(
        self, peer_id: int, stream: MessageStream,
        join_from: int | None = None,
    ) -> None:
        """Adopt ``stream`` as the session to ``peer_id`` and say hello.

        The hello carries the resume cursor (last released window end) so
        a reconnecting local gets a catch-up release; replaying the pending
        (unacknowledged) windows right after restores anything the outage
        swallowed — the root deduplicates, so this is safe on a fresh
        connection too.
        """
        self._upstreams[peer_id] = stream
        self.register_peer(peer_id, stream)
        resume = self.node.last_release_end if self._tolerance else -1
        await stream.send(
            Hello(node_id=self.node_id, role="local", resume_from=resume)
        )
        if join_from is not None:
            await stream.send(
                JoinMessage(
                    sender=self.node_id,
                    window=CONTROL_WINDOW,
                    first_window_start=join_from,
                )
            )
        if self._tolerance is not None:
            self.node.replay_pending(self.fabric.now)
            await self.flush()

    def _start_tasks(self) -> None:
        """One reader per upstream, plus the heartbeat and uplink loops."""
        loops = [self._read_upstream(peer_id) for peer_id in self._upstreams]
        if self._tolerance is not None:
            loops.append(self._heartbeats())
        if self.uplink is not None:
            loops.append(pump(
                self.uplink, self._uplink_interval, self.refresh_uplink_stats,
                self.send_telemetry, lambda: self._closing,
            ))
        self._tasks = [self._failures.spawn(loop) for loop in loops]

    async def _stop_tasks(self) -> None:
        tasks, self._tasks = self._tasks, []
        await self._failures.reap(tasks)

    async def announce_leave(self, effective_from: int) -> None:
        """Tell every upstream this local serves no window past the mark."""
        for stream in self._upstreams.values():
            with contextlib.suppress(TransportError):
                await stream.send(
                    LeaveMessage(
                        sender=self.node_id,
                        window=CONTROL_WINDOW,
                        effective_from=effective_from,
                    )
                )

    async def _read_upstream(self, peer_id: int) -> None:
        """Candidate requests, gamma updates and releases from one peer.

        In tolerant mode an EOF (or mid-frame death) of the session is
        not fatal: the local redials with exponential backoff and resumes
        — unless the peer is a shard the current map declares dead, whose
        windows the successor now answers.
        """
        while True:
            stream = self._upstreams[peer_id]
            try:
                message = await stream.recv()
            except TransportError:
                if self._tolerance is None:
                    raise
                message = None  # link died mid-frame: treat as EOF
            if message is None:
                if self._closing or self._crashed:
                    return
                self._report_upstream_down(peer_id)
                if self._tolerance is None or self._is_fenced(peer_id):
                    return
                if not await self._reconnect(peer_id):
                    raise TransportError(
                        f"local {self.node_id} exhausted "
                        f"{self._tolerance.reconnect_max_attempts} "
                        f"reconnect attempts to peer {peer_id}"
                    )
            elif self._is_fenced(peer_id):
                # A dead shard resurrecting cannot speak for windows
                # that already moved: everything it says is stale.
                self.fenced_frames += 1
            elif isinstance(message, ShardFailoverMessage):
                await self._on_shard_failover(message)
            elif isinstance(message, RouteUpdateMessage):
                self.route_epochs[peer_id] = max(
                    self.route_epochs.get(peer_id, 0), message.epoch
                )
            elif self._query_plane is not None and (
                message.group_id != 0
                or isinstance(message, QUERY_PLANE_BATCHES)
            ):
                # Query-plane traffic multiplexed on the root link.
                self._note_plane_message(message)
                await self._ship_plane(
                    self._query_plane.on_root_message(message)
                )
            else:
                if self.uplink is not None and isinstance(
                    message, WindowReleaseMessage
                ):
                    self._observe_release(message.window)
                await self.dispatch(message, stream.last_context)

    def _is_fenced(self, peer_id: int) -> bool:
        """Whether ``peer_id`` is a shard the current epoch declares dead."""
        if not SHARD_ID_BASE <= peer_id < RELAY_ID_BASE:
            return False
        return not self._shard_map.is_live(peer_id - SHARD_ID_BASE)

    def _report_upstream_down(self, peer_id: int) -> None:
        """Hand link-death evidence for a shard uplink to the coordinator."""
        if self._on_upstream_down is None:
            return
        if SHARD_ID_BASE <= peer_id < RELAY_ID_BASE:
            self._on_upstream_down(peer_id - SHARD_ID_BASE)

    async def _reconnect(self, peer_id: int) -> bool:
        """Redial one upstream with exponential backoff + jitter."""
        tolerance = self._tolerance
        if tolerance is None or self._dial is None:
            return False
        for attempt in range(tolerance.reconnect_max_attempts):
            delay = min(
                tolerance.reconnect_max_delay_s,
                tolerance.reconnect_base_delay_s * (2 ** attempt),
            )
            delay *= 1.0 + tolerance.reconnect_jitter * self._rng.random()
            await asyncio.sleep(delay)
            if self._closing or self._crashed or self._is_fenced(peer_id):
                return True  # crash()/shutdown()/failover owns it now
            try:
                stream = await self._dial(peer_id)
            except TransportError:
                continue  # peer unreachable (e.g. partition); back off more
            await self._attach(peer_id, stream)
            self.reconnects += 1
            if self.tracer.enabled:
                now = self.fabric.now
                self.tracer.record(
                    "fault_reconnect", self.node_id, now, now,
                    attempt=attempt + 1,
                )
            return True
        return False

    async def _heartbeats(self) -> None:
        """Liveness beacons on every uplink (relays forward verbatim)."""
        assert self._tolerance is not None
        interval = self._tolerance.heartbeat_interval_s
        while not self._closing:
            await asyncio.sleep(interval)
            self._heartbeat_seq += 1
            beat = HeartbeatMessage(
                sender=self.node_id,
                window=CONTROL_WINDOW,
                sequence=self._heartbeat_seq,
            )
            for stream in list(self._upstreams.values()):
                with contextlib.suppress(TransportError):
                    await stream.send(beat)

    async def crash(self) -> None:
        """Simulate abrupt process death: stop all activity, drop links.

        Operator state survives (the model is a stalled/frozen process,
        the worst case for the protocol's timers); :meth:`restart` brings
        the node back through the normal reconnect + resume path.
        """
        self._crashed = True
        self.crashes += 1
        self._resumed = asyncio.Event()
        await self._stop_tasks()
        for stream in self._upstreams.values():
            with contextlib.suppress(TransportError):
                await stream.close()

    async def restart(self) -> None:
        """Come back up: redial every live upstream and resume."""
        self._crashed = False
        for peer_id in list(self._upstreams):
            if not self._is_fenced(peer_id) and not await self._reconnect(
                peer_id
            ):
                raise TransportError(
                    f"local {self.node_id} could not re-reach peer "
                    f"{peer_id} after restarting"
                )
        self._start_tasks()
        self._resumed.set()

    # -- shard failover ------------------------------------------------

    async def _on_shard_failover(self, message: ShardFailoverMessage) -> None:
        """Converge on a newer shard map and replay retained windows.

        The successor now owns the dead shard's windows; every sealed
        window still retained (sent but unreleased — the release is the
        pruning horizon) is re-announced so the new owner can run the
        unmodified identification/calculation protocol on it.  Windows
        the dead shard already answered get back a release instead.
        Stale (non-monotonic) epochs are ignored: that is the fence
        against a dead shard's late resurrection.
        """
        if message.epoch <= self._shard_map.epoch:
            return
        self._shard_map = ShardMap(
            n_shards=self._shard_map.n_shards,
            epoch=message.epoch,
            dead=frozenset(message.dead),
        )
        self.failovers_seen += 1
        if self.tracer.enabled:
            now = self.fabric.now
            self.tracer.record(
                "shard_failover", self.node_id, now, now,
                epoch=message.epoch, dead=len(message.dead),
            )
            self.tracer.registry.counter(
                "shard_failovers_seen_total",
                "Failover announcements applied by mesh hosts.",
            ).inc()
        self.node.replay_pending(self.fabric.now)
        if not self.wire_tracing:
            await self.flush()
            return
        # Each replayed window's frames travel under a fresh
        # ``live_failover_replay`` span carrying the window's trace id and
        # the new shard-map epoch, so the successor shard's dispatch spans
        # parent onto it and the stitched timeline spans both the dead
        # shard's work and its adopter's.
        by_window: "dict[Window, list[tuple[int, Message]]]" = {}
        for dst, queued in self.fabric.drain():
            by_window.setdefault(queued.window, []).append((dst, queued))
        for window in sorted(by_window, key=lambda w: w.start):
            trace_id = trace_id_for_window(window.start)
            span_id = 0
            if should_sample(trace_id, self._sample_rate):
                span_id = self.tracer.begin(
                    "live_failover_replay", self.node_id, self.fabric.now,
                    window=window, trace_id=trace_id, epoch=message.epoch,
                )
            with context_scope(
                TraceContext(trace_id, span_id) if span_id else None
            ):
                await self._send_routed(
                    by_window[window], droppable=self._drop_unroutable
                )
            if span_id:
                self.tracer.end(span_id, self.fabric.now)

    # -- fleet telemetry -----------------------------------------------

    def _observe_release(self, window: Window) -> None:
        """Sample this window's seal→release latency (once per window).

        This is the local's own decentralized view of answer latency —
        seal to release arrival, one release hop more than seal→result —
        and it only exists when a reliability config makes roots emit
        releases.  The authoritative seal→result digest lives on the
        shard uplinks, fed by the cluster driver where both walls meet.
        """
        if window in self._released_windows:
            return
        self._released_windows.add(window)
        sealed = self.seal_walls.get(window)
        if sealed is not None:
            self.uplink.observe(
                "seal_to_release_s", max(0.0, self.fabric.now - sealed)
            )

    def refresh_uplink_stats(self) -> None:
        """Refresh the flat stats the next uplink snapshot will carry."""
        uplink = self.uplink
        if uplink is None:
            return
        pending = [
            wall
            for window, wall in self.seal_walls.items()
            if window not in self._released_windows
        ]
        now = self.fabric.now
        uplink.set_stat("windows_sealed", float(len(self.seal_walls)))
        uplink.set_stat(
            "windows_released", float(len(self._released_windows))
        )
        uplink.set_stat("windows_pending", float(len(pending)))
        uplink.set_stat(
            "oldest_pending_age_s",
            max(0.0, now - min(pending)) if pending else 0.0,
        )
        uplink.set_stat("dropped_sends", float(self.dropped_sends))
        uplink.set_stat("failovers_seen", float(self.failovers_seen))

    async def send_telemetry(self, frames: "Sequence[Message]") -> None:
        """Ship one uplink's frames on the first live upstream.

        One upstream suffices — every shard feeds the same collector, and
        cumulative sequence-stamped digests make the choice of carrier
        irrelevant.  A dead or fenced upstream just means the next one
        carries this round.
        """
        if not frames:
            return
        for peer_id in sorted(self._upstreams):
            if self._is_fenced(peer_id):
                continue
            stream = self._upstreams[peer_id]
            try:
                for frame in frames:
                    await stream.send(frame)
                return
            except TransportError:
                continue

    # -- downstream: the stream servers --------------------------------

    async def serve(self, stream: MessageStream) -> None:
        """Connection handler for one dialing stream server."""
        hello = await self.expect_hello(stream, "stream")
        self.register_peer(hello.node_id, stream)
        while (message := await stream.recv()) is not None:
            if self._crashed:
                # A crashed process consumes nothing; the bounded pipe
                # backpressures the sender until restart() resumes us.
                await self._resumed.wait()
            if isinstance(message, EventBatchMessage):
                # First: all but one frame a window is a batch.
                if self._query_plane is not None:
                    self._query_plane.ingest(message.events)
                await self.dispatch(message, stream.last_context)
            elif isinstance(message, WatermarkMessage):
                # Host concern: the operator itself rejects watermarks.
                self._watermarks[hello.node_id] = max(
                    self._watermarks.get(hello.node_id, 0),
                    message.watermark_time,
                )
                context = stream.last_context
                if (
                    self.wire_tracing
                    and context is not None
                    and context.sampled
                ):
                    # Attribute the hop even though sealing opens its own
                    # root span (min-watermark has no single parent).
                    now = self.fabric.now
                    self.tracer.record(
                        "live_watermark", self.node_id, now, now,
                        parent=context.span_id,
                        trace_id=context.trace_id,
                        watermark=message.watermark_time,
                    )
                await self._seal_ready_windows()
                await self._advance_query_plane()
            else:
                raise TransportError(
                    f"stream {hello.node_id} sent "
                    f"{type(message).__name__} to local {self.node_id}"
                )

    async def _seal_ready_windows(self) -> None:
        if len(self._watermarks) < self._expected_streams:
            return  # a stream has not spoken yet; its events may be early
        watermark = min(self._watermarks.values())
        length = self._window_length_ms
        while (
            self._next_start + length <= watermark
            and self._next_start < self._grid_end
        ):
            window = Window(self._next_start, self._next_start + length)
            now = self.fabric.now
            token = None
            if self.wire_tracing:
                # The seal is a trace *root*: caused by the minimum
                # watermark over every stream, so it parents on no single
                # hop.  Its context rides the synopsis frame to the root,
                # which parents identification onto this span.
                trace_id = trace_id_for_window(window.start)
                if should_sample(trace_id, self._sample_rate):
                    span_id = self.tracer.begin(
                        "live_synopsis", self.node_id, now,
                        window=window, trace_id=trace_id,
                    )
                    token = set_context(TraceContext(trace_id, span_id))
            try:
                self.node.on_window_complete(window, now)
                self.seal_walls[window] = now
                self._next_start += length
                await self.flush()
            finally:
                if token is not None:
                    token.var.reset(token)
            if token is not None:
                self.tracer.end(span_id, self.fabric.now)

    async def _advance_query_plane(self) -> None:
        """Seal query-group windows behind the min stream watermark."""
        plane = self._query_plane
        if plane is None or len(self._watermarks) < self._expected_streams:
            return
        watermark = min(self._watermarks.values())
        await self._ship_plane(plane.on_watermark(watermark))

    def _resolve(self, dst: int, message: Message) -> int:
        """The operator addresses the root as id 0; the host resolves that
        to the relay uplink, or to the owner shard of the frame's window."""
        if dst != 0:
            return dst
        if self._relay_peer is not None:
            return self._relay_peer
        return shard_node_id(self._shard_map.owner(
            message.window.start, self._window_length_ms,
        ))

    async def _ship_plane(self, messages: "list[Message]") -> None:
        """Send query-plane messages toward the root; losses are counted."""
        await self._send_routed(
            [(0, reply) for reply in messages], droppable=True
        )

    async def shutdown(self) -> None:
        """Stop every upstream task (called by the cluster on teardown)."""
        self._closing = True
        await self._stop_tasks()


def batches_for(
    events: EventColumns, window_length_ms: int, batch_size: int
) -> "list[EventColumns]":
    """Split ``events`` into size-capped batches that never span a window.

    The simulator driver's batching discipline: a batch holds events of
    exactly one tumbling window of the agreed grid, capped at
    ``batch_size`` events.  One rule covers in-order and out-of-order
    streams alike — every run of consecutive events with equal
    ``timestamp // window_length_ms`` is chopped at ``batch_size`` — and
    the batches come back as zero-copy slices of ``events``.
    """
    starts = _batch_starts(events, window_length_ms, batch_size)
    return [events[i:j] for i, j in zip(starts, starts[1:])]


def _batch_starts(
    events: EventColumns, window_length_ms: int, batch_size: int
) -> "list[int]":
    """The first row of every batch :func:`batches_for` cuts, then
    ``len(events)``."""
    n = len(events)
    if not n:
        return [0]
    size = max(1, batch_size)
    windows = events.timestamps // window_length_ms
    run_starts = np.flatnonzero(windows[1:] != windows[:-1]) + 1
    bounds = [0, *run_starts.tolist(), n]
    starts = [
        i for lo, hi in zip(bounds, bounds[1:]) for i in range(lo, hi, size)
    ]
    starts.append(n)
    return starts


class StreamServer:
    """Replays one sensor's workload share into its local node.

    Batches respect window boundaries (as the simulator's driver does) and
    are paced on the wall clock: with ``time_scale`` seconds of wall time
    per second of event time, the batch whose last timestamp is ``t`` is
    sent no earlier than ``epoch + (t - grid_start) * time_scale / 1000``.
    A ``time_scale`` of zero replays as fast as backpressure allows.

    ``gates`` (the mesh's membership boundaries, event time → event)
    split the replay into phases: every event with a timestamp below
    boundary ``b`` is shipped, then a watermark at exactly ``b`` (sealing
    every window that ends at or before ``b``), then the replay blocks on
    ``gates[b]``.  The mesh driver opens the gate only after every shard
    has applied the boundary's joins and leaves — so data and membership
    can never race.  A stream replayed across a boundary must be in
    timestamp order (the mesh driver rejects any other before it starts a
    server); without gates the replay is one phase, and the events inside
    a window may come in any order.  The windows themselves come in order:
    each window's watermark says that nothing of the stream below its end
    is still to come.
    """

    def __init__(self, stream_id: int, *, events: EventColumns,
                 batch_size: int, grid_start: int, grid_end: int,
                 window_length_ms: int, time_scale: float = 0.0,
                 gates: "Mapping[int, asyncio.Event] | None" = None,
                 tracer: Tracer = NOOP_TRACER,
                 wire_tracing: bool = False,
                 sample_rate: float = 1.0,
                 epoch: float | None = None) -> None:
        self.stream_id = stream_id
        self._events = events
        self._gates = dict(gates or {})
        self._batch_size = max(1, batch_size)
        self._grid_start = grid_start
        self._grid_end = grid_end
        self._window_length_ms = window_length_ms
        self._time_scale = time_scale
        self.tracer = tracer
        #: With wire tracing on, every batch send opens a
        #: ``live_stream_batch`` span — the root of the ingest chain for
        #: its window — and stamps the span's context onto the frames.
        self.wire_tracing = wire_tracing and tracer.enabled
        self._sample_rate = sample_rate
        #: Cluster epoch so span times share the hosts' fabric clock.
        self._epoch = epoch
        self.events_sent = 0

    async def replay(self, stream: MessageStream) -> None:
        """Ship every phase — the whole stream when there are no gates —
        waiting at each boundary for its gate, then close."""
        await stream.send(Hello(node_id=self.stream_id, role="stream"))
        loop = asyncio.get_event_loop()
        epoch = loop.time()
        clock_zero = self._epoch if self._epoch is not None else epoch
        boundaries = sorted(
            b for b in self._gates if self._grid_start < b < self._grid_end
        )
        cuts = np.searchsorted(self._events.timestamps, boundaries).tolist()
        cursor = 0
        for boundary, stop in zip(
            (*boundaries, self._grid_end), (*cuts, len(self._events))
        ):
            await self._ship(
                stream, self._events[cursor:stop], boundary, epoch, clock_zero
            )
            cursor = stop
            if boundary != self._grid_end:
                await self._gates[boundary].wait()
        await stream.close()

    async def _ship(
        self,
        stream: MessageStream,
        events: EventColumns,
        seal_to: int,
        epoch: float,
        clock_zero: float,
    ) -> None:
        """One phase: every batch, then the watermark sealing to ``seal_to``.

        A watermark travels with the *last* batch of each window, in the
        same ``send_many``: its time is the start of the next batch's
        window — the window's end, or later when the stream has no event
        in the windows between — and nothing of this stream below it is
        still to come.  The local seals on ``min(watermarks) >= window
        end``, so a window is sealed as soon as its last frame is in, not
        when the next window's first frame falls due.  The phase's last
        batch carries none: the phase-end watermark follows it.
        """
        loop = asyncio.get_event_loop()
        span = Window(self._grid_start, max(self._grid_end, self._grid_start + 1))
        length = self._window_length_ms
        # Every batch's bounds, first and last timestamps and window, up front.
        starts = _batch_starts(events, length, self._batch_size)
        rows = np.asarray(starts)
        firsts = events.timestamps[rows[:-1]].tolist()
        last_column = events.timestamps[rows[1:] - 1]
        lasts = last_column.tolist()
        # Batches never span a window boundary, so a batch's window index
        # is well-defined by any of its timestamps.
        windows = (last_column // length).tolist()
        seals = [
            following * length if following != window else None
            for window, following in zip(windows, windows[1:])
        ]
        seals.append(None)
        for lo, hi, first_ts, last_ts, window_index, seal in zip(
            starts, starts[1:], firsts, lasts, windows, seals
        ):
            batch = events[lo:hi]
            if self._time_scale > 0:
                target = epoch + (
                    (last_ts - self._grid_start) / _MS_PER_SECOND
                ) * self._time_scale
                delay = target - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
            batch_message = EventBatchMessage(
                sender=self.stream_id,
                window=Window(first_ts, last_ts + 1),
                events=batch,
            )
            watermark_message = None
            if seal is not None:
                watermark_message = WatermarkMessage(
                    sender=self.stream_id, window=span, watermark_time=seal,
                )
            token = None
            if self.wire_tracing:
                # One window per batch ⇒ one trace per batch.
                window_start = window_index * length
                trace_id = trace_id_for_window(window_start)
                if should_sample(trace_id, self._sample_rate):
                    span_id = self.tracer.begin(
                        "live_stream_batch", self.stream_id,
                        loop.time() - clock_zero,
                        window=Window(window_start, window_start + length),
                        trace_id=trace_id,
                        events=len(batch),
                    )
                    token = set_context(TraceContext(trace_id, span_id))
            try:
                # Batch + sealing watermark coalesce into one writev/drain.
                if watermark_message is not None:
                    await stream.send_many((batch_message, watermark_message))
                else:
                    await stream.send(batch_message)
            finally:
                if token is not None:
                    token.var.reset(token)
            if token is not None:
                self.tracer.end(span_id, loop.time() - clock_zero)
            self.events_sent += len(batch)
        await stream.send(
            WatermarkMessage(
                sender=self.stream_id, window=span, watermark_time=seal_to
            )
        )
