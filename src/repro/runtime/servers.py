"""Node servers: the Dema operators as live asyncio tasks.

Three hosts mirror the simulated three-layer topology:

``StreamServer``
    Replays one sensor's share of the workload into its local node —
    batches that never span a window boundary, a
    :class:`~repro.network.messages.WatermarkMessage` carrying the last
    event timestamp with the first batch of each window (later watermarks
    inside the same window cannot seal anything new, so they are not
    sent), and a final watermark that seals every window.

``LocalServer``
    Wraps an **unmodified** :class:`~repro.core.local_node.DemaLocalNode`.
    Event batches go straight into the operator; watermarks are a host
    concern: the server seals each tumbling window of the agreed grid once
    the *minimum* watermark over its attached streams has passed the
    window end, which guarantees no event is ever late.

``RootServer``
    Wraps an unmodified :class:`~repro.core.root_node.DemaRootNode` and
    signals completion once every expected grid window has an outcome.

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
import heapq
import random
from typing import Awaitable, Callable, Mapping

import numpy as np

from repro.errors import TransportError
from repro.faults.plan import ToleranceConfig
from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    EventBatchMessage,
    HeartbeatMessage,
    Message,
    QueryResultMessage,
    ResultMessage,
    SynopsisMessage,
    TelemetryDigestMessage,
    TelemetrySnapshotMessage,
    WatermarkMessage,
    WindowReleaseMessage,
)
from repro.network.simulator import SimulatedNode
from repro.obs.events import MessageTrace
from repro.obs.live.context import (
    TraceContext,
    context_scope,
    should_sample,
    trace_id_for_window,
)
from repro.obs.tracer import NOOP_TRACER, Tracer
from repro.runtime.codec import Hello
from repro.runtime.transport import FailureLatch, MessageStream
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window

# Hot-path module: event batches stay columnar from workload to window,
# and no per-event ``Event`` objects are constructed here (enforced by
# tests/test_hotpath_lint.py).

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

#: Placeholder window on heartbeat frames (heartbeats are not about any
#: window, but the wire header needs a valid one).
_HEARTBEAT_WINDOW = Window(0, 1)

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
            if self._halted:
                return
            action(self.now)
            if self.on_timer is not None:
                self.on_timer()

        self._loop.call_later(delay, fire)

    def halt(self) -> None:
        """Stop firing scheduled actions: the owning host crashed.

        A killed shard's armed reliability timers must not keep mutating
        its operator — the takeover protocol snapshots the dead node's
        answered windows, and a post-mortem timer answering one more
        window would race that snapshot.
        """
        self._halted = True

    def drain(self) -> list[tuple[int, Message]]:
        """Take every queued ``(dst, message)`` pair."""
        queued, self._outbox = self._outbox, []
        return queued


class NodeHost:
    """Shared machinery: one operator, one fabric, streams to peers."""

    def __init__(self, node: SimulatedNode, fabric: LiveFabric,
                 tracer: Tracer = NOOP_TRACER, *,
                 drop_unroutable: bool = False,
                 failures: FailureLatch | None = None,
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
        if self.wire_tracing and context is not None and context.sampled:
            name = _LIVE_SPAN_NAMES.get(type(message), "live_dispatch")
            span_id = self.tracer.begin(
                name, self.node_id, now,
                window=message.window,
                parent=context.span_id,
                trace_id=context.trace_id,
                wire_bytes=message.wire_bytes,
            )
            with context_scope(context.child(span_id)):
                self.node.on_message(message, now)
                await self.flush()
            self.tracer.end(span_id, self.fabric.now)
        else:
            self.node.on_message(message, now)
            await self.flush()

    async def flush(self) -> None:
        """Ship every message the operator queued on the fabric.

        Consecutive messages to the same destination coalesce into one
        ``send_many`` — one writev + one drain on TCP instead of a write
        and drain per frame (candidate serves and synopsis fan-out queue
        many frames per destination in a row).
        """
        queued = self.fabric.drain()
        i, n = 0, len(queued)
        while i < n:
            dst = queued[i][0]
            j = i + 1
            while j < n and queued[j][0] == dst:
                j += 1
            group = [message for _, message in queued[i:j]]
            i = j
            stream = self._peers.get(dst)
            if stream is None:
                if self._drop_unroutable:
                    self.dropped_sends += len(group)
                    continue
                raise TransportError(
                    f"node {self.node_id} has no stream to peer {dst}"
                )
            send_many = getattr(stream, "send_many", None)
            if len(group) > 1 and send_many is not None:
                try:
                    await send_many(group)
                except TransportError:
                    if not self._drop_unroutable:
                        raise
                    self.dropped_sends += len(group)
                continue
            for message in group:
                try:
                    await stream.send(message)
                except TransportError:
                    if not self._drop_unroutable:
                        raise
                    self.dropped_sends += 1

    def _on_fabric_timer(self) -> None:
        """Timer actions queue messages; spawn a task to flush them."""
        with contextlib.suppress(RuntimeError):  # event loop closing
            asyncio.ensure_future(self._flush_after_timer())

    async def _flush_after_timer(self) -> None:
        try:
            await self.flush()
            self._after_timer_flush()
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            if self._failures is None:
                raise
            self._failures.record(exc)

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
    """Hosts the Dema root; completes once every grid window answered.

    With a :class:`~repro.faults.plan.ToleranceConfig` the server also
    plays failure detector: it tracks the last time each local was heard
    from (heartbeats or protocol traffic), counts missed beats, and past
    the silence threshold declares the local dead — the root operator then
    re-plans its open windows over the survivors and answers them with a
    completeness fraction below 1.  A returning local's fresh ``Hello``
    reverses the verdict and, when the hello carries a resume cursor, gets
    a catch-up release so the local can prune its retained state.
    """

    def __init__(self, node, fabric: LiveFabric, *, expected_windows: int,
                 tracer: Tracer = NOOP_TRACER,
                 tolerance: ToleranceConfig | None = None,
                 failures: FailureLatch | None = None,
                 wire_tracing: bool = False,
                 echo_heartbeats: bool = False,
                 query_plane=None,
                 on_telemetry=None) -> None:
        super().__init__(node, fabric, tracer,
                         drop_unroutable=tolerance is not None,
                         failures=failures, wire_tracing=wire_tracing)
        self._expected_windows = expected_windows
        self._tolerance = tolerance
        #: Optional fleet-telemetry sink: uplinked
        #: ``TelemetrySnapshotMessage``/``TelemetryDigestMessage`` frames
        #: are handed here (usually ``FleetCollector.on_message``) and
        #: never reach the operator.  ``None`` drops them.
        self._on_telemetry = on_telemetry
        #: Optional :class:`~repro.queries.root.RootQueryPlane`: handles
        #: driver connections and every ``group_id != 0`` frame.
        self._query_plane = query_plane
        #: Durable-plane result writers: client id → the event that
        #: wakes its connection's log-drain task when new results land.
        self._driver_wakeups: dict[int, asyncio.Event] = {}
        #: Telemetry: bounce each heartbeat back so the local can measure
        #: round-trip time.  Off by default — the echo is extra traffic.
        self._echo_heartbeats = echo_heartbeats
        self.done = asyncio.Event()
        #: Wall-clock (fabric) completion time per finished window.
        self.result_walls: dict[Window, float] = {}
        #: Fabric time each local was last heard from (tolerant mode).
        self.last_seen: dict[int, float] = {}
        self.heartbeat_misses = 0
        self.locals_declared_dead = 0
        self.reconnect_hellos = 0
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
        outcomes = self.node.outcomes
        for outcome in outcomes[self._accounted:]:
            self.result_walls[outcome.window] = self.fabric.now
        self._accounted = len(outcomes)
        if len(outcomes) + self.node.aborted_windows >= self._expected_windows:
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
            stream = self._peers.get(dst)
            if stream is None:
                self.dropped_sends += 1
                continue
            try:
                await stream.send(reply)
            except TransportError:
                self.dropped_sends += 1

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
            writer = asyncio.ensure_future(
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
                writer.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await writer
            if wake is not None and self._driver_wakeups.get(client_id) is wake:
                del self._driver_wakeups[client_id]
            if self._peers.get(client_id) is stream:
                del self._peers[client_id]
            await self._ship_plane(plane.on_client_gone(client_id))

    async def serve(self, stream: MessageStream) -> None:
        """Connection handler for one dialing local node or driver."""
        roles = (
            ("local", "driver") if self._query_plane is not None
            else "local"
        )
        hello = await self.expect_hello(stream, roles)
        if hello.role == "driver":
            await self._serve_driver(hello, stream)
            return
        self.register_peer(hello.node_id, stream)
        if self._tolerance is not None:
            self._on_local_hello(hello)
            await self.flush()
            self._account_outcomes()
        try:
            while True:
                try:
                    message = await stream.recv()
                except TransportError:
                    if self._tolerance is None:
                        raise
                    break  # link severed mid-frame; the local will redial
                if message is None:
                    break
                if isinstance(message, Hello):
                    raise TransportError("unexpected second hello")
                if self._tolerance is not None:
                    self._observe(message.sender)
                    if isinstance(message, HeartbeatMessage):
                        if self._echo_heartbeats:
                            with contextlib.suppress(TransportError):
                                await stream.send(message)
                        continue
                if isinstance(
                    message, (TelemetrySnapshotMessage, TelemetryDigestMessage)
                ):
                    # In-band fleet telemetry rides the local link the way
                    # heartbeats do; it is collector traffic, never operator
                    # input.
                    if self._on_telemetry is not None:
                        self._on_telemetry(message)
                    continue
                if message.group_id != 0 and self._query_plane is not None:
                    # Query-plane traffic multiplexed on the local link:
                    # handled by the plane, never by the base operator.
                    self._note_plane_message(message)
                    await self._ship_plane(
                        self._query_plane.on_local_message(message)
                    )
                    continue
                await self.dispatch(message, stream.last_context)
                self._account_outcomes()
        finally:
            # Only unregister if a reconnect has not already replaced us.
            if self._peers.get(hello.node_id) is stream:
                del self._peers[hello.node_id]

    def start_monitor(self) -> None:
        """Start the heartbeat monitor task (tolerant mode only)."""
        if self._tolerance is None or self._monitor_task is not None:
            return
        self._monitor_task = asyncio.ensure_future(self._monitor())

    async def stop_monitor(self) -> None:
        if self._monitor_task is None:
            return
        self._monitor_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._monitor_task
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
        try:
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
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        self._monitor_wake.wait(), timeout
                    )
                self._monitor_wake.clear()
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            if self._failures is None:
                raise
            self._failures.record(exc)


class LocalServer(NodeHost):
    """Hosts one Dema local node plus its watermark-driven window sealing.

    The simulator's driver announces window ends with perfect knowledge;
    live, the host reconstructs the same announcements from stream
    watermarks: every window ``[s, s + L)`` of the agreed grid is sealed
    once ``min(watermarks) >= s + L``.  Because each stream's events are
    FIFO-ordered before its watermark and timestamps are non-decreasing,
    no event for a sealed window can still be in flight.
    """

    def __init__(self, node, fabric: LiveFabric, *, expected_streams: int,
                 grid_start: int, grid_end: int, window_length_ms: int,
                 tracer: Tracer = NOOP_TRACER,
                 tolerance: ToleranceConfig | None = None,
                 dial_root: Callable[
                     [], Awaitable[MessageStream]
                 ] | None = None,
                 failures: FailureLatch | None = None,
                 wire_tracing: bool = False,
                 sample_rate: float = 1.0,
                 query_plane=None) -> None:
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
        self._root_task: asyncio.Task | None = None
        self._tolerance = tolerance
        self._dial_root = dial_root
        self._root_stream: MessageStream | None = None
        self._heartbeat_task: asyncio.Task | None = None
        self._heartbeat_seq = 0
        #: Head-based sampling rate for the trace roots this host opens
        #: (the per-window synopsis seal).
        self._sample_rate = sample_rate
        #: Fabric send time by heartbeat sequence, for RTT on echoes.
        self._heartbeat_sent: dict[int, float] = {}
        self._closing = False
        self._crashed = False
        self._resumed = asyncio.Event()
        self._rng = random.Random(f"reconnect:{node.node_id}")
        self.reconnects = 0
        self.crashes = 0

    async def connect_root(self, root_stream: MessageStream) -> None:
        """Register and announce ourselves on the dialed root stream."""
        await self._attach_root(root_stream)
        self._start_root_task()

    def _start_root_task(self) -> None:
        self._root_task = asyncio.ensure_future(self._guarded_read_root())

    async def _attach_root(self, stream: MessageStream) -> None:
        """Adopt ``stream`` as the root session and announce ourselves.

        The hello carries the resume cursor (last released window end) so
        a reconnecting local gets a catch-up release; replaying the pending
        (unacknowledged) windows right after restores anything the outage
        swallowed — the root deduplicates, so this is safe on a fresh
        connection too.
        """
        self._root_stream = stream
        self.register_peer(0, stream)
        resume = self.node.last_release_end if self._tolerance else -1
        await stream.send(
            Hello(node_id=self.node_id, role="local", resume_from=resume)
        )
        if self._tolerance is not None:
            self.node.replay_pending(self.fabric.now)
            await self.flush()
            self._start_heartbeats()

    async def _guarded_read_root(self) -> None:
        try:
            await self._read_root()
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            if self._failures is None:
                raise
            self._failures.record(exc)

    async def _read_root(self) -> None:
        """Candidate requests, gamma updates and releases from the root.

        In tolerant mode an EOF (or mid-frame death) of the root session is
        not fatal: the local redials with exponential backoff and resumes.
        """
        while True:
            stream = self._root_stream
            if stream is None:
                return
            try:
                message = await stream.recv()
            except TransportError:
                if self._tolerance is None:
                    raise
                message = None  # link died mid-frame: treat as EOF
            if message is not None:
                if isinstance(message, HeartbeatMessage):
                    # Telemetry echo from the root: close the RTT loop.
                    self._record_heartbeat_rtt(message.sequence)
                    continue
                if message.group_id != 0 and self._query_plane is not None:
                    # Query-plane traffic multiplexed on the root link.
                    self._note_plane_message(message)
                    await self._ship_plane(
                        self._query_plane.on_root_message(message)
                    )
                    continue
                await self.dispatch(message, stream.last_context)
                continue
            if self._closing or self._crashed or self._tolerance is None:
                return
            if not await self._reconnect():
                raise TransportError(
                    f"local {self.node_id} exhausted "
                    f"{self._tolerance.reconnect_max_attempts} "
                    "reconnect attempts to the root"
                )

    async def _reconnect(self) -> bool:
        """Redial the root with exponential backoff + jitter."""
        tolerance = self._tolerance
        if tolerance is None or self._dial_root is None:
            return False
        for attempt in range(tolerance.reconnect_max_attempts):
            delay = min(
                tolerance.reconnect_max_delay_s,
                tolerance.reconnect_base_delay_s * (2 ** attempt),
            )
            delay *= 1.0 + tolerance.reconnect_jitter * self._rng.random()
            await asyncio.sleep(delay)
            if self._closing or self._crashed:
                return True  # crash()/shutdown() owns the session now
            try:
                stream = await self._dial_root()
            except TransportError:
                continue  # root unreachable (e.g. partition); back off more
            await self._attach_root(stream)
            self.reconnects += 1
            if self.tracer.enabled:
                now = self.fabric.now
                self.tracer.record(
                    "fault_reconnect", self.node_id, now, now,
                    attempt=attempt + 1,
                )
            return True
        return False

    def _start_heartbeats(self) -> None:
        if self._tolerance is None:
            return
        if self._heartbeat_task is None or self._heartbeat_task.done():
            self._heartbeat_task = asyncio.ensure_future(self._heartbeats())

    async def _heartbeats(self) -> None:
        """Periodic liveness beacons on the current root session."""
        assert self._tolerance is not None
        interval = self._tolerance.heartbeat_interval_s
        while not self._closing:
            await asyncio.sleep(interval)
            stream = self._root_stream
            if stream is None or self._crashed:
                continue
            self._heartbeat_seq += 1
            self._heartbeat_sent[self._heartbeat_seq] = self.fabric.now
            if len(self._heartbeat_sent) > 64:  # unechoed beats: cap it
                self._heartbeat_sent.pop(min(self._heartbeat_sent))
            with contextlib.suppress(TransportError):
                await stream.send(
                    HeartbeatMessage(
                        sender=self.node_id,
                        window=_HEARTBEAT_WINDOW,
                        sequence=self._heartbeat_seq,
                    )
                )

    def _record_heartbeat_rtt(self, sequence: int) -> None:
        sent = self._heartbeat_sent.pop(sequence, None)
        if sent is None or not self.tracer.enabled:
            return
        self.tracer.registry.histogram(
            "live_heartbeat_rtt_seconds",
            "Heartbeat round-trip time local -> root -> local.",
            node=str(self.node_id),
        ).observe(max(0.0, self.fabric.now - sent))

    async def _stop_heartbeats(self) -> None:
        if self._heartbeat_task is None:
            return
        self._heartbeat_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._heartbeat_task
        self._heartbeat_task = None

    async def crash(self) -> None:
        """Simulate abrupt process death: stop all activity, drop links.

        Operator state survives (the model is a stalled/frozen process,
        the worst case for the protocol's timers); :meth:`restart` brings
        the node back through the normal reconnect + resume path.
        """
        self._crashed = True
        self.crashes += 1
        self._resumed = asyncio.Event()
        await self._stop_heartbeats()
        if self._root_task is not None:
            self._root_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._root_task
            self._root_task = None
        if self._root_stream is not None:
            with contextlib.suppress(TransportError):
                await self._root_stream.close()

    async def restart(self) -> None:
        """Come back up: redial the root and resume the session."""
        self._crashed = False
        if not await self._reconnect():
            raise TransportError(
                f"local {self.node_id} could not re-reach the root "
                "after restarting"
            )
        self._start_root_task()
        self._resumed.set()

    async def serve(self, stream: MessageStream) -> None:
        """Connection handler for one dialing stream server."""
        hello = await self.expect_hello(stream, "stream")
        self.register_peer(hello.node_id, stream)
        while (message := await stream.recv()) is not None:
            if self._crashed:
                # A crashed process consumes nothing; the bounded pipe
                # backpressures the sender until restart() resumes us.
                await self._resumed.wait()
            if isinstance(message, WatermarkMessage):
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
            elif isinstance(message, EventBatchMessage):
                if self._query_plane is not None:
                    self._query_plane.ingest(message.events)
                await self.dispatch(message, stream.last_context)
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
                    scope = context_scope(
                        TraceContext(trace_id, span_id)
                    )
                    with scope:
                        self.node.on_window_complete(window, now)
                        self.seal_walls[window] = now
                        self._next_start += length
                        await self.flush()
                    self.tracer.end(span_id, self.fabric.now)
                    continue
            self.node.on_window_complete(window, now)
            self.seal_walls[window] = now
            self._next_start += length
            await self.flush()

    async def _advance_query_plane(self) -> None:
        """Seal query-group windows behind the min stream watermark."""
        plane = self._query_plane
        if plane is None or len(self._watermarks) < self._expected_streams:
            return
        watermark = min(self._watermarks.values())
        await self._ship_plane(plane.on_watermark(watermark))

    async def _ship_plane(self, messages: "list[Message]") -> None:
        """Send query-plane messages to the root session."""
        stream = self._peers.get(0)
        for reply in messages:
            if stream is None:
                self.dropped_sends += 1
                continue
            try:
                await stream.send(reply)
            except TransportError:
                self.dropped_sends += 1

    async def shutdown(self) -> None:
        """Stop listening to the root (called by the cluster on teardown)."""
        self._closing = True
        await self._stop_heartbeats()
        if self._root_task is not None:
            self._root_task.cancel()
            try:
                await self._root_task
            except asyncio.CancelledError:
                pass
            self._root_task = None


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
    n = len(events)
    if not n:
        return []
    size = max(1, batch_size)
    windows = events.timestamps // window_length_ms
    run_starts = np.flatnonzero(windows[1:] != windows[:-1]) + 1
    bounds = [0, *run_starts.tolist(), n]
    return [
        events[i:min(i + size, hi)]
        for lo, hi in zip(bounds, bounds[1:])
        for i in range(lo, hi, size)
    ]


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
    server); without gates the replay is one phase and any order goes.
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

        A watermark is emitted only with the *first* batch of each window,
        not with every batch: the local server seals on
        ``min(watermarks) >= window end``, and a watermark whose time lies
        inside window ``w`` can only ever satisfy that predicate for
        windows ending at or before ``w.start`` — which the first
        watermark of ``w`` already sealed.  Intra-window watermarks are
        pure overhead (they used to double the stream → local frame
        count), and dropping them leaves every seal on exactly the same
        received frame as before.
        """
        loop = asyncio.get_event_loop()
        span = Window(self._grid_start, max(self._grid_end, self._grid_start + 1))
        length = self._window_length_ms
        watermarked_window: int | None = None
        send_many = getattr(stream, "send_many", None)
        for batch in batches_for(events, length, self._batch_size):
            first_ts = batch.timestamp_at(0)
            last_ts = batch.timestamp_at(-1)
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
            # Batches never span a window boundary, so the batch's window
            # index is well-defined by any of its timestamps.
            window_index = last_ts // length
            watermark_message = None
            if window_index != watermarked_window:
                watermarked_window = window_index
                watermark_message = WatermarkMessage(
                    sender=self.stream_id, window=span,
                    watermark_time=last_ts,
                )
            span_id = 0
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
                    with context_scope(TraceContext(trace_id, span_id)):
                        # Batch + sealing watermark coalesce into one
                        # writev/drain when the transport supports it.
                        if watermark_message is not None and send_many:
                            await send_many(
                                (batch_message, watermark_message)
                            )
                        else:
                            await stream.send(batch_message)
                            if watermark_message is not None:
                                await stream.send(watermark_message)
                    self.tracer.end(span_id, loop.time() - clock_zero)
            if not span_id:
                if watermark_message is not None and send_many:
                    await send_many((batch_message, watermark_message))
                else:
                    await stream.send(batch_message)
                    if watermark_message is not None:
                        await stream.send(watermark_message)
            self.events_sent += len(batch)
        await stream.send(
            WatermarkMessage(
                sender=self.stream_id, window=span, watermark_time=seal_to
            )
        )
