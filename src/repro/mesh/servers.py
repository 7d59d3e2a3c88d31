"""Mesh hosts: sharded roots and multi-uplink locals.

Both are thin shells around the unmodified live hosts:

``MeshRootServer``
    A :class:`~repro.runtime.servers.RootServer` whose operator owns only
    the windows its shard is responsible for.  It accepts both ``local``
    and ``relay`` peers, applies membership messages to the operator's
    table, and explodes relay frames back into the per-child originals —
    so the identification and calculation operators run *unmodified* and
    produce exactly the single-root bytes-for-bytes outcomes.

``MeshLocalServer``
    A :class:`~repro.runtime.servers.LocalServer` that holds one uplink
    per shard (flat mode) or a single relay uplink, and routes each
    outgoing frame by its window's owner shard.  The operator still
    addresses everything to root id 0; routing is a host concern.

Streams replay through the flat cluster's
:class:`~repro.runtime.servers.StreamServer`, gated at membership
boundaries: it ships every pre-boundary batch, seals them with a
watermark *at* the boundary, and then waits for the cluster driver to
apply the joins/leaves and open the gate.  Because no post-boundary event
can be in flight before the gate opens, no window at or past the boundary
can complete before every shard has applied the membership change — which
is the whole correctness argument for elastic membership, enforced by
construction instead of by locks.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
from typing import Mapping, Sequence

from repro.errors import TransportError
from repro.network.messages import (
    GammaUpdateMessage,
    HeartbeatMessage,
    JoinMessage,
    LeaveMessage,
    Message,
    RelayRunsMessage,
    RelaySynopsisMessage,
    RouteUpdateMessage,
    ShardFailoverMessage,
    TelemetryDigestMessage,
    TelemetrySnapshotMessage,
    WindowReleaseMessage,
)
from repro.mesh.relay import explode_runs, explode_synopses
from repro.mesh.routing import (
    RELAY_ID_BASE,
    SHARD_ID_BASE,
    ShardMap,
    shard_node_id,
)
from repro.obs.live.context import (
    TraceContext,
    context_scope,
    should_sample,
    trace_id_for_window,
)
from repro.runtime.codec import Hello
from repro.runtime.servers import LocalServer, RootServer
from repro.runtime.transport import MessageStream
from repro.streaming.windows import Window

# Hot-path module: exploded relay sections reach the operators as the
# columnar batches they were decoded into (tests/test_hotpath_lint.py).

__all__ = ["MeshRootServer", "MeshLocalServer"]

#: Placeholder window on membership/heartbeat frames (the wire header
#: needs a valid window; these frames are not about any window).
_CONTROL_WINDOW = Window(0, 1)


class MeshRootServer(RootServer):
    """One root shard: the plain root server plus mesh-frame handling."""

    def __init__(self, node, fabric, *, expected_windows: int,
                 downstream: "Mapping[int, int] | None" = None,
                 uplink=None, **kwargs) -> None:
        super().__init__(node, fabric, expected_windows=expected_windows,
                         **kwargs)
        #: Optional :class:`~repro.obs.fleet.TelemetryUplink`: the shard's
        #: own contribution to the fleet plane (ingress frame sizes as a
        #: digest plus outcome counters).  Shards are collocated with the
        #: collector, so the cluster driver pumps this directly — no wire
        #: hop.
        self.uplink = uplink
        #: Static relay routing: child local id → the peer (relay id)
        #: whose stream carries frames for it.  Empty in flat mode.
        self._downstream: dict[int, int] = dict(downstream or {})
        #: Shards whose window share is empty are born done.
        if expected_windows == 0:
            self.done.set()
        #: Frames addressed to peers this shard has no stream to are
        #: dropped, not fatal: a departed local's release, a gamma
        #: broadcast to a child behind a relay that died, etc.
        self._drop_unroutable = True
        #: Failover state: set by :meth:`crash` (chaos) and by the
        #: coordinator's takeover protocol (:meth:`adopt_windows`).
        self.crashed = False
        self.failover_epoch = 0
        self.windows_adopted = 0
        self._crash_after: int | None = None

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
        asyncio.ensure_future(self.crash())
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

        In-band announcement: locals (flat mode) and relays (who forward
        to their children) converge on the same ``(epoch, dead)`` pair
        and reroute + replay from retained buffers.
        """
        update = ShardFailoverMessage(
            sender=self.node_id,
            window=_CONTROL_WINDOW,
            epoch=shard_map.epoch,
            dead=tuple(sorted(shard_map.dead)),
        )
        for stream in list(self._peers.values()):
            with contextlib.suppress(TransportError):
                await stream.send(update)

    # -- membership & relay frames -------------------------------------

    async def dispatch(
        self, message: Message, context: TraceContext | None = None
    ) -> None:
        if isinstance(message, JoinMessage):
            if self.node.add_local(message.sender, message.first_window_start):
                self._note_membership()
                await self._broadcast_route_update()
            await self.flush()
            return
        if isinstance(message, LeaveMessage):
            if self.node.remove_local(
                message.sender, message.effective_from, self.fabric.now
            ):
                self._note_membership()
                await self._broadcast_route_update()
            # The leave may have completed degraded-eligible windows.
            await self.flush()
            self._account_outcomes()
            return
        if isinstance(message, RelaySynopsisMessage):
            # Each exploded part dispatches under its own section context
            # (captured by the relay at combine time), so the child's
            # spans — not the relay hop's — parent the shard-side work
            # and the window's timeline survives the combine/explode.
            contexts = message.section_contexts
            for index, part in enumerate(explode_synopses(message)):
                part_context = (
                    contexts[index] if index < len(contexts) else None
                )
                await super().dispatch(part, part_context or context)
            return
        if isinstance(message, RelayRunsMessage):
            contexts = message.section_contexts
            for index, part in enumerate(explode_runs(message)):
                part_context = (
                    contexts[index] if index < len(contexts) else None
                )
                await super().dispatch(part, part_context or context)
            return
        await super().dispatch(message, context)

    def _note_membership(self) -> None:
        if self.tracer.enabled:
            now = self.fabric.now
            members = self.node.current_members
            self.tracer.record(
                "mesh_membership", self.node_id, now, now,
                epoch=self.node.membership_epoch, members=len(members),
            )
            self.tracer.registry.gauge(
                "mesh_members",
                "Locals currently admitted to the mesh.",
            ).set(float(len(members)))

    async def _broadcast_route_update(self) -> None:
        update = RouteUpdateMessage(
            sender=self.node_id,
            window=_CONTROL_WINDOW,
            epoch=self.node.membership_epoch,
            members=self.node.current_members,
        )
        for stream in list(self._peers.values()):
            with contextlib.suppress(TransportError):
                await stream.send(update)

    # -- relay-aware outbound routing ----------------------------------

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
        for dst, message in self.fabric.drain():
            peer_id = self._downstream.get(dst, dst)
            if peer_id != dst and isinstance(
                message, (WindowReleaseMessage, GammaUpdateMessage)
            ):
                gamma = getattr(message, "gamma", 0)
                key = (peer_id, type(message), message.window, gamma)
                if key in broadcast_sent:
                    continue
                broadcast_sent.add(key)
                outgoing = message  # group_id 0: relay broadcasts it
            elif peer_id != dst:
                outgoing = dataclasses.replace(message, group_id=dst)
            else:
                outgoing = message
            stream = self._peers.get(peer_id)
            if stream is None:
                self.dropped_sends += 1
                continue
            try:
                await stream.send(outgoing)
            except TransportError:
                self.dropped_sends += 1

    # -- connection handling -------------------------------------------

    async def serve(self, stream: MessageStream) -> None:
        """Connection handler for one dialing local or relay."""
        hello = await self.expect_hello(stream, ("local", "relay"))
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
                    break
                if message is None:
                    break
                if self.crashed:
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
                    # Fleet uplinks ride the data links like heartbeats;
                    # they feed the coordinator's collector, never the
                    # operator.
                    if self._on_telemetry is not None:
                        self._on_telemetry(message)
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
            if self._peers.get(hello.node_id) is stream:
                del self._peers[hello.node_id]


class MeshLocalServer(LocalServer):
    """One local with an uplink per shard (or one relay uplink)."""

    def __init__(self, node, fabric, *, n_shards: int,
                 on_upstream_down=None, uplink=None,
                 uplink_interval_s: float = 0.25, **kwargs) -> None:
        super().__init__(node, fabric, dial_root=None, **kwargs)
        self._n_shards = n_shards
        #: Peer id → dialed stream; a single entry in relay mode.
        self._upstreams: dict[int, MessageStream] = {}
        #: Set iff the only upstream is a relay: constant-route fast path.
        self._relay_peer: int | None = None
        self._reader_tasks: list[asyncio.Task] = []
        self._mesh_heartbeat_task: asyncio.Task | None = None
        #: Optional :class:`~repro.obs.fleet.TelemetryUplink`.  ``None``
        #: (the default) starts no uplink task and ships zero telemetry
        #: bytes — the bit-identity configuration.
        self.uplink = uplink
        self._uplink_interval = uplink_interval_s
        self._telemetry_task: asyncio.Task | None = None
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
        self.failovers_seen = 0
        self.fenced_frames = 0

    async def connect_upstreams(
        self,
        upstreams: "Mapping[int, MessageStream]",
        *,
        join_from: int | None = None,
    ) -> None:
        """Adopt the dialed uplinks, announce, and start reading them.

        ``join_from`` marks a runtime joiner: a
        :class:`~repro.network.messages.JoinMessage` goes out FIFO-first
        on every uplink, so no shard can see the joiner's data before its
        membership.
        """
        self._upstreams = dict(upstreams)
        if len(self._upstreams) == 1:
            only = next(iter(self._upstreams))
            if only >= RELAY_ID_BASE:
                self._relay_peer = only
        for peer_id, stream in self._upstreams.items():
            self.register_peer(peer_id, stream)
            await stream.send(Hello(node_id=self.node_id, role="local"))
            if join_from is not None:
                await stream.send(
                    JoinMessage(
                        sender=self.node_id,
                        window=_CONTROL_WINDOW,
                        first_window_start=join_from,
                    )
                )
        for peer_id, stream in self._upstreams.items():
            task = asyncio.ensure_future(
                self._read_upstream(peer_id, stream)
            )
            self._reader_tasks.append(task)
        if self._tolerance is not None:
            self._mesh_heartbeat_task = asyncio.ensure_future(
                self._mesh_heartbeats()
            )
        if self.uplink is not None:
            self._telemetry_task = asyncio.ensure_future(
                self._telemetry_uplink()
            )

    async def announce_leave(self, effective_from: int) -> None:
        """Tell every upstream this local serves no window past the mark."""
        for stream in self._upstreams.values():
            with contextlib.suppress(TransportError):
                await stream.send(
                    LeaveMessage(
                        sender=self.node_id,
                        window=_CONTROL_WINDOW,
                        effective_from=effective_from,
                    )
                )

    async def _read_upstream(
        self, peer_id: int, stream: MessageStream
    ) -> None:
        try:
            while True:
                try:
                    message = await stream.recv()
                except TransportError:
                    if self._tolerance is None:
                        raise
                    self._report_upstream_down(peer_id)
                    return
                if message is None:
                    self._report_upstream_down(peer_id)
                    return
                if self._is_fenced(peer_id):
                    # A dead shard resurrecting cannot speak for windows
                    # that already moved: everything it says is stale.
                    self.fenced_frames += 1
                    continue
                if isinstance(message, ShardFailoverMessage):
                    await self._on_shard_failover(message)
                    continue
                if isinstance(message, RouteUpdateMessage):
                    self.route_epochs[peer_id] = max(
                        self.route_epochs.get(peer_id, 0), message.epoch
                    )
                    continue
                if isinstance(message, HeartbeatMessage):
                    continue
                if self.uplink is not None and isinstance(
                    message, WindowReleaseMessage
                ):
                    self._observe_release(message.window)
                await self.dispatch(message, stream.last_context)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            if self._failures is None:
                raise
            self._failures.record(exc)

    def _is_fenced(self, peer_id: int) -> bool:
        """Whether ``peer_id`` is a shard the current epoch declares dead."""
        if not SHARD_ID_BASE <= peer_id < RELAY_ID_BASE:
            return False
        return not self._shard_map.is_live(peer_id - SHARD_ID_BASE)

    def _report_upstream_down(self, peer_id: int) -> None:
        """Hand link-death evidence for a shard uplink to the coordinator."""
        if self._closing or self._crashed:
            return
        if self._on_upstream_down is None:
            return
        if SHARD_ID_BASE <= peer_id < RELAY_ID_BASE:
            self._on_upstream_down(peer_id - SHARD_ID_BASE)

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
        if self.wire_tracing:
            await self._replay_traced(message.epoch)
        else:
            self.node.replay_pending(self.fabric.now)
            await self.flush()

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

    async def _telemetry_uplink(self) -> None:
        """Summarize-and-send loop: this node's metrics, in-band.

        Every interval the node refreshes its flat stats (window
        progress, staleness, drop counters), samples its own event-loop
        lag, and ships the cumulative digests + snapshot on the first
        live upstream — telemetry piggybacks on connections that already
        exist, exactly like heartbeats, so partitions and failover
        exercise it for free.
        """
        uplink = self.uplink
        assert uplink is not None
        loop = asyncio.get_event_loop()
        while not self._closing:
            before = loop.time()
            await asyncio.sleep(self._uplink_interval)
            if self._crashed:
                continue
            lag = loop.time() - before - self._uplink_interval
            uplink.observe("event_loop_lag_s", max(0.0, lag))
            self.refresh_uplink_stats()
            await self.send_telemetry(uplink.build(_CONTROL_WINDOW))

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

    async def _mesh_heartbeats(self) -> None:
        """Liveness beacons on every uplink (relays forward verbatim)."""
        assert self._tolerance is not None
        interval = self._tolerance.heartbeat_interval_s
        while not self._closing:
            await asyncio.sleep(interval)
            if self._crashed:
                continue
            self._heartbeat_seq += 1
            beat = HeartbeatMessage(
                sender=self.node_id,
                window=_CONTROL_WINDOW,
                sequence=self._heartbeat_seq,
            )
            for stream in self._upstreams.values():
                with contextlib.suppress(TransportError):
                    await stream.send(beat)

    async def _replay_traced(self, epoch: int) -> None:
        """Replay retained windows, one failover span per window.

        Each replayed window's frames travel under a fresh
        ``live_failover_replay`` span carrying the window's trace id and
        the new shard-map epoch, so the successor shard's dispatch spans
        parent onto it and the stitched timeline spans both the dead
        shard's work and its adopter's.
        """
        self.node.replay_pending(self.fabric.now)
        by_window: "dict[Window, list[tuple[int, Message]]]" = {}
        for dst, message in self.fabric.drain():
            by_window.setdefault(message.window, []).append((dst, message))
        for window in sorted(by_window, key=lambda w: w.start):
            trace_id = trace_id_for_window(window.start)
            if should_sample(trace_id, self._sample_rate):
                now = self.fabric.now
                span_id = self.tracer.begin(
                    "live_failover_replay", self.node_id, now,
                    window=window, trace_id=trace_id, epoch=epoch,
                )
                with context_scope(TraceContext(trace_id, span_id)):
                    await self._send_routed(by_window[window])
                self.tracer.end(span_id, self.fabric.now)
            else:
                await self._send_routed(by_window[window])

    async def flush(self) -> None:
        """Route each queued frame to its window's owner shard.

        The operator addresses the root as id 0; the host resolves that
        to the relay uplink, or to ``shard_of`` the frame's window.
        """
        await self._send_routed(self.fabric.drain())

    async def _send_routed(
        self, pairs: "Sequence[tuple[int, Message]]"
    ) -> None:
        for dst, message in pairs:
            peer_id = dst
            if dst == 0:
                if self._relay_peer is not None:
                    peer_id = self._relay_peer
                else:
                    peer_id = shard_node_id(self._shard_map.owner(
                        message.window.start, self._window_length_ms,
                    ))
            stream = self._upstreams.get(peer_id) or self._peers.get(peer_id)
            if stream is None:
                if self._drop_unroutable:
                    self.dropped_sends += 1
                    continue
                raise TransportError(
                    f"local {self.node_id} has no uplink to peer {peer_id}"
                )
            try:
                await stream.send(message)
            except TransportError:
                if not self._drop_unroutable:
                    raise
                self.dropped_sends += 1

    async def crash_mesh(self) -> None:
        """Abrupt death: stop heartbeats and drop every uplink."""
        self._crashed = True
        self.crashes += 1
        await self._stop_mesh_tasks()
        for stream in self._upstreams.values():
            with contextlib.suppress(TransportError):
                await stream.close()

    async def _stop_mesh_tasks(self) -> None:
        tasks = list(self._reader_tasks)
        if self._mesh_heartbeat_task is not None:
            tasks.append(self._mesh_heartbeat_task)
            self._mesh_heartbeat_task = None
        if self._telemetry_task is not None:
            tasks.append(self._telemetry_task)
            self._telemetry_task = None
        self._reader_tasks = []
        for task in tasks:
            task.cancel()
        for task in tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task

    async def shutdown(self) -> None:
        self._closing = True
        await self._stop_mesh_tasks()
        await super().shutdown()

