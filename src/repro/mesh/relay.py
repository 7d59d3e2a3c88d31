"""Relay tier: merge children's frames so root ingress scales with relays.

A relay sits between a group of locals and every root shard.  Downstream
it looks exactly like the root (children dial it and speak the unmodified
local protocol); upstream it looks like a single very productive local.
Its one job is *combining*: the per-window synopsis batches of its
children become one :class:`~repro.network.messages.RelaySynopsisMessage`
of sections holding the same synopsis sections (local size, γ, slice
boundaries) the children sent, and candidate runs become one
:class:`~repro.network.messages.RelayRunsMessage`.  The root explodes the
sections back into the identical per-child frames, so the operators on
both ends run unmodified and the quantile values stay bit-identical —
the relay saves frame headers, not information.

Combining waits for every window-eligible child, but never indefinitely:
a flush deadline (:attr:`~repro.mesh.config.MeshConfig.relay_flush_s`)
forwards whatever has arrived, and anything after that travels as a
singleton frame.  A crashed child can therefore delay a relay frame by
one deadline, never stall it — degradation is the root's call, made by
its failure detector on the heartbeats the relay forwards verbatim.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses

from repro.errors import TransportError
from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    GammaUpdateMessage,
    HeartbeatMessage,
    JoinMessage,
    LeaveMessage,
    Message,
    RelayRunsMessage,
    RelaySynopsisMessage,
    RouteUpdateMessage,
    ShardFailoverMessage,
    SynopsisMessage,
    SynopsisRequestMessage,
    TelemetryDigestMessage,
    TelemetrySnapshotMessage,
    WindowReleaseMessage,
)
from repro.mesh.routing import ShardMap, relay_node_id
from repro.obs.fleet.uplink import pump
from repro.obs.live.context import TraceContext, trace_id_for_window
from repro.obs.tracer import NOOP_TRACER, Tracer
from repro.runtime.codec import Hello
from repro.runtime.transport import FailureLatch, MessageStream
from repro.streaming.windows import CONTROL_WINDOW, Window

__all__ = [
    "combine_synopses",
    "combine_runs",
    "explode_synopses",
    "explode_runs",
    "RelayServer",
]

# Hot-path module: candidate runs are combined and exploded as the
# columnar batches the codec decoded (tests/test_hotpath_lint.py).


def combine_synopses(
    parts: "dict[int, SynopsisMessage]", sender: int, window: Window,
    contexts: "dict[int, TraceContext | None] | None" = None,
) -> RelaySynopsisMessage:
    """Merge per-child synopsis messages into one relay frame.

    Sections are ordered by child id so the same inputs always produce
    the same bytes.  ``contexts`` (child → the trace context that child's
    frame carried) stamps one section context per section in the same
    order; they travel in the frame's header extension block, so the
    payload bytes — and old peers' decoding — are unchanged.
    """
    children = sorted(parts)
    sections = tuple(
        (child, parts[child].local_window_size, parts[child].synopses)
        for child in children
    )
    section_contexts = (
        tuple(contexts.get(child) for child in children) if contexts else ()
    )
    return RelaySynopsisMessage(
        sender=sender, window=window, sections=sections,
        section_contexts=section_contexts,
    )


def combine_runs(
    parts: "dict[tuple[int, int], CandidateEventsMessage]",
    sender: int,
    window: Window,
    contexts: "dict[tuple[int, int], TraceContext | None] | None" = None,
) -> RelayRunsMessage:
    """Merge per-child candidate runs into one relay frame."""
    keys = sorted(parts)
    sections = tuple(
        (child, index, parts[child, index].events) for child, index in keys
    )
    section_contexts = (
        tuple(contexts.get(key) for key in keys) if contexts else ()
    )
    return RelayRunsMessage(
        sender=sender, window=window, sections=sections,
        section_contexts=section_contexts,
    )


def explode_synopses(
    message: RelaySynopsisMessage,
) -> "list[SynopsisMessage]":
    """Reconstruct the per-child synopsis frames a relay combined.

    The result is exactly what each child would have sent directly —
    each section's batch passes through as decoded, columnar — so the
    identification operator cannot tell a relay was involved.
    """
    return [
        SynopsisMessage(
            sender=node_id,
            window=message.window,
            synopses=synopses,
            local_window_size=size,
        )
        for node_id, size, synopses in message.sections
    ]


def explode_runs(message: RelayRunsMessage) -> "list[CandidateEventsMessage]":
    """Reconstruct the per-child candidate-run frames a relay combined.

    Each section's value run passes through as decoded — a ``float64``
    view off the wire — so a run that crossed a relay reaches the root's
    calculation in the same form as one sent directly.
    """
    return [
        CandidateEventsMessage(
            sender=node_id,
            window=message.window,
            slice_index=slice_index,
            events=values,
        )
        for node_id, slice_index, values in message.sections
    ]


class RelayServer:
    """One relay: children dial down, the relay dials every shard up.

    Not a :class:`~repro.runtime.servers.NodeHost` — a relay hosts no
    operator.  It is pure forwarding machinery with two combine buffers
    (synopses up, candidate runs up) and a broadcast fan-out (releases
    and gamma updates down).

    Routing conventions on the shard links:

    * upward frames carry ``group_id`` 0 and the relay's own sender id on
      the outer frame (inner sections keep the children's ids);
    * downward frames from a shard carry the destination child in
      ``group_id`` (reset to 0 before forwarding, so children see exactly
      the frames a direct root would send); ``group_id`` 0 means
      broadcast to every connected child.

    Membership messages pass through unmodified — but the relay applies
    them to its own eligibility table *first*, so by the time any shard
    has admitted a joiner the relay already waits for (or has stopped
    waiting for) the right children.
    """

    def __init__(self, index: int, *, window_length_ms: int, n_shards: int,
                 children: "tuple[int, ...]" = (),
                 flush_after_s: float = 1.0,
                 tracer: Tracer = NOOP_TRACER,
                 failures: FailureLatch,
                 on_shard_down=None,
                 uplink=None,
                 uplink_interval_s: float = 0.25) -> None:
        self.index = index
        self.node_id = relay_node_id(index)
        self._length = window_length_ms
        self._n_shards = n_shards
        #: Epoch-versioned shard liveness; upward frames route by owner.
        self._shard_map = ShardMap(max(1, n_shards))
        #: Coordinator callback ``(shard_index) -> None`` fired when an
        #: uplink to a shard dies (failure-detection evidence).
        self._on_shard_down = on_shard_down
        self._flush_after_s = flush_after_s
        self.tracer = tracer
        self._failures = failures
        self._loop = asyncio.get_event_loop()
        #: Connected children and their streams.
        self._children: dict[int, MessageStream] = {}
        #: Children whose report a window waits for: the group's founding
        #: members from the start — *before* they connect, or a child that
        #: reports while its siblings are still dialing is flushed alone
        #: and the rest of the group rides the flush deadline — plus
        #: whoever connects later (joiners), minus whoever disconnects.
        self._awaited: set[int] = set(children)
        #: Elastic eligibility, mirroring the root's membership table.
        self._joined_from: dict[int, int] = {}
        self._left_at: dict[int, int] = {}
        #: Shard index → dialed upstream stream.
        self._shards: dict[int, MessageStream] = {}
        #: One reader per shard plus the telemetry pump, all spawned on
        #: ``failures``.
        self._tasks: list[asyncio.Task] = []
        #: Optional :class:`~repro.obs.fleet.TelemetryUplink` for the
        #: relay's own metrics (flush delay digest, combine counters);
        #: ``None`` ships zero telemetry bytes.
        self.uplink = uplink
        self._uplink_interval = uplink_interval_s
        #: Synopsis combine buffer: window → child → frame.
        self._syn_buffer: dict[Window, dict[int, SynopsisMessage]] = {}
        self._syn_timers: dict[Window, asyncio.TimerHandle] = {}
        #: Trace context each buffered child frame arrived under, kept
        #: aligned with the combine buffers so the flushed frame can
        #: carry one section context per section.
        self._syn_contexts: dict[Window, dict[int, TraceContext | None]] = {}
        self._run_contexts: dict[
            Window, dict[tuple[int, int], TraceContext | None]
        ] = {}
        #: Wall time the first section of each buffered window arrived —
        #: the flush-delay clock.
        self._syn_first: dict[Window, float] = {}
        self._run_first: dict[Window, float] = {}
        #: Candidate-run combine buffer: window → (child, index) → frame,
        #: plus the (child, index) pairs owed per window, learned from the
        #: requests forwarded down.
        self._run_buffer: dict[
            Window, dict[tuple[int, int], CandidateEventsMessage]
        ] = {}
        self._run_expected: dict[Window, set[tuple[int, int]]] = {}
        self._run_timers: dict[Window, asyncio.TimerHandle] = {}
        self._closing = False
        #: Sent-but-unreleased combined frames per window: the failover
        #: replay source.  A window's release (observed on its way down)
        #: is the pruning horizon, exactly as at the locals.
        self._retained: dict[Window, list[Message]] = {}
        self.frames_combined = 0
        self.sections_combined = 0
        self.singleton_forwards = 0
        self.failovers_seen = 0
        self.frames_replayed = 0
        self.fenced_frames = 0

    # ------------------------------------------------------------------
    # wiring

    async def connect_shards(
        self, shards: "dict[int, MessageStream]"
    ) -> None:
        """Adopt the dialed shard streams and announce ourselves on each."""
        self._shards = dict(shards)
        for stream in self._shards.values():
            await stream.send(Hello(node_id=self.node_id, role="relay"))
        loops = [
            self._read_shard(shard_index, stream)
            for shard_index, stream in self._shards.items()
        ]
        if self.uplink is not None:
            loops.append(pump(
                self.uplink, self._uplink_interval, self.refresh_uplink_stats,
                self.send_telemetry, lambda: self._closing,
            ))
        self._tasks = [self._failures.spawn(loop) for loop in loops]

    async def send_telemetry(self, frames: "list[Message]") -> None:
        """Ship the relay's own uplink frames to the control window's
        owner shard."""
        for frame in frames:
            await self._send_shard(CONTROL_WINDOW, frame)

    def refresh_uplink_stats(self) -> None:
        """Refresh the flat stats the next uplink snapshot will carry."""
        uplink = self.uplink
        if uplink is None:
            return
        uplink.set_stat("frames_combined", float(self.frames_combined))
        uplink.set_stat("sections_combined", float(self.sections_combined))
        uplink.set_stat(
            "singleton_forwards", float(self.singleton_forwards)
        )
        uplink.set_stat("frames_replayed", float(self.frames_replayed))
        uplink.set_stat("failovers_seen", float(self.failovers_seen))
        uplink.set_stat("children", float(len(self._children)))

    async def close(self) -> None:
        """Stop forwarding and drop every link (teardown or chaos kill)."""
        self._closing = True
        for timer in (*self._syn_timers.values(), *self._run_timers.values()):
            timer.cancel()
        self._syn_timers.clear()
        self._run_timers.clear()
        tasks, self._tasks = self._tasks, []
        await self._failures.reap(tasks)
        for stream in (*self._children.values(), *self._shards.values()):
            with contextlib.suppress(TransportError):
                await stream.close()

    # ------------------------------------------------------------------
    # downstream: one connection handler per dialing child

    async def serve(self, stream: MessageStream) -> None:
        """Connection handler for one dialing child local."""
        first = await stream.recv()
        if not isinstance(first, Hello) or first.role != "local":
            raise TransportError(
                f"relay {self.node_id} expected a local hello, got "
                f"{type(first).__name__}"
            )
        child = first.node_id
        self._children[child] = stream
        self._awaited.add(child)
        try:
            while True:
                try:
                    message = await stream.recv()
                except TransportError:
                    break  # child died mid-frame; the root's detector rules
                if message is None:
                    break
                await self._on_child_message(
                    child, message, stream.last_context
                )
        finally:
            if self._children.get(child) is stream:
                del self._children[child]
                self._awaited.discard(child)

    async def _on_child_message(
        self, child: int, message: Message,
        context: "TraceContext | None" = None,
    ) -> None:
        if isinstance(message, SynopsisMessage):
            await self._buffer_synopsis(child, message, context)
        elif isinstance(message, CandidateEventsMessage):
            await self._buffer_run(child, message, context)
        elif isinstance(
            message, (TelemetrySnapshotMessage, TelemetryDigestMessage)
        ):
            # Fleet uplinks pass through with the child's sender id
            # intact, like heartbeats — one shard suffices, every shard
            # feeds the same collector.
            await self._send_shard(message.window, message)
        elif isinstance(message, JoinMessage):
            # Apply locally *before* any shard sees it: eligibility at the
            # relay must never lag the roots'.
            self._joined_from[child] = message.first_window_start
            self._left_at.pop(child, None)
            await self._send_all_shards(message)
        elif isinstance(message, LeaveMessage):
            self._left_at[child] = message.effective_from
            await self._send_all_shards(message)
            await self._flush_unblocked_windows()
        elif isinstance(message, HeartbeatMessage):
            # Forward verbatim (sender intact): the shards' failure
            # detectors track children straight through the relay.
            await self._send_all_shards(message)
        else:
            raise TransportError(
                f"relay {self.node_id} cannot forward "
                f"{type(message).__name__} from child {child}"
            )

    # ------------------------------------------------------------------
    # upstream: one reader task per dialed shard

    async def _read_shard(
        self, shard_index: int, stream: MessageStream
    ) -> None:
        while True:
            try:
                message = await stream.recv()
            except TransportError:
                self._report_shard_down(shard_index)
                return
            if message is None:
                self._report_shard_down(shard_index)
                return
            if not self._shard_map.is_live(shard_index):
                # Epoch fence: a dead shard resurrecting cannot speak
                # for windows that already moved to its successor.
                self.fenced_frames += 1
                continue
            await self._on_shard_message(message)

    def _report_shard_down(self, shard_index: int) -> None:
        """Hand link-death evidence for a shard uplink to the coordinator."""
        if self._closing or self._on_shard_down is None:
            return
        self._on_shard_down(shard_index)

    async def _on_shard_failover(self, message: ShardFailoverMessage) -> None:
        """Converge on a newer shard map and replay retained frames.

        Every retained combined frame whose window just changed owner is
        re-sent (now routed to the successor), and the announcement is
        forwarded to every child so locals behind this relay converge on
        the same epoch.  Stale epochs are dropped — the resurrection
        fence.
        """
        if message.epoch <= self._shard_map.epoch:
            return
        old_map = self._shard_map
        self._shard_map = ShardMap(
            n_shards=old_map.n_shards,
            epoch=message.epoch,
            dead=frozenset(message.dead),
        )
        self.failovers_seen += 1
        for child in list(self._children):
            await self._send_child(child, message)
        for window in sorted(self._retained):
            old_owner = old_map.owner(window.start, self._length)
            new_owner = self._shard_map.owner(window.start, self._length)
            if old_owner == new_owner:
                continue
            for frame in self._retained[window]:
                self.frames_replayed += 1
                await self._send_shard(window, frame)
        if self.tracer.enabled:
            now = self._loop.time()
            self.tracer.record(
                "relay_failover", self.node_id, now, now,
                epoch=message.epoch, replayed=self.frames_replayed,
            )

    async def _on_shard_message(self, message: Message) -> None:
        if isinstance(message, ShardFailoverMessage):
            await self._on_shard_failover(message)
            return
        if isinstance(message, WindowReleaseMessage):
            # The release is the retained-buffer pruning horizon: the
            # window is answered, so nothing of it needs replaying to a
            # successor ever again.
            self._retained.pop(message.window, None)
        if isinstance(message, CandidateRequestMessage):
            child = message.group_id
            if message.slice_indices:
                expected = self._run_expected.setdefault(message.window, set())
                for index in message.slice_indices:
                    expected.add((child, index))
            await self._send_child(child, message)
        elif isinstance(message, (
            WindowReleaseMessage, GammaUpdateMessage, RouteUpdateMessage,
            SynopsisRequestMessage,
        )):
            if message.group_id == 0:
                for child in list(self._children):
                    await self._send_child(child, message)
            else:
                await self._send_child(message.group_id, message)
        else:
            raise TransportError(
                f"relay {self.node_id} cannot route "
                f"{type(message).__name__} from a shard"
            )

    # ------------------------------------------------------------------
    # combine buffers

    def _eligible_children(self, window: Window) -> "set[int]":
        """Awaited children that are members for ``window``."""
        return {
            child
            for child in self._awaited
            if self._joined_from.get(child, window.start) <= window.start
            and window.start < self._left_at.get(child, window.end)
        }

    async def _buffer_synopsis(
        self, child: int, message: SynopsisMessage,
        context: "TraceContext | None" = None,
    ) -> None:
        window = message.window
        buffer = self._syn_buffer.setdefault(window, {})
        if not buffer:
            self._syn_first[window] = self._loop.time()
        if window not in self._syn_timers:
            # Covers the late case too: a section arriving after the
            # combined flush (reliability resend, or a child slower than
            # the deadline) opens a fresh buffer and travels once its own
            # deadline fires.  The root deduplicates, so that is safe.
            self._syn_timers[window] = self._loop.call_later(
                self._flush_after_s, self._fire, window, self._flush_synopses
            )
        buffer[child] = message
        self._syn_contexts.setdefault(window, {})[child] = context
        if self._eligible_children(window) <= set(buffer):
            await self._flush_synopses(window)

    async def _buffer_run(
        self, child: int, message: CandidateEventsMessage,
        context: "TraceContext | None" = None,
    ) -> None:
        window = message.window
        key = (child, message.slice_index)
        buffer = self._run_buffer.setdefault(window, {})
        if not buffer:
            self._run_first[window] = self._loop.time()
        buffer[key] = message
        self._run_contexts.setdefault(window, {})[key] = context
        if window not in self._run_timers:
            self._run_timers[window] = self._loop.call_later(
                self._flush_after_s, self._fire, window, self._flush_runs
            )
        expected = self._run_expected.get(window, set())
        if expected and expected <= set(buffer):
            await self._flush_runs(window)

    def _fire(self, window: Window, flush) -> None:
        """Deadline hook: flush whatever the window has accumulated."""
        if self._closing:
            return
        self._failures.spawn(flush(window))  # fire-and-forget

    def _observe_flush_delay(self, first_at: "float | None") -> None:
        if self.uplink is not None and first_at is not None:
            self.uplink.observe(
                "relay_flush_delay_s",
                max(0.0, self._loop.time() - first_at),
            )

    async def _flush_synopses(self, window: Window) -> None:
        parts = self._syn_buffer.pop(window, None)
        contexts = self._syn_contexts.pop(window, None)
        timer = self._syn_timers.pop(window, None)
        if timer is not None:
            timer.cancel()
        if not parts:
            return
        self._observe_flush_delay(self._syn_first.pop(window, None))
        combined = combine_synopses(parts, self.node_id, window, contexts)
        if len(parts) > 1:
            self.frames_combined += 1
            self.sections_combined += len(parts)
        else:
            self.singleton_forwards += 1
        if self.tracer.enabled:
            now = self._loop.time()
            self.tracer.record(
                "relay_combine", self.node_id, now, now,
                window=window, sections=len(parts),
                bytes=combined.wire_bytes,
                trace_id=trace_id_for_window(window.start),
            )
        self._retained.setdefault(window, []).append(combined)
        await self._send_shard(window, combined)

    async def _flush_runs(self, window: Window) -> None:
        parts = self._run_buffer.pop(window, None)
        contexts = self._run_contexts.pop(window, None)
        timer = self._run_timers.pop(window, None)
        if timer is not None:
            timer.cancel()
        expected = self._run_expected.pop(window, None)
        if not parts:
            return
        if expected:
            # Keep waiting for runs the deadline flush did not cover; a
            # later arrival re-arms its own deadline.
            remaining = expected - set(parts)
            if remaining:
                self._run_expected[window] = remaining
        self._observe_flush_delay(self._run_first.pop(window, None))
        combined = combine_runs(parts, self.node_id, window, contexts)
        if len(parts) > 1:
            self.frames_combined += 1
            self.sections_combined += len(parts)
        else:
            self.singleton_forwards += 1
        if self.tracer.enabled:
            now = self._loop.time()
            self.tracer.record(
                "relay_combine", self.node_id, now, now,
                window=window, sections=len(parts),
                bytes=combined.wire_bytes,
                trace_id=trace_id_for_window(window.start),
            )
        self._retained.setdefault(window, []).append(combined)
        await self._send_shard(window, combined)

    async def _flush_unblocked_windows(self) -> None:
        """Re-check every buffered window after a membership change."""
        for window in list(self._syn_buffer):
            buffer = self._syn_buffer.get(window)
            if buffer and self._eligible_children(window) <= set(buffer):
                await self._flush_synopses(window)

    # ------------------------------------------------------------------
    # sends

    async def _send_shard(self, window: Window, message: Message) -> None:
        shard = self._shard_map.owner(window.start, self._length)
        stream = self._shards.get(shard)
        if stream is None:
            return  # torn down; nothing upstream to tell
        with contextlib.suppress(TransportError):
            await stream.send(message)

    async def _send_all_shards(self, message: Message) -> None:
        for stream in self._shards.values():
            with contextlib.suppress(TransportError):
                await stream.send(message)

    async def _send_child(self, child: int, message: Message) -> None:
        stream = self._children.get(child)
        if stream is None:
            return  # departed or crashed; the root's detector rules
        if message.group_id != 0:
            # Children must see the frames a direct root would send.
            message = _with_group(message, 0)
        with contextlib.suppress(TransportError):
            await stream.send(message)


def _with_group(message: Message, group_id: int) -> Message:
    """Copy ``message`` with a different ``group_id``."""
    return dataclasses.replace(message, group_id=group_id)
