"""Typed messages with byte-exact serialized sizes.

Network cost in the evaluation is counted in bytes on the wire, so every
message type declares how large its serialized form is.  Sizes are not
estimates: each ``payload_bytes`` property mirrors, field for field, the
binary encoding in :mod:`repro.runtime.codec` (struct layouts in
:mod:`repro.runtime.wire`), and the runtime test suite asserts that
``payload_bytes == len(encode_payload(message))`` for every type.  The
simulator therefore charges exactly the bytes the live asyncio runtime
puts on a socket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.runtime import wire
from repro.streaming.columns import (
    EMPTY_EVENTS,
    EventColumns,
    as_event_columns,
)
from repro.streaming.events import EVENT_WIRE_BYTES, Event
from repro.streaming.windows import Window

__all__ = [
    "MESSAGE_HEADER_BYTES",
    "SYNOPSIS_WIRE_BYTES",
    "Message",
    "EventBatchMessage",
    "SynopsisMessage",
    "SynopsisRequestMessage",
    "WindowReleaseMessage",
    "CandidateRequestMessage",
    "CandidateEventsMessage",
    "GammaUpdateMessage",
    "DigestMessage",
    "QDigestMessage",
    "PartialAggregateMessage",
    "SortedRunMessage",
    "WatermarkMessage",
    "ResultMessage",
    "HeartbeatMessage",
    "QueryRegisterMessage",
    "QueryAckMessage",
    "QueryResultMessage",
    "QueryDeregisterMessage",
    "JoinMessage",
    "LeaveMessage",
    "RouteUpdateMessage",
    "RelaySynopsisMessage",
    "RelayRunsMessage",
    "ShardFailoverMessage",
    "ResultAckMessage",
    "TelemetrySnapshotMessage",
    "TelemetryDigestMessage",
]

#: Fixed per-message framing overhead: u32 length prefix plus the frame
#: header (version, type tag, flags, sender, group id, window bounds).
MESSAGE_HEADER_BYTES = wire.MESSAGE_HEADER_BYTES

#: One slice synopsis: first key + last key (16 bytes each) plus count,
#: slice index, slice total and owner id as u32 each.
SYNOPSIS_WIRE_BYTES = wire.SYNOPSIS_WIRE_BYTES


@dataclass(frozen=True, slots=True)
class Message:
    """Base class for everything that crosses a channel.

    ``group_id`` multiplexes concurrent query groups over the same
    channels (0 for single-query deployments); its 4 bytes are part of the
    fixed header, as are the sender id and the window bounds.
    """

    sender: int
    window: Window
    group_id: int = 0

    @property
    def payload_bytes(self) -> int:
        """Serialized payload size, excluding the fixed header."""
        return 0

    @property
    def wire_bytes(self) -> int:
        """Total serialized size on the wire."""
        return MESSAGE_HEADER_BYTES + self.payload_bytes


@dataclass(frozen=True, slots=True)
class EventBatchMessage(Message):
    """Raw events forwarded upstream (centralized aggregation)."""

    events: EventColumns = EMPTY_EVENTS

    @property
    def payload_bytes(self) -> int:
        return wire.COUNT_BYTES + len(self.events) * EVENT_WIRE_BYTES


@dataclass(frozen=True, slots=True)
class SortedRunMessage(Message):
    """A fully sorted local window (Desis-style decentralized sorting)."""

    events: EventColumns = EMPTY_EVENTS

    @property
    def payload_bytes(self) -> int:
        return wire.COUNT_BYTES + len(self.events) * EVENT_WIRE_BYTES


@dataclass(frozen=True, slots=True)
class SynopsisMessage(Message):
    """Dema identification step: slice synopses of one local window."""

    #: A ``SynopsisColumns`` batch (or a tuple of ``SliceSynopsis`` rows);
    #: typed loosely to avoid a cycle.
    synopses: tuple = ()
    local_window_size: int = 0

    @property
    def payload_bytes(self) -> int:
        return (
            wire.COUNT_BYTES
            + wire.U64_BYTES
            + len(self.synopses) * SYNOPSIS_WIRE_BYTES
        )


@dataclass(frozen=True, slots=True)
class CandidateRequestMessage(Message):
    """Dema calculation step: root requests candidate slices by index."""

    slice_indices: tuple[int, ...] = ()

    @property
    def payload_bytes(self) -> int:
        return wire.COUNT_BYTES + len(self.slice_indices) * wire.U32_BYTES


@dataclass(frozen=True, slots=True)
class CandidateEventsMessage(Message):
    """Dema calculation step: the requested candidate events (pre-sorted)."""

    slice_index: int = 0
    events: EventColumns = EMPTY_EVENTS

    @property
    def payload_bytes(self) -> int:
        return (
            wire.U32_BYTES
            + wire.COUNT_BYTES
            + len(self.events) * EVENT_WIRE_BYTES
        )


@dataclass(frozen=True, slots=True)
class SynopsisRequestMessage(Message):
    """Root asks a local node to (re)send its synopsis batch for a window.

    Part of the reliability extension: sent when the root's completeness
    timeout fires before every local reported.  Pure control message — the
    window in the header says everything, so the payload is empty.
    """


@dataclass(frozen=True, slots=True)
class WindowReleaseMessage(Message):
    """Root tells a local node the window is fully answered; free its state.

    Part of the reliability extension: with retransmissions enabled, local
    nodes retain sealed windows until this acknowledgement arrives.  Pure
    control message with an empty payload.
    """


@dataclass(frozen=True, slots=True)
class GammaUpdateMessage(Message):
    """Root broadcasts a new slice factor γ for the next window."""

    gamma: int = 2

    @property
    def payload_bytes(self) -> int:
        return wire.U32_BYTES


@dataclass(frozen=True, slots=True)
class DigestMessage(Message):
    """A serialized quantile sketch (t-digest and KLL baselines).

    The payload is the sender's exact ``minimum``/``maximum`` (two f64 —
    sketches track true extremes, and tail centroid *means* sit strictly
    inside the data range, so extreme quantiles need the real bounds on
    the wire) followed by ``centroid_count`` (mean, weight) pairs of 16
    bytes each behind a u32 count.
    """

    centroids: tuple[tuple[float, float], ...] = ()
    minimum: float = 0.0
    maximum: float = 0.0

    @property
    def payload_bytes(self) -> int:
        return (
            wire.COUNT_BYTES
            + 2 * wire.F64_BYTES
            + len(self.centroids) * wire.CENTROID_WIRE_BYTES
        )


@dataclass(frozen=True, slots=True)
class PartialAggregateMessage(Message):
    """A decomposable function's partial aggregate for one local window.

    The payload is a small fixed-size state (e.g. ``(count, sum, sum_sq)``
    for variance) — the reason decomposable functions aggregate cheaply at
    the edge and non-decomposable ones need Dema.
    """

    state: tuple[float, ...] = ()
    local_window_size: int = 0

    @property
    def payload_bytes(self) -> int:
        return (
            wire.COUNT_BYTES
            + wire.U64_BYTES
            + len(self.state) * wire.F64_BYTES
        )


@dataclass(frozen=True, slots=True)
class QDigestMessage(Message):
    """A serialized q-digest: ``(level, index, count)`` tree nodes."""

    nodes: tuple[tuple[int, int, int], ...] = ()
    local_count: int = 0

    @property
    def payload_bytes(self) -> int:
        return (
            wire.COUNT_BYTES
            + wire.U64_BYTES
            + len(self.nodes) * wire.QDIGEST_NODE_WIRE_BYTES
        )


@dataclass(frozen=True, slots=True)
class WatermarkMessage(Message):
    """Event-time progress announcement from a local node."""

    watermark_time: int = 0

    @property
    def payload_bytes(self) -> int:
        return wire.U64_BYTES


@dataclass(frozen=True, slots=True)
class ResultMessage(Message):
    """Final aggregate emitted by the root (for latency bookkeeping)."""

    value: float = 0.0
    global_window_size: int = 0

    @property
    def payload_bytes(self) -> int:
        return wire.F64_BYTES + wire.U64_BYTES


@dataclass(frozen=True, slots=True)
class HeartbeatMessage(Message):
    """Periodic liveness beacon from a local host to the root host.

    Part of the fault-tolerance extension: carries no operator state, only
    a monotonically increasing sequence number so the root's failure
    detector can distinguish "quiet but alive" from "gone".  The window in
    the header is a placeholder (heartbeats are not window-scoped).
    """

    sequence: int = 0

    @property
    def payload_bytes(self) -> int:
        return wire.U64_BYTES


@dataclass(frozen=True, slots=True)
class QueryRegisterMessage(Message):
    """Register (or propagate) a continuous quantile query at runtime.

    Sent client → root to register a query, and root → local (with the
    assigned ``group_id``) to propagate a new window shape of an execution
    group: root → local, ``query_id`` is the root-allocated shape id, and
    the start negotiation that follows runs per (group, window shape).
    The fixed part carries the query id, the quantile, the window shape
    (kind code, length, step) plus the slice factor and the freshness
    budget; the variable part is the UTF-8 key selector behind a u32 byte
    count.
    """

    query_id: int = 0
    q: float = 0.5
    kind: str = "tumbling"
    length_ms: int = 1000
    step_ms: int = 1000
    gamma: int = 64
    freshness_ms: int = 0
    selector: str = "all"

    @property
    def payload_bytes(self) -> int:
        return (
            wire.QUERY_REGISTER_FIXED_BYTES
            + wire.COUNT_BYTES
            + len(self.selector.encode("utf-8"))
        )


@dataclass(frozen=True, slots=True)
class QueryAckMessage(Message):
    """Acknowledge a query lifecycle transition.

    Three uses, distinguished by direction and ``group_id``: root → client
    accepts or rejects a registration (the header window carries the
    query's first guaranteed window, its *horizon*); local → root proposes
    the earliest window start the local can fully serve for a new window
    shape of a group (in the header window); root → local activates that
    shape at the agreed start.  Between root and local, ``query_id`` is the
    shape id.  ``reason`` is empty unless ``accepted`` is false.
    """

    query_id: int = 0
    accepted: bool = True
    reason: str = ""

    @property
    def payload_bytes(self) -> int:
        return (
            wire.QUERY_ACK_FIXED_BYTES
            + wire.COUNT_BYTES
            + len(self.reason.encode("utf-8"))
        )


@dataclass(frozen=True, slots=True)
class QueryResultMessage(Message):
    """One served result for one registered query and one window.

    The header window identifies the window; an empty window is served
    with ``global_window_size == 0`` (the value and rank are then
    meaningless placeholders).
    """

    query_id: int = 0
    value: float = 0.0
    global_window_size: int = 0
    rank: int = 0

    @property
    def payload_bytes(self) -> int:
        return wire.QUERY_RESULT_BYTES


@dataclass(frozen=True, slots=True)
class QueryDeregisterMessage(Message):
    """Remove a query (client → root) or a window shape (root → local).

    Client → root carries the query id with ``group_id`` 0; root → local
    carries the group in ``group_id`` and the emptied shape's id in
    ``query_id`` — ``query_id`` 0 removes the whole group.
    """

    query_id: int = 0

    @property
    def payload_bytes(self) -> int:
        return wire.U32_BYTES


@dataclass(frozen=True, slots=True)
class JoinMessage(Message):
    """A local announces it is joining the mesh at runtime.

    Sent FIFO-first on every upstream link (before any synopsis), so by
    the time the joiner's first window data arrives, every root shard
    already counts it as a member.  ``first_window_start`` is the start
    (event-time ms) of the first grid window the joiner will fully serve;
    the membership table makes it eligible from that window on.
    """

    first_window_start: int = 0

    @property
    def payload_bytes(self) -> int:
        return wire.I64_BYTES


@dataclass(frozen=True, slots=True)
class LeaveMessage(Message):
    """A local announces a graceful departure.

    ``effective_from`` is the first grid window start (event-time ms) the
    sender will *not* serve.  Windows before it complete normally; windows
    at or past it no longer wait on the sender — departure degrades
    nothing and can never hang a window.
    """

    effective_from: int = 0

    @property
    def payload_bytes(self) -> int:
        return wire.I64_BYTES


@dataclass(frozen=True, slots=True)
class RouteUpdateMessage(Message):
    """Root shard broadcasts its membership view after a join or leave.

    ``epoch`` increments on every membership change; ``members`` is the
    shard's full current member list.  Relays and locals use it to keep
    their routing tables in step (and tests use it to assert convergence).
    """

    epoch: int = 0
    members: tuple[int, ...] = ()

    @property
    def payload_bytes(self) -> int:
        return (
            wire.U64_BYTES
            + wire.COUNT_BYTES
            + len(self.members) * wire.U32_BYTES
        )


@dataclass(frozen=True, slots=True)
class RelaySynopsisMessage(Message):
    """Several locals' synopsis batches combined into one relay frame.

    Each section is ``(node_id, local_window_size, synopses)`` and carries
    one child's *complete, ordered* batch for the window.  The compact
    36-byte synopsis encoding drops the owner id (section header) and the
    slice index / slice total (position and length of the section), all of
    which reconstruct exactly on decode — the root explodes sections back
    into the identical per-child :class:`SynopsisMessage` frames, so the
    identification operator runs unmodified and bit-identically.

    ``section_contexts`` (one trace context or ``None`` per section, in
    section order) travels in the frame's *header extension block*
    (:data:`repro.runtime.wire.EXT_SECTION_CONTEXT`), never the payload —
    old peers skip the unknown extension entries and decode the same
    frame, and ``payload_bytes`` accounting is untouched.  It lets the
    root parent each exploded section's dispatch span on the child span
    that actually caused it, instead of truncating every mesh timeline
    at the relay boundary.
    """

    #: tuple[(node_id, local_window_size, SynopsisColumns batch), ...]
    sections: tuple = ()
    #: tuple[TraceContext | None, ...] aligned with ``sections`` (typed
    #: loosely to keep this module import-free of the tracing layer).
    section_contexts: tuple = ()

    @property
    def payload_bytes(self) -> int:
        return wire.COUNT_BYTES + sum(
            wire.RELAY_SYNOPSIS_SECTION_FIXED_BYTES
            + len(synopses) * wire.RELAY_SYNOPSIS_WIRE_BYTES
            for _, _, synopses in self.sections
        )


@dataclass(frozen=True, slots=True)
class RelayRunsMessage(Message):
    """Several candidate runs combined into one relay frame.

    Each section is ``(node_id, slice_index, events)`` — one child's
    pre-sorted candidate run, exactly as the child served it.  The root
    explodes sections into per-child :class:`CandidateEventsMessage`
    frames, so the calculation operator runs unmodified.

    ``section_contexts`` mirrors :class:`RelaySynopsisMessage`: per-section
    trace contexts riding the header extension block, invisible to the
    payload byte accounting and skippable by older peers.
    """

    #: tuple[(node_id, slice_index, EventColumns), ...]
    sections: tuple = ()
    #: tuple[TraceContext | None, ...] aligned with ``sections``.
    section_contexts: tuple = ()

    @property
    def payload_bytes(self) -> int:
        return wire.COUNT_BYTES + sum(
            wire.RELAY_RUN_SECTION_FIXED_BYTES
            + len(events) * EVENT_WIRE_BYTES
            for _, _, events in self.sections
        )


@dataclass(frozen=True, slots=True)
class ShardFailoverMessage(Message):
    """A successor shard announces an epoch-versioned failover in-band.

    ``epoch`` is the failover count (strictly greater than any epoch a
    receiver has seen, or the frame is stale and dropped); ``dead``
    lists every shard index declared dead so far.  The pair fully
    determines window ownership (see
    :class:`~repro.mesh.routing.ShardMap`): receivers rebuild the map,
    reroute, and replay their retained sent-but-unreleased state to the
    successor.  Monotonic epochs double as the resurrection fence — a
    dead shard coming back cannot announce anything newer than its
    death.
    """

    epoch: int = 0
    dead: tuple[int, ...] = ()

    @property
    def payload_bytes(self) -> int:
        return (
            wire.U64_BYTES
            + wire.COUNT_BYTES
            + len(self.dead) * wire.U32_BYTES
        )


@dataclass(frozen=True, slots=True)
class ResultAckMessage(Message):
    """A query driver acknowledges served results up to a cursor.

    ``cursor`` counts results received on this client's connection since
    registration (the same unit as the ``resume_from`` hello field for
    the ``driver`` role).  A durable root prunes its per-client result
    log below the acked cursor — the query-plane analogue of the window
    release acting as the locals' pruning horizon.
    """

    cursor: int = 0

    @property
    def payload_bytes(self) -> int:
        return wire.U64_BYTES


@dataclass(frozen=True, slots=True)
class TelemetrySnapshotMessage(Message):
    """One node's counters and gauges, piggybacked on an existing link.

    Part of the fleet telemetry plane: every node periodically ships its
    scalar vitals (frames sent, windows sealed, oldest-pending-window age,
    …) in-band to the coordinator, the way heartbeats ride the data
    links — so chaos and partition scenarios exercise the telemetry path
    automatically.  ``stats`` is a tuple of ``(name, value)`` pairs; each
    name travels as UTF-8 behind a u32 byte count, each value as one f64.
    The header window is a placeholder (snapshots are not window-scoped)
    and ``sequence`` orders snapshots from one sender so a late frame
    routed through a second shard never rolls the collector backwards.
    """

    sequence: int = 0
    stats: tuple[tuple[str, float], ...] = ()

    @property
    def payload_bytes(self) -> int:
        return (
            wire.U64_BYTES
            + wire.COUNT_BYTES
            + sum(
                wire.COUNT_BYTES
                + len(name.encode("utf-8"))
                + wire.F64_BYTES
                for name, _ in self.stats
            )
        )


@dataclass(frozen=True, slots=True)
class TelemetryDigestMessage(Message):
    """One node's t-digest summary of one local metric's samples.

    The fleet collector merges these per-metric across nodes into
    cluster-wide percentiles — the repo's own sketch machinery applied to
    its own operational latencies, at a fraction of the bytes raw-sample
    shipping would cost.  The layout mirrors :class:`DigestMessage`
    (u32 centroid count, exact min/max f64, 16-byte centroid pairs) with
    a UTF-8 metric name and a snapshot ``sequence`` in front; digests are
    cumulative per (sender, metric), so the collector keeps only the
    highest sequence from each sender and merges across senders.
    """

    metric: str = ""
    sequence: int = 0
    centroids: tuple[tuple[float, float], ...] = ()
    minimum: float = 0.0
    maximum: float = 0.0

    @property
    def payload_bytes(self) -> int:
        return (
            wire.COUNT_BYTES
            + len(self.metric.encode("utf-8"))
            + wire.U64_BYTES
            + wire.COUNT_BYTES
            + 2 * wire.F64_BYTES
            + len(self.centroids) * wire.CENTROID_WIRE_BYTES
        )


def batch_events(
    sender: int, window: Window, events: Sequence[Event]
) -> EventBatchMessage:
    """Convenience constructor for a raw-event batch."""
    return EventBatchMessage(
        sender=sender, window=window, events=as_event_columns(events)
    )
