"""Typed messages with byte-exact serialized sizes.

Network cost in the evaluation is counted in bytes on the wire, so every
message type declares how large its serialized form is.  Sizes are not
estimates, and every payload is stated once.  A fixed-size message's
payload is its class's ``LAYOUT``: one struct over the fields the class
declares, in declaration order.  A variable-length message's payload is
its class's ``PAYLOAD``: the wire parts below, in wire order — struct
fields, a sequence's u32 count, a u32 code map, a UTF-8 string, a run of
structs or of records, a tail of ``<f8`` values.  ``payload_bytes``
follows from either, and :mod:`repro.runtime.codec` packs and unpacks
with the same declaration.  Eight types keep hand code: the event batch
(its per-frame call budget), the three synopsis carriers (their section
is ``SynopsisColumns``' own format), the three candidate-run carriers
and the query plane's batched candidate request (a declared part costs
one Python call, and their codec stage measured slower declared).  The
runtime test suite asserts ``payload_bytes ==
len(encode_payload(message))`` for every type, so the simulator charges
exactly the bytes the live asyncio runtime puts on a socket.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter

import numpy as _np

from repro.errors import CodecError
from repro.runtime import wire
from repro.streaming.columns import EMPTY_EVENTS, EventColumns
from repro.streaming.events import EVENT_WIRE_BYTES
from repro.streaming.windows import Window

__all__ = [
    "MESSAGE_HEADER_BYTES",
    "synopsis_section_bytes",
    "EMPTY_VALUES",
    "Message",
    "EventBatchMessage",
    "SynopsisMessage",
    "SynopsisRequestMessage",
    "WindowReleaseMessage",
    "CandidateRequestMessage",
    "CandidateEventsMessage",
    "GammaUpdateMessage",
    "DigestMessage",
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
    "SynopsisBatchMessage",
    "CandidateRequestBatchMessage",
    "CandidateBatchMessage",
    "QUERY_PLANE_BATCHES",
    "covering_window",
    "ShardFailoverMessage",
    "ResultAckMessage",
    "TelemetrySnapshotMessage",
    "TelemetryDigestMessage",
]

#: Fixed per-message framing overhead: u32 length prefix plus the frame
#: header (version, type tag, flags, sender, group id, window bounds).
MESSAGE_HEADER_BYTES = wire.MESSAGE_HEADER_BYTES


def synopsis_section_bytes(n_synopses: int) -> int:
    """Bytes of one local's synopsis section on every link: local size and
    γ, then ``n + 1`` f64 boundaries for ``n`` slices (none when empty)."""
    boundaries = n_synopses + 1 if n_synopses else 0
    return wire.SYNOPSIS_SECTION_BYTES + boundaries * wire.F64_BYTES


#: The run of no values: a sorted run's default.  Read-only and shared.
EMPTY_VALUES = _np.empty(0, dtype="<f8")
EMPTY_VALUES.setflags(write=False)


def _same(a, b) -> bool:
    """Field equality where value runs (ndarrays) compare elementwise,
    as :class:`EventColumns` compares."""
    if isinstance(a, _np.ndarray) or isinstance(b, _np.ndarray):
        return _np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _runs_eq(self, other) -> bool:
    """``__eq__`` of the messages that carry value runs."""
    if type(other) is not type(self):
        return NotImplemented
    return all(
        _same(getattr(self, f.name), getattr(other, f.name))
        for f in fields(self)
    )


# ----------------------------------------------------------------------
# The parts a variable-length payload is declared from.  A part sizes,
# packs and unpacks one piece of the payload over the message's fields,
# or, inside :class:`Rows`, over a record's elements by position;
# ``unpack`` fills the keyword arguments the message is rebuilt from.
# ----------------------------------------------------------------------


def _values_from_wire(raw: memoryview, count: int):
    """Zero-copy ``float64`` view over ``count`` wire values.

    Raises:
        CodecError: If the byte length is not a multiple of the 8-byte
            value stride, or disagrees with ``count``.
    """
    stride = wire.F64_BYTES
    if len(raw) % stride:
        raise CodecError(
            f"value array of {len(raw)} bytes is not a multiple of the "
            f"{stride}-byte value stride"
        )
    if len(raw) != count * stride:
        raise CodecError(
            f"value array of {len(raw)} bytes does not hold the "
            f"announced {count} values ({count * stride} bytes)"
        )
    return _np.frombuffer(raw, dtype="<f8")


def _getter(*names):
    """Reads ``names`` off a message (field names) or a record (element
    positions); several read as a tuple."""
    return (attrgetter if isinstance(names[0], str) else itemgetter)(*names)


class Fields:
    """Struct fields over the message's own fields ``names`` (inside
    :class:`Rows`, over a record's positions)."""

    def __init__(self, fmt: str, *names) -> None:
        self.struct = struct.Struct(fmt)
        self.names = names
        self.get = _getter(*names)
        self.fixed = self.min_size = self.struct.size
        assert len(self.struct.unpack(bytes(self.fixed))) == len(names)

    def size(self, m) -> int:
        return self.fixed

    def pack(self, m, out: list) -> None:
        value = self.get(m)
        out.append(
            self.struct.pack(*value) if len(self.names) > 1
            else self.struct.pack(value)
        )

    def unpack(self, r, fields: dict) -> None:
        fields.update(zip(self.names, r.unpack(self.struct)))


class Count:
    """The u32 count of sequence field ``name``.  Its items follow in a
    later part, not necessarily the next; on decode the count stands in
    for the sequence until that part replaces it."""

    fixed = wire.COUNT_BYTES

    def __init__(self, name: str) -> None:
        self.name = name

    def pack(self, m, out: list) -> None:
        out.append(wire.COUNT.pack(len(getattr(m, self.name))))

    def unpack(self, r, fields: dict) -> None:
        fields[self.name] = r.count()


class Code:
    """Field ``name`` as the u32 code ``codes`` maps its value to; a value
    or a code outside the map is refused."""

    fixed = wire.U32_BYTES

    def __init__(self, name: str, codes: dict) -> None:
        self.name = name
        self.codes = codes
        self.values = {code: value for value, code in codes.items()}

    def pack(self, m, out: list) -> None:
        value = getattr(m, self.name)
        if value not in self.codes:
            raise CodecError(
                f"{self.name} {value!r} is not one of {sorted(self.codes)}"
            )
        out.append(wire.U32.pack(self.codes[value]))

    def unpack(self, r, fields: dict) -> None:
        (code,) = r.unpack(wire.U32)
        if code not in self.values:
            raise CodecError(
                f"{self.name} code {code} is not one of {sorted(self.values)}"
            )
        fields[self.name] = self.values[code]


class Text:
    """Field ``name`` as a UTF-8 string behind its u32 **byte** count."""

    fixed, min_size = None, wire.COUNT_BYTES

    def __init__(self, name) -> None:
        self.name = name
        self.get = _getter(name)

    def size(self, m) -> int:
        return wire.COUNT_BYTES + len(self.get(m).encode("utf-8"))

    def pack(self, m, out: list) -> None:
        raw = self.get(m).encode("utf-8")
        out += (wire.COUNT.pack(len(raw)), raw)

    def unpack(self, r, fields: dict) -> None:
        raw = r.take(r.count())
        try:
            fields[self.name] = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"string payload is not valid UTF-8: {exc}") from exc


class Run:
    """The items of sequence field ``name``, one struct ``fmt`` each (a
    one-field struct's item is its bare value), behind its count."""

    fixed = None

    def __init__(self, name: str, fmt: str) -> None:
        self.name = name
        self.struct = struct.Struct(fmt)
        self.bare = len(self.struct.unpack(bytes(self.struct.size))) == 1

    def size(self, m) -> int:
        return len(getattr(m, self.name)) * self.struct.size

    def pack(self, m, out: list) -> None:
        items, pack = getattr(m, self.name), self.struct.pack
        out.append(b"".join(
            map(pack, items) if self.bare else [pack(*item) for item in items]
        ))

    def unpack(self, r, fields: dict) -> None:
        n = fields[self.name]
        rows = self.struct.iter_unpack(r.view(n * self.struct.size))
        fields[self.name] = tuple([row for (row,) in rows] if self.bare else rows)


class Rows:
    """The records of sequence field ``name``, behind its count, each
    declared by ``parts`` over its elements, in position order."""

    fixed = None

    def __init__(self, name: str, *parts) -> None:
        self.name = name
        self.parts = parts
        self.min_size = sum(part.min_size for part in parts)

    def size(self, m) -> int:
        return sum([p.size(row) for row in getattr(m, self.name) for p in self.parts])

    def pack(self, m, out: list) -> None:
        for row in getattr(m, self.name):
            for part in self.parts:
                part.pack(row, out)

    def unpack(self, r, fields: dict) -> None:
        n = fields[self.name]
        r.need(n * self.min_size)  # a count the payload cannot hold
        rows = []
        for _ in range(n):
            row: dict = {}
            for part in self.parts:
                part.unpack(r, row)
            rows.append(tuple(row.values()))
        fields[self.name] = tuple(rows)


class Values:
    """Field ``name``'s ``<f8`` values as the payload's tail, behind its
    count: a zero-copy view of the rest, which must hold exactly the
    count."""

    fixed = None

    def __init__(self, name: str) -> None:
        self.name = name

    def size(self, m) -> int:
        return len(getattr(m, self.name)) * wire.F64_BYTES

    def pack(self, m, out: list) -> None:
        out.append(_np.asarray(getattr(m, self.name), "<f8").tobytes())

    def unpack(self, r, fields: dict) -> None:
        fields[self.name] = _values_from_wire(r.rest(), fields[self.name])


class Payload:
    """A variable-length message's payload, declared once: its parts in
    wire order.  The fixed-size parts are summed once, here."""

    def __init__(self, *parts) -> None:
        self.parts = parts
        self.fixed = sum(part.fixed for part in parts if part.fixed is not None)
        self.sized = tuple(part for part in parts if part.fixed is None)


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

    #: A fixed-size message's payload: one struct over the fields its class
    #: declares, in declaration order (none here).
    LAYOUT = struct.Struct("<")
    #: A variable-length message's payload: its :class:`Payload` parts.
    PAYLOAD = None

    @property
    def payload_bytes(self) -> int:
        """Serialized payload size, excluding the fixed header."""
        payload = self.PAYLOAD
        if payload is None:
            return self.LAYOUT.size
        size = payload.fixed
        for part in payload.sized:
            size += part.size(self)
        return size

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


@dataclass(frozen=True, slots=True, eq=False)
class SortedRunMessage(Message):
    """A fully sorted local window (Desis-style decentralized sorting).

    The root reads only values, so ``events`` holds the window's sorted
    values — a ``float64`` array, 8 bytes each on the wire.
    """

    events: _np.ndarray = field(default_factory=lambda: EMPTY_VALUES)

    __eq__ = _runs_eq
    __hash__ = Message.__hash__

    PAYLOAD = Payload(Count("events"), Values("events"))


@dataclass(frozen=True, slots=True)
class SynopsisMessage(Message):
    """Dema identification step: slice synopses of one local window."""

    #: A ``SynopsisColumns`` batch (or a tuple of ``SliceSynopsis`` rows);
    #: typed loosely to avoid a cycle.
    synopses: tuple = ()
    local_window_size: int = 0

    @property
    def payload_bytes(self) -> int:
        return wire.COUNT_BYTES + synopsis_section_bytes(len(self.synopses))


@dataclass(frozen=True, slots=True)
class CandidateRequestMessage(Message):
    """Dema calculation step: root requests candidate slices by index."""

    slice_indices: tuple[int, ...] = ()

    PAYLOAD = Payload(Count("slice_indices"), Run("slice_indices", "<I"))


@dataclass(frozen=True, slots=True, eq=False)
class CandidateEventsMessage(Message):
    """Dema calculation step: one requested candidate slice.

    The root needs only the value at one rank of the merged runs, so
    ``events`` holds the slice's sorted *values* — a ``float64`` array,
    8 bytes each on the wire.
    """

    slice_index: int = 0
    events: _np.ndarray = field(default_factory=lambda: EMPTY_VALUES)

    __eq__ = _runs_eq
    __hash__ = Message.__hash__

    @property
    def payload_bytes(self) -> int:
        return (
            wire.U32_BYTES
            + wire.COUNT_BYTES
            + len(self.events) * wire.F64_BYTES
        )


@dataclass(frozen=True, slots=True)
class SynopsisRequestMessage(Message):
    """Root asks a local node to (re)send its synopsis batch for a window.

    Part of the reliability extension: sent when the root's completeness
    timeout fires before every local reported.  Pure control message — the
    window in the header says everything, so the payload is empty.
    """

    LAYOUT = struct.Struct("<")


@dataclass(frozen=True, slots=True)
class WindowReleaseMessage(Message):
    """Root tells a local node the window is fully answered; free its state.

    Part of the reliability extension: with retransmissions enabled, local
    nodes retain sealed windows until this acknowledgement arrives.  Pure
    control message with an empty payload.
    """

    LAYOUT = struct.Struct("<")


@dataclass(frozen=True, slots=True)
class GammaUpdateMessage(Message):
    """Root broadcasts a new slice factor γ for the next window."""

    gamma: int = 2

    LAYOUT = struct.Struct("<I")


@dataclass(frozen=True, slots=True)
class DigestMessage(Message):
    """A serialized quantile sketch (the t-digest baseline): its
    (mean, weight) centroids and the sender's exact extremes — tail
    centroid *means* sit strictly inside the data range, so extreme
    quantiles need the real bounds on the wire."""

    centroids: tuple[tuple[float, float], ...] = ()
    minimum: float = 0.0
    maximum: float = 0.0

    PAYLOAD = Payload(
        Count("centroids"),
        Fields("<dd", "minimum", "maximum"),
        Run("centroids", "<dd"),
    )


@dataclass(frozen=True, slots=True)
class PartialAggregateMessage(Message):
    """A decomposable function's partial aggregate for one local window.

    The payload is a small fixed-size state (a sum's one float) — the
    reason decomposable functions aggregate cheaply at the edge and
    non-decomposable ones need Dema.
    """

    state: tuple[float, ...] = ()
    local_window_size: int = 0

    PAYLOAD = Payload(
        Count("state"), Fields("<Q", "local_window_size"), Run("state", "<d")
    )


@dataclass(frozen=True, slots=True)
class WatermarkMessage(Message):
    """Event-time progress announcement from a local node."""

    watermark_time: int = 0

    LAYOUT = struct.Struct("<Q")


@dataclass(frozen=True, slots=True)
class ResultMessage(Message):
    """Final aggregate emitted by the root (for latency bookkeeping)."""

    value: float = 0.0
    global_window_size: int = 0

    LAYOUT = struct.Struct("<dQ")


@dataclass(frozen=True, slots=True)
class HeartbeatMessage(Message):
    """Periodic liveness beacon from a local host to the root host.

    Part of the fault-tolerance extension: carries no operator state, only
    a monotonically increasing sequence number so the root's failure
    detector can distinguish "quiet but alive" from "gone".  The window in
    the header is a placeholder (heartbeats are not window-scoped).
    """

    sequence: int = 0

    LAYOUT = struct.Struct("<Q")


@dataclass(frozen=True, slots=True)
class QueryRegisterMessage(Message):
    """Register (or propagate) a continuous quantile query at runtime.

    Sent client → root to register a query, and root → local (with the
    assigned ``group_id``) to propagate a new window shape of an execution
    group: root → local, ``query_id`` is the root-allocated shape id, and
    the start negotiation that follows runs per (group, window shape).
    """

    query_id: int = 0
    q: float = 0.5
    kind: str = "tumbling"
    length_ms: int = 1000
    step_ms: int = 1000
    gamma: int = 64
    freshness_ms: int = 0
    selector: str = "all"

    PAYLOAD = Payload(
        Fields("<Id", "query_id", "q"),
        Code("kind", {"tumbling": 1, "sliding": 2, "session": 3}),
        Fields("<QQIQ", "length_ms", "step_ms", "gamma", "freshness_ms"),
        Text("selector"),
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

    PAYLOAD = Payload(
        Fields("<I", "query_id"),
        Code("accepted", {False: 0, True: 1}),
        Text("reason"),
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

    LAYOUT = struct.Struct("<IdQQ")


# The documented 28-byte result and the register's 44-byte and the ack's
# 8-byte fixed parts (each before a u32-counted string) are load-bearing
# for the simulator's byte accounting; fail at import time if an edit
# ever drifts from them.
assert QueryResultMessage.LAYOUT.size == 28
assert QueryRegisterMessage(0, Window(0, 1), selector="").payload_bytes == 44 + 4
assert QueryAckMessage(0, Window(0, 1)).payload_bytes == 8 + 4


@dataclass(frozen=True, slots=True)
class QueryDeregisterMessage(Message):
    """Remove a query (client → root) or a window shape (root → local).

    Client → root carries the query id with ``group_id`` 0; root → local
    carries the group in ``group_id`` and the emptied shape's id in
    ``query_id`` — ``query_id`` 0 removes the whole group.
    """

    query_id: int = 0

    LAYOUT = struct.Struct("<I")


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

    LAYOUT = struct.Struct("<q")


@dataclass(frozen=True, slots=True)
class LeaveMessage(Message):
    """A local announces a graceful departure.

    ``effective_from`` is the first grid window start (event-time ms) the
    sender will *not* serve.  Windows before it complete normally; windows
    at or past it no longer wait on the sender — departure degrades
    nothing and can never hang a window.
    """

    effective_from: int = 0

    LAYOUT = struct.Struct("<q")


@dataclass(frozen=True, slots=True)
class RouteUpdateMessage(Message):
    """Root shard broadcasts its membership view after a join or leave.

    ``epoch`` increments on every membership change; ``members`` is the
    shard's full current member list.  Relays and locals use it to keep
    their routing tables in step (and tests use it to assert convergence).
    """

    epoch: int = 0
    members: tuple[int, ...] = ()

    PAYLOAD = Payload(Fields("<Q", "epoch"), Count("members"), Run("members", "<I"))


@dataclass(frozen=True, slots=True)
class RelaySynopsisMessage(Message):
    """Several locals' synopsis batches combined into one relay frame.

    Each section is ``(node_id, local_window_size, synopses)`` and carries
    one child's *complete, ordered* batch for the window: the child's node
    id, then the same synopsis section a :class:`SynopsisMessage` carries
    (local size, γ, boundaries); the node id is the owner a decoder
    rebuilds the rest with — the root explodes sections back into the
    identical per-child :class:`SynopsisMessage` frames, so the
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
            wire.U32_BYTES + synopsis_section_bytes(len(synopses))
            for _, _, synopses in self.sections
        )


@dataclass(frozen=True, slots=True, eq=False)
class RelayRunsMessage(Message):
    """Several candidate runs combined into one relay frame.

    Each section is ``(node_id, slice_index, values)`` — one child's
    sorted candidate value run, exactly as the child served it.  The root
    explodes sections into per-child :class:`CandidateEventsMessage`
    frames, so the calculation operator runs unmodified.

    ``section_contexts`` mirrors :class:`RelaySynopsisMessage`: per-section
    trace contexts riding the header extension block, invisible to the
    payload byte accounting and skippable by older peers.
    """

    #: tuple[(node_id, slice_index, float64 ndarray), ...]
    sections: tuple = ()
    #: tuple[TraceContext | None, ...] aligned with ``sections``.
    section_contexts: tuple = ()

    __eq__ = _runs_eq
    __hash__ = Message.__hash__

    @property
    def payload_bytes(self) -> int:
        return wire.COUNT_BYTES + sum(
            wire.RELAY_RUN_SECTION_FIXED_BYTES
            + len(values) * wire.F64_BYTES
            for _, _, values in self.sections
        )


def covering_window(sections) -> Window:
    """The header window of a batched carrier: the smallest window
    covering its sections' windows (each section's second element)."""
    return Window(
        min(section[1].start for section in sections),
        max(section[1].end for section in sections),
    )


@dataclass(frozen=True, slots=True)
class SynopsisBatchMessage(Message):
    """One local's synopses of every query-plane window one watermark
    sealed: one frame per local per watermark.

    Each section is ``(group_id, window, local_window_size, synopses)``:
    the window's query group and bounds, then the same synopsis section a
    :class:`SynopsisMessage` carries (local size, γ, boundaries), owned
    by the sender.  The header's ``group_id`` is 0 and its window covers
    the sections' (:func:`covering_window`).
    """

    #: tuple[(group_id, Window, local_window_size, SynopsisColumns), ...]
    sections: tuple = ()

    @property
    def payload_bytes(self) -> int:
        return wire.COUNT_BYTES + sum(
            wire.WINDOW_SECTION_BYTES + synopsis_section_bytes(len(synopses))
            for _, _, _, synopses in self.sections
        )


@dataclass(frozen=True, slots=True)
class CandidateRequestBatchMessage(Message):
    """The root's candidate requests to one local for every window one
    synopsis batch let it cut: one frame per local per batch.

    Each section is ``(group_id, window, slice_indices)``.  An empty index
    tuple asks for nothing and releases the window, as an empty
    :class:`CandidateRequestMessage` does.
    """

    #: tuple[(group_id, Window, tuple[int, ...]), ...]
    sections: tuple = ()

    @property
    def payload_bytes(self) -> int:
        return wire.COUNT_BYTES + sum(
            wire.REQUEST_SECTION_BYTES + len(indices) * wire.U32_BYTES
            for _, _, indices in self.sections
        )


@dataclass(frozen=True, slots=True, eq=False)
class CandidateBatchMessage(Message):
    """One local's answer to a :class:`CandidateRequestBatchMessage`: the
    requested slices' sorted values, one section per window that asked
    for any.

    Each section is ``(group_id, window, slice_indices, values)``: the
    slices' value runs concatenated in index order, a ``float64`` array.
    The root splits it at the counts its synopses give.
    """

    #: tuple[(group_id, Window, tuple[int, ...], float64 ndarray), ...]
    sections: tuple = ()

    __eq__ = _runs_eq
    __hash__ = Message.__hash__

    @property
    def payload_bytes(self) -> int:
        return wire.COUNT_BYTES + sum(
            wire.RUN_SECTION_BYTES
            + len(indices) * wire.U32_BYTES
            + len(values) * wire.F64_BYTES
            for _, _, indices, values in self.sections
        )


#: The query plane's batched carriers: their header ``group_id`` is 0, so
#: a host routes them to its query plane by type.
QUERY_PLANE_BATCHES = (
    SynopsisBatchMessage, CandidateRequestBatchMessage, CandidateBatchMessage,
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

    PAYLOAD = Payload(Fields("<Q", "epoch"), Count("dead"), Run("dead", "<I"))


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

    LAYOUT = struct.Struct("<Q")


@dataclass(frozen=True, slots=True)
class TelemetrySnapshotMessage(Message):
    """One node's counters and gauges, piggybacked on an existing link.

    Part of the fleet telemetry plane: every node periodically ships its
    scalar vitals (frames sent, windows sealed, oldest-pending-window age,
    …) in-band to the coordinator, the way heartbeats ride the data
    links — so chaos and partition scenarios exercise the telemetry path
    automatically.  ``stats`` is a tuple of ``(name, value)`` pairs.
    The header window is a placeholder (snapshots are not window-scoped)
    and ``sequence`` orders snapshots from one sender so a late frame
    routed through a second shard never rolls the collector backwards.
    """

    sequence: int = 0
    stats: tuple[tuple[str, float], ...] = ()

    PAYLOAD = Payload(
        Fields("<Q", "sequence"), Count("stats"), Rows("stats", Text(0), Fields("<d", 1))
    )


@dataclass(frozen=True, slots=True)
class TelemetryDigestMessage(Message):
    """One node's t-digest summary of one local metric's samples.

    The fleet collector merges these per-metric across nodes into
    cluster-wide percentiles — the repo's own sketch machinery applied to
    its own operational latencies, at a fraction of the bytes raw-sample
    shipping would cost.  Its payload is :class:`DigestMessage`'s with
    the metric name and a snapshot ``sequence`` in front; digests are
    cumulative per (sender, metric), so the collector keeps only the
    highest sequence from each sender and merges across senders.
    """

    metric: str = ""
    sequence: int = 0
    centroids: tuple[tuple[float, float], ...] = ()
    minimum: float = 0.0
    maximum: float = 0.0

    PAYLOAD = Payload(
        Text("metric"),
        Fields("<Q", "sequence"),
        Count("centroids"),
        Fields("<dd", "minimum", "maximum"),
        Run("centroids", "<dd"),
    )
