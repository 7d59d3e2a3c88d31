"""Binary codec: every protocol message to and from wire frames.

One frame per message: a u32 length prefix followed by the fixed header
(version, type tag, flags, sender, group id, window bounds — layout in
:mod:`repro.runtime.wire`) and a type-specific payload.  Encoding is
lossless: ``decode_frame(encode_frame(m)) == m`` for every message type.
A NaN is refused at the door, and a wire-fed one where it is first
ordered: a slice boundary here, an event or run value by the sort or the
root's rank select (its bits survive decode).

One table, ``_CODECS``, lists every message type once with its tag.  A
type's payload is declared once, in its class in
:mod:`repro.network.messages`: a fixed-size type's ``LAYOUT`` struct, which
this module packs and unpacks the class's own fields with, or a
variable-length type's ``PAYLOAD`` parts (``_declared``), whose own
``pack`` and ``unpack`` this module runs in wire order; ``payload_bytes``
follows from the same declaration.  Eight types keep a hand encoder and
decoder, named in the table: the event batch, the three synopsis
carriers, the three candidate-run carriers and the query plane's batched
candidate request.  The test suite asserts
``len(encode_payload(m)) == m.payload_bytes`` exactly, which is what lets
the discrete-event simulator charge real wire bytes.

Framing is deliberately dumb — no compression, no varints — so that sizes
are arithmetic over the struct constants and a reader can frame a stream
with two ``readexactly`` calls.

Frames may carry an optional, versioned **header extension block**
(announced by the :data:`~repro.runtime.wire.FLAG_EXTENSIONS` flag bit)
between the fixed header and the payload.  Extensions are type-tagged and
length-delimited, so a decoder skips any extension type it does not know;
the only assigned type carries the distributed-tracing context
(:class:`~repro.obs.live.context.TraceContext`).  Frames without the flag
are bit-identical to the original wire format, which is what keeps the
simulator's byte accounting and old captures valid.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as _np

from repro.core.synopsis import SynopsisColumns, as_synopsis_columns
from repro.errors import CodecError
from repro.obs.live.context import TraceContext
from repro.network.messages import (
    CandidateBatchMessage,
    CandidateEventsMessage,
    CandidateRequestBatchMessage,
    CandidateRequestMessage,
    DigestMessage,
    EventBatchMessage,
    GammaUpdateMessage,
    HeartbeatMessage,
    JoinMessage,
    LeaveMessage,
    Message,
    PartialAggregateMessage,
    QDigestMessage,
    QueryAckMessage,
    QueryDeregisterMessage,
    QueryRegisterMessage,
    QueryResultMessage,
    RelayRunsMessage,
    RelaySynopsisMessage,
    ResultAckMessage,
    ResultMessage,
    RouteUpdateMessage,
    ShardFailoverMessage,
    SortedRunMessage,
    SynopsisBatchMessage,
    SynopsisMessage,
    SynopsisRequestMessage,
    TelemetryDigestMessage,
    TelemetrySnapshotMessage,
    WatermarkMessage,
    WindowReleaseMessage,
    _values_from_wire,
)
from repro.runtime import wire
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window

# Hot-path module: event, value and synopsis arrays decode into zero-copy
# ``EventColumns`` / ``float64`` / ``SynopsisColumns`` views and encode
# from them — no per-event ``Event`` or per-slice ``SliceSynopsis``
# construction here (enforced by tests/test_hotpath_lint.py).

__all__ = [
    "Hello",
    "HELLO_TAG",
    "TAG_BY_TYPE",
    "TYPE_BY_TAG",
    "tag_of",
    "encode_payload",
    "encode_extensions",
    "encode_frame",
    "encode_hello",
    "decode_body",
    "decode_body_traced",
    "decode_frame",
    "decode_frame_traced",
    "decode_payload",
]

#: Type tag of the ``Hello`` control frame (never a protocol message).
HELLO_TAG = 0

#: Roles a peer may announce in its ``Hello``.
_ROLE_CODES = {"stream": 1, "local": 2, "root": 3, "driver": 4, "relay": 5}
_ROLE_NAMES = {code: name for name, code in _ROLE_CODES.items()}


@dataclass(frozen=True, slots=True)
class Hello:
    """Connection preamble: who is dialing and in what role.

    Sent once by the dialing side immediately after connect, before any
    protocol message, so the accepting server can register the peer under
    its node id.  Not a :class:`~repro.network.messages.Message` — it never
    crosses the simulator and carries no window.

    ``resume_from`` is the session-resume cursor: the event-time end (ms)
    of the highest window the sender has seen released, or ``-1`` for a
    fresh session.  A reconnecting local announces it so the root can
    re-acknowledge anything the local still retains but the root already
    answered.
    """

    node_id: int
    role: str
    resume_from: int = -1

    def __post_init__(self) -> None:
        if self.role not in _ROLE_CODES:
            raise CodecError(
                f"unknown hello role {self.role!r}; "
                f"expected one of {sorted(_ROLE_CODES)}"
            )


#: A frame's length prefix and fixed header, packed in one call.
_FRAME_HEAD = struct.Struct(
    wire.LENGTH_PREFIX.format + wire.HEADER.format.lstrip("<")
)


def tag_of(message: Message) -> int:
    """Wire type tag for ``message`` (exact type, not isinstance)."""
    try:
        return TAG_BY_TYPE[type(message)]
    except KeyError:
        raise CodecError(
            f"no wire tag registered for {type(message).__name__}"
        ) from None


# ----------------------------------------------------------------------
# Hand encoders: the event batch (held to its per-frame call budget), the
# three synopsis carriers (their section is ``SynopsisColumns``' own), the
# three candidate-run carriers and the batched candidate request (declared
# parts cost their codec stage a Python call a part).
# ----------------------------------------------------------------------


def _event_batch_payload(events: EventColumns) -> "tuple[tuple, int]":
    """The payload as parts of the frame's one join — the count, then the
    batch's records as they lie (a columnar batch already *is* the wire
    layout; a strided one is copied once, whole records at a time) — and
    its length in bytes."""
    n = len(events)
    return (
        (wire.COUNT.pack(n), events.wire_records()),
        wire.COUNT_BYTES + n * wire.EVENT_WIRE_BYTES,
    )


def _encode_event_batch(m: EventBatchMessage) -> bytes:
    return b"".join(_event_batch_payload(m.events)[0])


def _encode_synopsis(m: SynopsisMessage) -> bytes:
    return wire.COUNT.pack(len(m.synopses)) + as_synopsis_columns(
        m.synopses
    ).to_wire(m.local_window_size)


def _encode_values(values) -> bytes:
    # A float64 run already *is* the wire layout.
    return wire.COUNT.pack(len(values)) + _np.asarray(values, "<f8").tobytes()


def _encode_candidate_events(m: CandidateEventsMessage) -> bytes:
    return wire.U32.pack(m.slice_index) + _encode_values(m.events)


def _encode_relay_synopsis(m: RelaySynopsisMessage) -> bytes:
    parts = [wire.COUNT.pack(len(m.sections))]
    for node_id, local_window_size, synopses in m.sections:
        parts.append(wire.U32.pack(node_id))
        parts.append(as_synopsis_columns(synopses).to_wire(local_window_size))
    return b"".join(parts)


def _encode_relay_runs(m: RelayRunsMessage) -> bytes:
    parts = [wire.COUNT.pack(len(m.sections))]
    for node_id, slice_index, values in m.sections:
        parts.append(
            wire.RELAY_RUN_SECTION_FIXED.pack(
                node_id, slice_index, len(values)
            )
        )
        parts.append(_np.asarray(values, "<f8").tobytes())
    return b"".join(parts)


def _encode_synopsis_batch(m: SynopsisBatchMessage) -> bytes:
    parts = [wire.COUNT.pack(len(m.sections))]
    for group_id, window, local_window_size, synopses in m.sections:
        parts.append(wire.WINDOW_SECTION.pack(group_id, window.start, window.end))
        parts.append(as_synopsis_columns(synopses).to_wire(local_window_size))
    return b"".join(parts)


def _encode_request_batch(m: CandidateRequestBatchMessage) -> bytes:
    parts = [wire.COUNT.pack(len(m.sections))]
    for group_id, window, indices in m.sections:
        parts.append(wire.REQUEST_SECTION.pack(
            group_id, window.start, window.end, len(indices)
        ))
        parts.append(_np.asarray(indices, "<u4").tobytes())
    return b"".join(parts)


def _encode_candidate_batch(m: CandidateBatchMessage) -> bytes:
    parts = [wire.COUNT.pack(len(m.sections))]
    for group_id, window, indices, values in m.sections:
        parts.append(wire.RUN_SECTION.pack(
            group_id, window.start, window.end, len(indices), len(values)
        ))
        parts.append(_np.asarray(indices, "<u4").tobytes())
        parts.append(_np.asarray(values, "<f8").tobytes())
    return b"".join(parts)


# ----------------------------------------------------------------------
# The payload reader, and the hand decoders.  A decoder consumes a
# memoryview and must use it fully.
# ----------------------------------------------------------------------


class _Reader:
    """Cursor over a payload with bounds-checked struct reads."""

    __slots__ = ("_view", "_pos")

    def __init__(self, payload: bytes | memoryview) -> None:
        self._view = memoryview(payload)
        self._pos = 0

    def unpack(self, fmt) -> tuple:
        end = self._pos + fmt.size
        if end > len(self._view):
            raise CodecError(
                f"payload truncated: need {end} bytes, have {len(self._view)}"
            )
        values = fmt.unpack_from(self._view, self._pos)
        self._pos = end
        return values

    def count(self) -> int:
        return self.unpack(wire.COUNT)[0]

    def take(self, n: int) -> bytes:
        """Read ``n`` raw bytes (extension bodies, strings)."""
        return bytes(self.view(n))

    def view(self, n: int) -> memoryview:
        """Read ``n`` bytes as a zero-copy view (bulk struct decoding)."""
        end = self._pos + n
        if end > len(self._view):
            raise CodecError(
                f"payload truncated: need {end} bytes, have {len(self._view)}"
            )
        raw = self._view[self._pos:end]
        self._pos = end
        return raw

    def need(self, n: int) -> None:
        """Refuse a payload without ``n`` more bytes (a count the rest
        cannot hold), before anything is built for them."""
        if self._pos + n > len(self._view):
            raise CodecError(
                f"payload truncated: need {self._pos + n} bytes, "
                f"have {len(self._view)}"
            )

    def rest(self) -> memoryview:
        """All remaining bytes as a zero-copy view (payload-tail arrays)."""
        raw = self._view[self._pos:]
        self._pos = len(self._view)
        return raw

    def section(self, node_id: int) -> "tuple[SynopsisColumns, int]":
        """Read one synopsis section as ``node_id``'s batch, and its local
        window size; its length follows from its own header."""
        synopses, size, used = SynopsisColumns.from_wire(
            self._view[self._pos:], node_id
        )
        self._pos += used
        return synopses, size

    def finish(self) -> None:
        if self._pos != len(self._view):
            raise CodecError(
                f"payload has {len(self._view) - self._pos} trailing bytes"
            )


def _event_batch(
    payload: memoryview, sender: int, window: Window, group_id: int
) -> EventBatchMessage:
    """An event-batch payload: the count, then the event array as the
    payload tail.  The columnar constructor takes the remaining bytes and
    rejects a length that is not a multiple of the event stride or
    disagrees with the count — strict validation instead of
    iter_unpack's truncation behavior."""
    if len(payload) < wire.COUNT.size:
        raise CodecError(
            f"payload truncated: need {wire.COUNT.size} bytes, "
            f"have {len(payload)}"
        )
    (count,) = wire.COUNT.unpack_from(payload)
    events = EventColumns.from_wire(payload[wire.COUNT.size:], count)
    return EventBatchMessage(sender, window, group_id, events)


def _decode_event_batch(r, sender, window, group_id):
    return _event_batch(r.rest(), sender, window, group_id)


def _decode_synopsis(r, sender, window, group_id):
    # The section is the payload tail; the columnar constructor rebuilds
    # counts, positions and last values from the size, γ and boundaries,
    # and validates the batch.  The announced count must be the cut's.
    n = r.count()
    synopses, local_window_size = r.section(sender)
    if len(synopses) != n:
        raise CodecError(
            f"synopsis frame announces {n} synopses, but {local_window_size} "
            f"events cut into {len(synopses)}"
        )
    return SynopsisMessage(sender, window, group_id, synopses, local_window_size)


def _decode_values(r: _Reader):
    # Like an event array, the value array is the payload tail.
    n = r.count()
    return _values_from_wire(r.rest(), n)


def _decode_candidate_events(r, sender, window, group_id):
    (slice_index,) = r.unpack(wire.U32)
    return CandidateEventsMessage(
        sender, window, group_id, slice_index, _decode_values(r)
    )


def _decode_relay_synopsis(r, sender, window, group_id):
    n_sections = r.count()
    sections = []
    for _ in range(n_sections):
        (node_id,) = r.unpack(wire.U32)
        synopses, local_window_size = r.section(node_id)
        sections.append((node_id, local_window_size, synopses))
    return RelaySynopsisMessage(sender, window, group_id, tuple(sections))


def _decode_relay_runs(r, sender, window, group_id):
    n_sections = r.count()
    sections = []
    for _ in range(n_sections):
        node_id, slice_index, n = r.unpack(wire.RELAY_RUN_SECTION_FIXED)
        raw = r.view(n * wire.F64_BYTES)
        sections.append((node_id, slice_index, _values_from_wire(raw, n)))
    return RelayRunsMessage(sender, window, group_id, tuple(sections))


def _section_window(start: int, end: int) -> Window:
    """A batched carrier's section window; an empty or inverted one is a
    malformed frame."""
    if end <= start:
        raise CodecError(f"section window [{start}, {end}) is empty")
    return Window(start, end)


def _indices(r: _Reader, n: int) -> "tuple[int, ...]":
    return tuple(_np.frombuffer(r.view(n * wire.U32_BYTES), "<u4").tolist())


def _decode_synopsis_batch(r, sender, window, group_id):
    sections = []
    for _ in range(r.count()):
        group, start, end = r.unpack(wire.WINDOW_SECTION)
        synopses, local_window_size = r.section(sender)
        sections.append(
            (group, _section_window(start, end), local_window_size, synopses)
        )
    return SynopsisBatchMessage(sender, window, group_id, tuple(sections))


def _decode_request_batch(r, sender, window, group_id):
    sections = []
    for _ in range(r.count()):
        group, start, end, n = r.unpack(wire.REQUEST_SECTION)
        sections.append((group, _section_window(start, end), _indices(r, n)))
    return CandidateRequestBatchMessage(sender, window, group_id, tuple(sections))


def _decode_candidate_batch(r, sender, window, group_id):
    sections = []
    for _ in range(r.count()):
        group, start, end, n, n_values = r.unpack(wire.RUN_SECTION)
        indices = _indices(r, n)
        raw = r.view(n_values * wire.F64_BYTES)
        sections.append((
            group, _section_window(start, end), indices,
            _values_from_wire(raw, n_values),
        ))
    return CandidateBatchMessage(sender, window, group_id, tuple(sections))


# ----------------------------------------------------------------------
# The codec table.  Wire compatibility: tags are append-only, never reused.
# ----------------------------------------------------------------------


def _fixed(cls: type) -> "tuple[Callable, Callable]":
    """The encoder and decoder of a fixed-size message: its class's
    ``LAYOUT`` over the fields the class declares, in declaration order."""
    layout = cls.LAYOUT
    names = [f.name for f in fields(cls)[len(fields(Message)):]]
    assert len(layout.unpack(bytes(layout.size))) == len(names), cls

    def encode(m: Message) -> bytes:
        return layout.pack(*[getattr(m, name) for name in names])

    def decode(r, sender, window, group_id):
        return cls(sender, window, group_id, *r.unpack(layout))

    return encode, decode


def _declared(cls: type) -> "tuple[Callable, Callable]":
    """The encoder and decoder of a variable-length message: its class's
    ``PAYLOAD`` parts, in wire order."""
    parts = cls.PAYLOAD.parts

    def encode(m: Message) -> bytes:
        out: list = []
        for part in parts:
            part.pack(m, out)
        return b"".join(out)

    def decode(r, sender, window, group_id):
        kwargs: dict = {}
        for part in parts:
            part.unpack(r, kwargs)
        return cls(sender, window, group_id, **kwargs)

    return encode, decode


#: Every message type once, with its tag.  A fixed-size type's payload
#: codec follows from its ``LAYOUT``, a ``_declared`` one's from its
#: ``PAYLOAD``; a hand-coded type names its encoder and decoder.
_CODECS = (
    (1, Message),
    (2, EventBatchMessage, _encode_event_batch, _decode_event_batch),
    (3, SortedRunMessage, _declared),
    (4, SynopsisMessage, _encode_synopsis, _decode_synopsis),
    (5, CandidateRequestMessage, _declared),
    (6, CandidateEventsMessage, _encode_candidate_events,
     _decode_candidate_events),
    (7, SynopsisRequestMessage),
    (8, WindowReleaseMessage),
    (9, GammaUpdateMessage),
    (10, DigestMessage, _declared),
    (11, PartialAggregateMessage, _declared),
    (12, QDigestMessage, _declared),
    (13, WatermarkMessage),
    (14, ResultMessage),
    (15, HeartbeatMessage),
    (16, QueryRegisterMessage, _declared),
    (17, QueryAckMessage, _declared),
    (18, QueryResultMessage),
    (19, QueryDeregisterMessage),
    (20, JoinMessage),
    (21, LeaveMessage),
    (22, RouteUpdateMessage, _declared),
    (23, RelaySynopsisMessage, _encode_relay_synopsis,
     _decode_relay_synopsis),
    (24, RelayRunsMessage, _encode_relay_runs, _decode_relay_runs),
    (25, ShardFailoverMessage, _declared),
    (26, ResultAckMessage),
    (27, TelemetrySnapshotMessage, _declared),
    (28, TelemetryDigestMessage, _declared),
    (29, SynopsisBatchMessage, _encode_synopsis_batch, _decode_synopsis_batch),
    (30, CandidateRequestBatchMessage, _encode_request_batch,
     _decode_request_batch),
    (31, CandidateBatchMessage, _encode_candidate_batch,
     _decode_candidate_batch),
)

TAG_BY_TYPE: dict[type, int] = {cls: tag for tag, cls, *_ in _CODECS}
TYPE_BY_TAG: dict[int, type] = {tag: cls for cls, tag in TAG_BY_TYPE.items()}
assert len(TAG_BY_TYPE) == len(TYPE_BY_TAG) == len(_CODECS)


def _pair(cls: type, *codec: Callable) -> "tuple[Callable, Callable]":
    """A row's encoder and decoder: its hand pair, or derived from its
    class by ``_declared`` or, when the row names none, by ``_fixed``."""
    if len(codec) == 2:
        return codec
    (derive,) = codec or (_fixed,)
    return derive(cls)


_PAIRS = {tag: _pair(cls, *codec) for tag, cls, *codec in _CODECS}
_ENCODERS: dict[type, Callable[[Message], bytes]] = {
    TYPE_BY_TAG[tag]: encode for tag, (encode, _) in _PAIRS.items()
}
_DECODERS: dict[int, Callable] = {
    tag: decode for tag, (_, decode) in _PAIRS.items()
}

_EVENT_BATCH_TAG = TAG_BY_TYPE[EventBatchMessage]


# ----------------------------------------------------------------------
# Header extensions.
# ----------------------------------------------------------------------


def _pack_context_body(context: TraceContext | None) -> bytes:
    """One 17-byte context body; ``None`` packs the absent marker."""
    if context is None:
        return wire.TRACE_CONTEXT_EXT.pack(
            0, 0, wire.SECTION_CONTEXT_ABSENT_BIT
        )
    return wire.TRACE_CONTEXT_EXT.pack(
        context.trace_id,
        context.span_id,
        wire.TRACE_SAMPLED_BIT if context.sampled else 0,
    )


def encode_extensions(
    context: TraceContext | None,
    section_contexts: "tuple[TraceContext | None, ...]" = (),
) -> bytes:
    """Serialize the header extension block.

    One :data:`~repro.runtime.wire.EXT_TRACE_CONTEXT` entry carries the
    frame's own ``context`` (when given); one
    :data:`~repro.runtime.wire.EXT_SECTION_CONTEXT` entry per element of
    ``section_contexts`` carries a relay-combined frame's per-child
    contexts in section order (``None`` elements ship the absent marker
    so alignment with the section list survives untraced children).
    """
    entries = []
    if context is not None:
        body = _pack_context_body(context)
        entries.append(
            wire.EXT_HEADER.pack(wire.EXT_TRACE_CONTEXT, len(body)) + body
        )
    for section_context in section_contexts:
        body = _pack_context_body(section_context)
        entries.append(
            wire.EXT_HEADER.pack(wire.EXT_SECTION_CONTEXT, len(body)) + body
        )
    if len(entries) > 255:
        raise CodecError(
            f"extension block of {len(entries)} entries exceeds the u8 count"
        )
    return wire.EXT_COUNT.pack(len(entries)) + b"".join(entries)


def _unpack_context_body(body: bytes) -> TraceContext | None:
    trace_id, span_id, flags = wire.TRACE_CONTEXT_EXT.unpack(body)
    if flags & wire.SECTION_CONTEXT_ABSENT_BIT:
        return None
    return TraceContext(
        trace_id=trace_id,
        span_id=span_id,
        sampled=bool(flags & wire.TRACE_SAMPLED_BIT),
    )


def _decode_extensions(
    reader: _Reader,
) -> "tuple[TraceContext | None, list[TraceContext | None] | None]":
    """Consume the extension block.

    Returns the frame's trace context (``None`` when absent) and the
    per-section context list (``None`` when no section-context entries
    were present).  Unknown extension types are skipped by their declared
    length — the compatibility contract that lets an old decoder read a
    newer peer's frames (and this decoder read frames from a future one).
    """
    (count,) = reader.unpack(wire.EXT_COUNT)
    context: TraceContext | None = None
    sections: "list[TraceContext | None] | None" = None
    for _ in range(count):
        ext_type, ext_length = reader.unpack(wire.EXT_HEADER)
        body = reader.take(ext_length)
        if ext_type == wire.EXT_TRACE_CONTEXT:
            if ext_length != wire.TRACE_CONTEXT_EXT_BYTES:
                raise CodecError(
                    f"trace-context extension of {ext_length} bytes, "
                    f"expected {wire.TRACE_CONTEXT_EXT_BYTES}"
                )
            trace_id, span_id, flags = wire.TRACE_CONTEXT_EXT.unpack(body)
            context = TraceContext(
                trace_id=trace_id,
                span_id=span_id,
                sampled=bool(flags & wire.TRACE_SAMPLED_BIT),
            )
        elif ext_type == wire.EXT_SECTION_CONTEXT:
            if ext_length != wire.TRACE_CONTEXT_EXT_BYTES:
                raise CodecError(
                    f"section-context extension of {ext_length} bytes, "
                    f"expected {wire.TRACE_CONTEXT_EXT_BYTES}"
                )
            if sections is None:
                sections = []
            sections.append(_unpack_context_body(body))
        # Any other type: length-delimited, step over what we don't know.
    return context, sections


# ----------------------------------------------------------------------
# Public API.
# ----------------------------------------------------------------------


def encode_payload(message: Message) -> bytes:
    """Serialize just the payload of ``message`` (no header).

    ``len(encode_payload(m)) == m.payload_bytes`` for every message type —
    the invariant the simulator's byte accounting rests on.
    """
    try:
        encoder = _ENCODERS[type(message)]
    except KeyError:
        raise CodecError(
            f"no payload encoder for {type(message).__name__}"
        ) from None
    return encoder(message)


def _frame(tag: int, sender: int, group_id: int, start: int, end: int,
           payload: tuple, payload_bytes: int,
           context: TraceContext | None = None,
           section_contexts: "tuple[TraceContext | None, ...]" = ()) -> bytes:
    """One frame from its header fields and its ``payload`` parts
    (``payload_bytes`` long in all), built by one join."""
    flags = 0
    extensions = b""
    if context is not None or section_contexts:
        flags = wire.FLAG_EXTENSIONS
        extensions = encode_extensions(context, section_contexts)
    length = wire.HEADER.size + len(extensions) + payload_bytes
    if length > wire.MAX_FRAME_BYTES:
        raise CodecError(
            f"frame of {length} bytes exceeds MAX_FRAME_BYTES "
            f"({wire.MAX_FRAME_BYTES})"
        )
    head = _FRAME_HEAD.pack(
        length, wire.WIRE_VERSION, tag, flags, sender, group_id, start, end
    )
    return b"".join((head, extensions, *payload))


def encode_frame(
    message: Message, context: TraceContext | None = None
) -> bytes:
    """Serialize ``message`` to one full frame (length prefix included).

    Without a ``context``, ``len(encode_frame(m)) == m.wire_bytes``
    exactly; with one, the frame grows by the extension block (telemetry
    overhead is real bytes and is reported as such, never hidden).  A
    relay-combined message whose ``section_contexts`` field is set also
    grows by one section-context entry per section — again real,
    reported bytes, and skippable by peers that predate the extension.
    """
    if type(message) is EventBatchMessage:
        tag = _EVENT_BATCH_TAG
        payload, payload_bytes = _event_batch_payload(message.events)
    else:
        tag = tag_of(message)
        payload = (encode_payload(message),)
        payload_bytes = len(payload[0])
    window = message.window
    return _frame(
        tag,
        message.sender,
        message.group_id,
        window.start,
        window.end,
        payload,
        payload_bytes,
        context,
        getattr(message, "section_contexts", ()),
    )


def encode_hello(hello: Hello) -> bytes:
    """Serialize the connection preamble to one frame (tag 0)."""
    # No window on a hello: the bounds are zero and ignored on decode.
    payload = (
        wire.U32.pack(_ROLE_CODES[hello.role])
        + wire.I64.pack(hello.resume_from)
    )
    return _frame(HELLO_TAG, hello.node_id, 0, 0, 0, (payload,), len(payload))


def decode_body_traced(
    body: bytes | memoryview,
) -> tuple[Message | Hello, TraceContext | None]:
    """Decode a frame body (header + payload, **without** length prefix).

    This is the entry point for stream transports, which already framed the
    body with two ``readexactly`` calls.  Returns the message together with
    the trace context its header extension carried (``None`` when absent).

    Raises:
        CodecError: On version mismatch, unknown tag, unknown flag bits, a
            malformed extension block, or a payload that is truncated or
            has trailing bytes.
    """
    view = memoryview(body)
    if len(view) < wire.HEADER.size:
        raise CodecError(
            f"frame body of {len(view)} bytes is shorter than the "
            f"{wire.HEADER.size}-byte header"
        )
    version, tag, flags, sender, group_id, start, end = wire.HEADER.unpack_from(
        view, 0
    )
    if version != wire.WIRE_VERSION:
        raise CodecError(
            f"wire version mismatch: got {version}, expected {wire.WIRE_VERSION}"
        )
    if flags & ~wire.KNOWN_FLAGS:
        raise CodecError(
            f"unknown flag bits {flags & ~wire.KNOWN_FLAGS:#06x} "
            f"(known: {wire.KNOWN_FLAGS:#06x})"
        )
    if tag == _EVENT_BATCH_TAG and not flags:
        # The hot frame: its payload straight to its decoder, no reader.
        payload = view[wire.HEADER.size:]
        return _event_batch(payload, sender, Window(start, end), group_id), None
    reader = _Reader(view[wire.HEADER.size:])
    context: TraceContext | None = None
    section_contexts: "list[TraceContext | None] | None" = None
    if flags & wire.FLAG_EXTENSIONS:
        context, section_contexts = _decode_extensions(reader)
    if tag == HELLO_TAG:
        (role_code,) = reader.unpack(wire.U32)
        (resume_from,) = reader.unpack(wire.I64)
        reader.finish()
        role = _ROLE_NAMES.get(role_code)
        if role is None:
            raise CodecError(f"unknown hello role code {role_code}")
        return Hello(node_id=sender, role=role, resume_from=resume_from), context
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise CodecError(f"unknown frame type tag {tag}")
    message = decoder(reader, sender, Window(start, end), group_id)
    reader.finish()
    if section_contexts is not None and isinstance(
        message, (RelaySynopsisMessage, RelayRunsMessage)
    ):
        if len(section_contexts) != len(message.sections):
            raise CodecError(
                f"{len(section_contexts)} section-context extensions on a "
                f"frame with {len(message.sections)} sections"
            )
        message = replace(message, section_contexts=tuple(section_contexts))
    return message, context


def decode_body(body: bytes | memoryview) -> Message | Hello:
    """Decode a frame body, discarding any trace context it carried."""
    message, _ = decode_body_traced(body)
    return message


def decode_frame_traced(
    frame: bytes | memoryview,
) -> tuple[Message | Hello, TraceContext | None]:
    """Decode one complete frame (length prefix included), strictly.

    The frame must contain exactly one message — a short buffer or trailing
    bytes raise :class:`~repro.errors.CodecError`.
    """
    view = memoryview(frame)
    if len(view) < wire.LENGTH_PREFIX.size:
        raise CodecError("frame shorter than its length prefix")
    (length,) = wire.LENGTH_PREFIX.unpack_from(view, 0)
    if length > wire.MAX_FRAME_BYTES:
        raise CodecError(
            f"frame length {length} exceeds MAX_FRAME_BYTES "
            f"({wire.MAX_FRAME_BYTES})"
        )
    body = view[wire.LENGTH_PREFIX.size:]
    if len(body) != length:
        raise CodecError(
            f"frame length prefix says {length} bytes, buffer has {len(body)}"
        )
    return decode_body_traced(body)


def decode_frame(frame: bytes | memoryview) -> Message | Hello:
    """Decode one complete frame, discarding any trace context."""
    message, _ = decode_frame_traced(frame)
    return message


def decode_payload(
    tag: int, payload: bytes | memoryview, *, sender: int, window: Window,
    group_id: int = 0,
) -> Message:
    """Decode a bare payload given its type tag and header fields.

    Mostly useful in tests that want to poke at payload layouts directly;
    transports go through :func:`decode_body`.
    """
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise CodecError(f"unknown frame type tag {tag}")
    reader = _Reader(payload)
    message = decoder(reader, sender, window, group_id)
    reader.finish()
    return message
