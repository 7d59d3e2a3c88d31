"""Codec tests: lossless round trips and byte-exact size accounting.

The central invariants — ``len(encode_payload(m)) == m.payload_bytes`` and
``len(encode_frame(m)) == m.wire_bytes`` — are what let the discrete-event
simulator charge exactly the bytes the live runtime puts on a socket.
Round trips are checked at the bit level (re-encode and compare frames) so
NaN payloads, whose dataclasses are never ``==`` to anything, still count.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.slicing import slice_sorted_events
from repro.core.synopsis import SliceSynopsis, SynopsisColumns
from repro.errors import CodecError
from repro.network.messages import (
    MESSAGE_HEADER_BYTES,
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
)
from repro.runtime import wire
from repro.runtime.codec import (
    HELLO_TAG,
    TAG_BY_TYPE,
    TYPE_BY_TAG,
    Hello,
    decode_body,
    decode_body_traced,
    decode_frame,
    decode_frame_traced,
    decode_payload,
    encode_frame,
    encode_hello,
    encode_payload,
    tag_of,
)
from repro.obs.live.context import TraceContext
from repro.streaming.columns import EventColumns, sort_values
from repro.streaming.events import Event, make_events

cols = EventColumns.from_events
from repro.streaming.windows import Window


def vals(*values):
    """A value run as the wire carries it: contiguous little-endian f64."""
    return np.array(values, dtype="<f8")

# ----------------------------------------------------------------------
# Strategies.
# ----------------------------------------------------------------------

u32 = st.integers(min_value=0, max_value=2**32 - 1)
u64 = st.integers(min_value=0, max_value=2**64 - 1)
f64 = st.floats(width=64)  # NaN and infinities included
finite_f64 = st.floats(width=64, allow_nan=False)

windows = st.builds(
    lambda start, length: Window(start, start + length),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=1, max_value=2**20),
)

events = st.builds(Event, value=f64, timestamp=u32, node_id=u32, seq=u32)
#: Contiguous batches, and the strided views a multi-stream replay ships.
event_batches = st.builds(
    lambda rows, step: cols(rows)[::step],
    st.lists(events, max_size=30),
    st.sampled_from([1, 2, 3, -1]),
)
value_runs = st.lists(f64, max_size=30).map(lambda v: vals(*v))

#: Key selectors are arbitrary UTF-8 text on the wire (validation happens
#: in QuerySpec, above the codec) — including astral-plane codepoints,
#: whose UTF-8 length differs from their codepoint count.
selector_text = st.text(max_size=24)
window_kinds = st.sampled_from(["tumbling", "sliding", "session"])


@st.composite
def synopsis_batches(draw, node_id, max_size=8):
    """A complete batch as node ``node_id``'s slicer cuts it, with its
    local window size: ``n`` slices of γ events (the last one 2 to γ + 1,
    or a single slice of any size) keyed by ``n + 1`` ascending boundaries
    — every first value, then the maximum — exactly what a decoder
    rebuilds from the size, γ and the boundaries, so the only batches that
    round-trip.
    """
    n = draw(st.integers(min_value=0, max_value=max_size))
    if n == 0:
        return 0, ()
    # The window stays within the u32 key positions.
    gamma = draw(st.integers(min_value=2, max_value=2**32 // (max_size + 1)))
    if n == 1:
        counts = [draw(st.integers(min_value=1, max_value=2**31))]
    else:
        last = draw(st.integers(min_value=2, max_value=gamma + 1))
        counts = [gamma] * (n - 1) + [last]
    bounds = sorted(draw(finite_f64) for _ in range(n + 1))
    batch = []
    position = 0
    for index, count in enumerate(counts):
        batch.append(
            SliceSynopsis(
                first_key=(bounds[index], node_id, position),
                last_key=(bounds[index + 1], node_id, position + count - 1),
                count=count,
                node_id=node_id,
                slice_index=index,
                n_slices=n,
            )
        )
        position += count
    return position, tuple(batch)


@st.composite
def synopsis_messages(draw):
    sender = draw(u32)
    size, batch = draw(synopsis_batches(sender))
    return SynopsisMessage(sender, draw(windows), draw(u32), batch, size)


@st.composite
def relay_synopsis_sections(draw):
    sections = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        node_id = draw(u32)
        size, batch = draw(synopsis_batches(node_id, max_size=4))
        sections.append((node_id, size, batch))
    return tuple(sections)


relay_synopsis_messages = st.builds(
    lambda sender, window, group_id, sections: RelaySynopsisMessage(
        sender, window, group_id, sections=sections
    ),
    u32, windows, u32, relay_synopsis_sections(),
)


@st.composite
def relay_run_sections(draw):
    return tuple(
        (
            draw(u32),
            draw(u32),
            draw(st.lists(f64, max_size=6).map(lambda v: vals(*v))),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )


@st.composite
def synopsis_batch_messages(draw):
    """A query-plane synopsis frame: the sender owns every section."""
    sender = draw(u32)
    sections = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        size, batch = draw(synopsis_batches(sender, max_size=4))
        sections.append((draw(u32), draw(windows), size, batch))
    return SynopsisBatchMessage(sender, draw(windows), draw(u32), tuple(sections))


request_batch_sections = st.lists(
    st.tuples(u32, windows, st.lists(u32, max_size=6).map(tuple)), max_size=3
).map(tuple)

candidate_batch_sections = st.lists(
    st.tuples(
        u32, windows, st.lists(u32, max_size=6).map(tuple),
        st.lists(f64, max_size=8).map(lambda v: vals(*v)),
    ),
    max_size=3,
).map(tuple)


def _with_header(payload_strategy):
    """Wrap a payload-fields strategy with the shared header fields."""
    return st.tuples(u32, windows, u32, payload_strategy)


messages = st.one_of(
    _with_header(st.none()).map(lambda t: Message(t[0], t[1], t[2])),
    _with_header(event_batches).map(
        lambda t: EventBatchMessage(t[0], t[1], t[2], t[3])
    ),
    _with_header(value_runs).map(
        lambda t: SortedRunMessage(t[0], t[1], t[2], t[3])
    ),
    synopsis_messages(),
    _with_header(st.lists(u32, max_size=30).map(tuple)).map(
        lambda t: CandidateRequestMessage(t[0], t[1], t[2], t[3])
    ),
    _with_header(st.tuples(u32, value_runs)).map(
        lambda t: CandidateEventsMessage(t[0], t[1], t[2], t[3][0], t[3][1])
    ),
    _with_header(st.none()).map(
        lambda t: SynopsisRequestMessage(t[0], t[1], t[2])
    ),
    _with_header(st.none()).map(
        lambda t: WindowReleaseMessage(t[0], t[1], t[2])
    ),
    _with_header(st.integers(min_value=2, max_value=2**32 - 1)).map(
        lambda t: GammaUpdateMessage(t[0], t[1], t[2], t[3])
    ),
    _with_header(
        st.tuples(
            st.lists(st.tuples(f64, f64), max_size=20).map(tuple), f64, f64
        )
    ).map(lambda t: DigestMessage(t[0], t[1], t[2], t[3][0], t[3][1], t[3][2])),
    _with_header(st.tuples(st.lists(f64, max_size=8).map(tuple), u64)).map(
        lambda t: PartialAggregateMessage(t[0], t[1], t[2], t[3][0], t[3][1])
    ),
    _with_header(u64).map(lambda t: WatermarkMessage(t[0], t[1], t[2], t[3])),
    _with_header(st.tuples(f64, u64)).map(
        lambda t: ResultMessage(t[0], t[1], t[2], t[3][0], t[3][1])
    ),
    _with_header(u64).map(lambda t: HeartbeatMessage(t[0], t[1], t[2], t[3])),
    _with_header(
        st.tuples(u32, f64, window_kinds, u64, u64, u32, u64, selector_text)
    ).map(
        lambda t: QueryRegisterMessage(
            t[0], t[1], t[2],
            query_id=t[3][0], q=t[3][1], kind=t[3][2], length_ms=t[3][3],
            step_ms=t[3][4], gamma=t[3][5], freshness_ms=t[3][6],
            selector=t[3][7],
        )
    ),
    _with_header(st.tuples(u32, st.booleans(), selector_text)).map(
        lambda t: QueryAckMessage(
            t[0], t[1], t[2],
            query_id=t[3][0], accepted=t[3][1], reason=t[3][2],
        )
    ),
    _with_header(st.tuples(u32, f64, u64, u64)).map(
        lambda t: QueryResultMessage(
            t[0], t[1], t[2],
            query_id=t[3][0], value=t[3][1],
            global_window_size=t[3][2], rank=t[3][3],
        )
    ),
    _with_header(u32).map(
        lambda t: QueryDeregisterMessage(t[0], t[1], t[2], query_id=t[3])
    ),
    _with_header(st.integers(min_value=-(2**40), max_value=2**40)).map(
        lambda t: JoinMessage(t[0], t[1], t[2], first_window_start=t[3])
    ),
    _with_header(st.integers(min_value=-(2**40), max_value=2**40)).map(
        lambda t: LeaveMessage(t[0], t[1], t[2], effective_from=t[3])
    ),
    _with_header(st.tuples(u64, st.lists(u32, max_size=12).map(tuple))).map(
        lambda t: RouteUpdateMessage(
            t[0], t[1], t[2], epoch=t[3][0], members=t[3][1]
        )
    ),
    relay_synopsis_messages,
    _with_header(relay_run_sections()).map(
        lambda t: RelayRunsMessage(t[0], t[1], t[2], sections=t[3])
    ),
    # The query plane's batched carriers (tags 29–31).
    synopsis_batch_messages(),
    _with_header(request_batch_sections).map(
        lambda t: CandidateRequestBatchMessage(t[0], t[1], t[2], sections=t[3])
    ),
    _with_header(candidate_batch_sections).map(
        lambda t: CandidateBatchMessage(t[0], t[1], t[2], sections=t[3])
    ),
    _with_header(st.tuples(u64, st.lists(u32, max_size=8).map(tuple))).map(
        lambda t: ShardFailoverMessage(
            t[0], t[1], t[2], epoch=t[3][0], dead=t[3][1]
        )
    ),
    _with_header(u64).map(
        lambda t: ResultAckMessage(t[0], t[1], t[2], cursor=t[3])
    ),
    # Fleet telemetry (tags 27–28): stat names and metric names are
    # arbitrary UTF-8 on the wire, like query selectors.
    _with_header(
        st.tuples(
            u64, st.lists(st.tuples(selector_text, f64), max_size=8).map(tuple)
        )
    ).map(
        lambda t: TelemetrySnapshotMessage(
            t[0], t[1], t[2], sequence=t[3][0], stats=t[3][1]
        )
    ),
    _with_header(
        st.tuples(
            selector_text,
            u64,
            st.lists(st.tuples(f64, f64), max_size=20).map(tuple),
            f64,
            f64,
        )
    ).map(
        lambda t: TelemetryDigestMessage(
            t[0], t[1], t[2],
            metric=t[3][0], sequence=t[3][1], centroids=t[3][2],
            minimum=t[3][3], maximum=t[3][4],
        )
    ),
)


# ----------------------------------------------------------------------
# Property tests: sizes and round trips for every message type.
# ----------------------------------------------------------------------


def _nan_events(message):
    """Whether an event batch or value run of ``message`` (its repr hides
    the rows) carries a NaN value."""
    batches = [getattr(message, "events", ())]
    batches += [
        value for section in getattr(message, "sections", ())
        for value in section
    ]
    return any(
        np.isnan(batch.values if isinstance(batch, EventColumns) else batch).any()
        for batch in batches
        if isinstance(batch, (EventColumns, np.ndarray))
    )


@settings(max_examples=300, deadline=None)
@given(messages)
def test_sizes_and_roundtrip(message):
    payload = encode_payload(message)
    assert len(payload) == message.payload_bytes

    frame = encode_frame(message)
    assert len(frame) == message.wire_bytes
    assert len(frame) == MESSAGE_HEADER_BYTES + message.payload_bytes

    decoded = decode_frame(frame)
    assert type(decoded) is type(message)
    assert decoded.sender == message.sender
    assert decoded.window == message.window
    assert decoded.group_id == message.group_id
    # Bit-level round trip holds even for NaN payloads; object equality
    # additionally holds whenever no NaN is involved.
    assert encode_frame(decoded) == frame
    if "nan" not in repr(message) and not _nan_events(message):
        assert decoded == message


@settings(max_examples=300, deadline=None)
@given(messages)
def test_decode_body_matches_decode_frame(message):
    frame = encode_frame(message)
    body = frame[wire.LENGTH_PREFIX.size:]
    assert encode_frame(decode_body(body)) == frame


@settings(max_examples=100, deadline=None)
@given(messages)
def test_decode_payload_entry_point(message):
    decoded = decode_payload(
        tag_of(message),
        encode_payload(message),
        sender=message.sender,
        window=message.window,
        group_id=message.group_id,
    )
    assert encode_frame(decoded) == encode_frame(message)


# ----------------------------------------------------------------------
# Representative instances: explicit payload arithmetic per type.
# ----------------------------------------------------------------------

W = Window(0, 1000)
E = Event(value=1.5, timestamp=10, node_id=3, seq=7)
S = SliceSynopsis(
    first_key=(1.0, 3, 0),
    last_key=(2.0, 3, 5),
    count=6,
    node_id=3,
    slice_index=0,
    n_slices=1,
)

SAMPLES = [
    (Message(1, W), 0),
    (EventBatchMessage(1, W, events=cols((E, E))), 4 + 2 * 20),
    # Desis' sorted run and Dema's candidate run carry 8-byte values.
    (SortedRunMessage(1, W, events=vals(1.5)), 4 + 8),
    # Count, then the section: local size, gamma and 1 + 1 boundaries.
    (SynopsisMessage(3, W, synopses=(S,), local_window_size=6), 4 + 12 + 16),
    (CandidateRequestMessage(0, W, slice_indices=(0, 1, 2)), 4 + 3 * 4),
    (CandidateEventsMessage(1, W, slice_index=1, events=vals(1.5)), 4 + 4 + 8),
    (SynopsisRequestMessage(0, W), 0),
    (WindowReleaseMessage(0, W), 0),
    (GammaUpdateMessage(0, W, gamma=64), 4),
    (
        DigestMessage(1, W, centroids=((1.0, 2.0),), minimum=0.5, maximum=1.5),
        4 + 2 * 8 + 16,
    ),
    (
        PartialAggregateMessage(1, W, state=(1.0, 2.0, 3.0), local_window_size=5),
        4 + 8 + 3 * 8,
    ),
    (WatermarkMessage(5, W, watermark_time=999), 8),
    (ResultMessage(0, W, value=1.5, global_window_size=10), 8 + 8),
    (HeartbeatMessage(1, W, sequence=17), 8),
    # Query plane (tags 16–19): the register fixed part is 44 bytes, the
    # ack fixed part 8; both carry a u32-counted UTF-8 tail.
    (
        QueryRegisterMessage(
            9001, W, query_id=7, q=0.9, kind="sliding", length_ms=1000,
            step_ms=500, gamma=32, selector="mod:3:1",
        ),
        44 + 4 + 7,
    ),
    (
        QueryAckMessage(0, W, query_id=7, accepted=False, reason="no"),
        8 + 4 + 2,
    ),
    (
        QueryResultMessage(
            0, W, query_id=7, value=1.5, global_window_size=10, rank=5
        ),
        28,
    ),
    (QueryDeregisterMessage(9001, W, query_id=7), 4),
    # Mesh membership + relay aggregation (tags 20–24).
    (JoinMessage(3, W, first_window_start=1000), 8),
    (LeaveMessage(3, W, effective_from=2000), 8),
    (RouteUpdateMessage(0, W, epoch=2, members=(1, 2, 3)), 8 + 4 + 3 * 4),
    # One section of two synopses: count + (node + 12 + 3·8).
    (
        RelaySynopsisMessage(
            9, W,
            sections=(
                (
                    3,
                    12,
                    (
                        SliceSynopsis(
                            first_key=(1.0, 3, 0), last_key=(2.5, 3, 5),
                            count=6, node_id=3, slice_index=0, n_slices=2,
                        ),
                        SliceSynopsis(
                            first_key=(2.5, 3, 6), last_key=(3.0, 3, 11),
                            count=6, node_id=3, slice_index=1, n_slices=2,
                        ),
                    ),
                ),
            ),
        ),
        4 + 4 + 12 + 3 * 8,
    ),
    # Two run sections: count + 2·(12 + 1·8).
    (
        RelayRunsMessage(
            9, W, sections=((3, 0, vals(1.5)), (4, 1, vals(1.5))),
        ),
        4 + 2 * (12 + 8),
    ),
    # Failover + durable query plane (tags 25–26): epoch u64 plus a
    # u32-counted dead-shard list; result-cursor ack is a bare u64.
    (ShardFailoverMessage(0, W, epoch=3, dead=(0, 2)), 8 + 4 + 2 * 4),
    (ResultAckMessage(9001, W, cursor=7), 8),
    # Fleet telemetry (tags 27–28): a snapshot is sequence u64 + stat
    # count + per-stat (u32-counted UTF-8 name + f64 value); a digest is
    # a u32-counted metric name, sequence u64, then the DigestMessage
    # layout (centroid count, min/max f64, 16-byte centroid pairs).
    (
        TelemetrySnapshotMessage(
            3, W, sequence=5,
            stats=(("frames_sent", 12.0), ("lag_s", 0.5)),
        ),
        8 + 4 + (4 + 11 + 8) + (4 + 5 + 8),
    ),
    (
        TelemetryDigestMessage(
            3, W, metric="seal_to_result_s", sequence=2,
            centroids=((1.0, 2.0),), minimum=0.5, maximum=1.5,
        ),
        4 + 16 + 8 + 4 + 2 * 8 + 16,
    ),
    # The query plane's batched carriers (tags 29–31): a section count,
    # then per section its 20-byte window head (group, start, end) and the
    # synopsis section; or the head, a slice count and the u32 indices; or
    # the head, slice and value counts, the indices and the f64 values.
    (
        SynopsisBatchMessage(
            3, W, sections=((5, Window(0, 500), 6, (S,)),),
        ),
        4 + 20 + 12 + 2 * 8,
    ),
    (
        CandidateRequestBatchMessage(
            0, W, sections=((5, Window(0, 500), (0, 1)),),
        ),
        4 + 20 + 4 + 2 * 4,
    ),
    (
        CandidateBatchMessage(
            1, W, sections=((5, Window(0, 500), (1,), vals(1.5, 2.5)),),
        ),
        4 + 20 + 4 + 4 + 4 + 2 * 8,
    ),
]


def test_samples_cover_every_registered_type():
    assert {type(m) for m, _ in SAMPLES} == set(TAG_BY_TYPE)
    assert TYPE_BY_TAG == {tag: cls for cls, tag in TAG_BY_TYPE.items()}
    assert HELLO_TAG not in TYPE_BY_TAG  # control frame, not a message


@pytest.mark.parametrize(
    "message,expected_payload",
    SAMPLES,
    ids=[type(m).__name__ for m, _ in SAMPLES],
)
def test_representative_sizes(message, expected_payload):
    assert message.payload_bytes == expected_payload
    assert message.wire_bytes == MESSAGE_HEADER_BYTES + expected_payload
    assert len(encode_payload(message)) == expected_payload
    assert decode_frame(encode_frame(message)) == message


def test_nan_and_infinity_survive_the_wire():
    message = EventBatchMessage(
        1,
        W,
        events=cols((
            Event(float("nan"), 1, 1, 1),
            Event(float("inf"), 2, 1, 2),
            Event(float("-inf"), 3, 1, 3),
            Event(-0.0, 4, 1, 4),
        )),
    )
    decoded = decode_frame(encode_frame(message))
    values = [e.value for e in decoded.events]
    assert math.isnan(values[0])
    assert values[1] == float("inf")
    assert values[2] == float("-inf")
    assert math.copysign(1.0, values[3]) == -1.0


def test_large_synopsis_batch_roundtrip():
    synopses = tuple(
        SliceSynopsis(
            first_key=(float(i), 1, i * 10),
            last_key=(float(i) + (1.0 if i < 499 else 0.5), 1, i * 10 + 9),
            count=10,
            node_id=1,
            slice_index=i,
            n_slices=500,
        )
        for i in range(500)
    )
    message = SynopsisMessage(1, W, synopses=synopses, local_window_size=5000)
    assert message.payload_bytes == 4 + 12 + 501 * 8
    assert decode_frame(encode_frame(message)) == message


def test_unicode_selector_counts_utf8_bytes():
    # Payload size follows the UTF-8 encoding, not the codepoint count:
    # "κλειδί-🔑" is 8 codepoints but 17 UTF-8 bytes.
    selector = "κλειδί-🔑"
    assert len(selector) == 8 and len(selector.encode("utf-8")) == 17
    message = QueryRegisterMessage(1, W, query_id=1, selector=selector)
    assert message.payload_bytes == 44 + 4 + 17
    decoded = decode_frame(encode_frame(message))
    assert decoded == message
    assert decoded.selector == selector


def test_query_ack_unicode_reason_roundtrip():
    message = QueryAckMessage(
        0, W, query_id=3, accepted=False, reason="пока нет — später"
    )
    assert message.payload_bytes == 8 + 4 + len(
        message.reason.encode("utf-8")
    )
    assert decode_frame(encode_frame(message)) == message


# ----------------------------------------------------------------------
# Hello control frames.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("role", ["stream", "local", "root", "driver", "relay"])
def test_hello_roundtrip(role):
    frame = encode_hello(Hello(node_id=9, role=role))
    assert len(frame) == MESSAGE_HEADER_BYTES + wire.U32_BYTES + wire.I64_BYTES
    assert decode_frame(frame) == Hello(node_id=9, role=role)


@pytest.mark.parametrize("resume_from", [-1, 0, 3000, 2**40])
def test_hello_resume_cursor_roundtrip(resume_from):
    hello = Hello(node_id=2, role="local", resume_from=resume_from)
    decoded = decode_frame(encode_hello(hello))
    assert decoded == hello
    assert decoded.resume_from == resume_from


def test_hello_rejects_unknown_role():
    with pytest.raises(CodecError, match="unknown hello role"):
        Hello(node_id=1, role="observer")


def test_hello_rejects_unknown_role_code():
    frame = bytearray(encode_hello(Hello(node_id=1, role="root")))
    # The role u32 sits right after the header, before the resume cursor.
    frame[MESSAGE_HEADER_BYTES:MESSAGE_HEADER_BYTES + 4] = wire.U32.pack(99)
    with pytest.raises(CodecError, match="role code 99"):
        decode_frame(bytes(frame))


# ----------------------------------------------------------------------
# Header extensions: trace context and forward compatibility.
# ----------------------------------------------------------------------

contexts = st.builds(
    TraceContext,
    trace_id=u64,
    span_id=u64,
    sampled=st.booleans(),
)

#: Extension block framing cost: count byte + (type, length) + 17-byte body.
_EXT_BLOCK_BYTES = (
    wire.EXT_COUNT.size + wire.EXT_HEADER.size + wire.TRACE_CONTEXT_EXT_BYTES
)


def _frame_with_extensions(message, ext_block: bytes) -> bytes:
    """Hand-assemble a frame with an arbitrary extension block."""
    plain = encode_frame(message)
    body = bytearray(plain[wire.LENGTH_PREFIX.size:])
    body[2:4] = wire.FLAG_EXTENSIONS.to_bytes(2, "little")
    body[wire.HEADER.size:wire.HEADER.size] = ext_block
    return wire.LENGTH_PREFIX.pack(len(body)) + bytes(body)


@settings(max_examples=300, deadline=None)
@given(messages, contexts)
def test_trace_context_roundtrip(message, context):
    frame = encode_frame(message, context)
    # Telemetry overhead is real, accounted bytes: exactly one ext block.
    assert len(frame) == message.wire_bytes + _EXT_BLOCK_BYTES

    decoded, got = decode_frame_traced(frame)
    assert got == context
    assert encode_frame(decoded, got) == frame

    body = frame[wire.LENGTH_PREFIX.size:]
    decoded2, got2 = decode_body_traced(body)
    assert got2 == context
    assert encode_frame(decoded2) == encode_frame(message)


@settings(max_examples=100, deadline=None)
@given(messages)
def test_frame_without_context_has_no_extension_bytes(message):
    frame = encode_frame(message, None)
    assert frame == encode_frame(message)
    assert len(frame) == message.wire_bytes
    decoded, context = decode_frame_traced(frame)
    assert context is None
    assert encode_frame(decoded) == frame


@settings(max_examples=100, deadline=None)
@given(contexts)
def test_legacy_decoders_discard_context(context):
    message = WatermarkMessage(5, W, watermark_time=42)
    frame = encode_frame(message, context)
    assert decode_frame(frame) == message
    assert decode_body(frame[wire.LENGTH_PREFIX.size:]) == message


def test_unknown_extension_type_is_skipped():
    # A future peer attaches an extension type we have never heard of:
    # the decoder must step over it by its declared length.
    message = WatermarkMessage(5, W, watermark_time=42)
    ext = (
        wire.EXT_COUNT.pack(1)
        + wire.EXT_HEADER.pack(200, 5)
        + b"\xaa" * 5
    )
    decoded, context = decode_frame_traced(_frame_with_extensions(message, ext))
    assert decoded == message
    assert context is None


def test_unknown_extension_before_trace_context():
    message = WatermarkMessage(5, W, watermark_time=42)
    trace_body = wire.TRACE_CONTEXT_EXT.pack(7, 9, wire.TRACE_SAMPLED_BIT)
    ext = (
        wire.EXT_COUNT.pack(2)
        + wire.EXT_HEADER.pack(200, 3)
        + b"\xbb" * 3
        + wire.EXT_HEADER.pack(wire.EXT_TRACE_CONTEXT, len(trace_body))
        + trace_body
    )
    decoded, context = decode_frame_traced(_frame_with_extensions(message, ext))
    assert decoded == message
    assert context == TraceContext(trace_id=7, span_id=9, sampled=True)


def test_malformed_trace_context_extension_rejected():
    message = WatermarkMessage(5, W, watermark_time=42)
    ext = (
        wire.EXT_COUNT.pack(1)
        + wire.EXT_HEADER.pack(wire.EXT_TRACE_CONTEXT, 3)
        + b"\x00" * 3
    )
    with pytest.raises(CodecError, match="trace-context extension of 3"):
        decode_frame_traced(_frame_with_extensions(message, ext))


#: One section-context entry's framing cost: (type, length) + 17-byte body.
_SECTION_ENTRY_BYTES = wire.EXT_HEADER.size + wire.TRACE_CONTEXT_EXT_BYTES


@st.composite
def relay_messages_with_section_contexts(draw):
    """Relay frames whose per-section contexts align with the sections."""
    if draw(st.booleans()):
        sections = draw(relay_synopsis_sections())
        cls = RelaySynopsisMessage
    else:
        sections = draw(relay_run_sections())
        cls = RelayRunsMessage
    section_contexts = tuple(
        draw(st.one_of(st.none(), contexts)) for _ in sections
    )
    return cls(
        draw(u32), draw(windows), draw(u32),
        sections=sections, section_contexts=section_contexts,
    )


@settings(max_examples=200, deadline=None)
@given(relay_messages_with_section_contexts())
def test_section_context_roundtrip(message):
    frame = encode_frame(message)
    # One extension entry per section — absent contexts ship the marker
    # so alignment survives untraced children.  Real, accounted bytes.
    expected_ext = (
        wire.EXT_COUNT.size + len(message.sections) * _SECTION_ENTRY_BYTES
        if message.sections
        else 0
    )
    assert len(frame) == message.wire_bytes + expected_ext

    decoded = decode_frame(frame)
    assert decoded.section_contexts == message.section_contexts
    # Bit-level round trip holds even for NaN payloads; object equality
    # additionally holds whenever no NaN is involved.
    assert encode_frame(decoded) == frame
    if "nan" not in repr(message) and not _nan_events(message):
        assert decoded == message


@settings(max_examples=100, deadline=None)
@given(relay_messages_with_section_contexts(), contexts)
def test_section_contexts_compose_with_frame_context(message, context):
    decoded, got = decode_frame_traced(encode_frame(message, context))
    assert got == context
    assert decoded.section_contexts == message.section_contexts


def test_section_context_count_mismatch_rejected():
    message = RelayRunsMessage(9, W, sections=((3, 0, vals(1.5)), (4, 1, vals(1.5))))
    ext = (
        wire.EXT_COUNT.pack(1)
        + wire.EXT_HEADER.pack(
            wire.EXT_SECTION_CONTEXT, wire.TRACE_CONTEXT_EXT_BYTES
        )
        + wire.TRACE_CONTEXT_EXT.pack(7, 9, 0)
    )
    with pytest.raises(CodecError, match="1 section-context extensions"):
        decode_frame_traced(_frame_with_extensions(message, ext))


def test_malformed_section_context_extension_rejected():
    message = RelayRunsMessage(9, W, sections=((3, 0, vals(1.5)),))
    ext = (
        wire.EXT_COUNT.pack(1)
        + wire.EXT_HEADER.pack(wire.EXT_SECTION_CONTEXT, 5)
        + b"\x00" * 5
    )
    with pytest.raises(CodecError, match="section-context extension of 5"):
        decode_frame_traced(_frame_with_extensions(message, ext))


def test_section_context_on_sectionless_message_ignored():
    # A confused peer attaches section contexts to a frame type that has
    # no sections: the entries are decoded and dropped, not an error —
    # same forward-compatibility posture as unknown extension types.
    message = WatermarkMessage(5, W, watermark_time=42)
    ext = (
        wire.EXT_COUNT.pack(1)
        + wire.EXT_HEADER.pack(
            wire.EXT_SECTION_CONTEXT, wire.TRACE_CONTEXT_EXT_BYTES
        )
        + wire.TRACE_CONTEXT_EXT.pack(7, 9, 0)
    )
    decoded, context = decode_frame_traced(_frame_with_extensions(message, ext))
    assert decoded == message
    assert context is None


def test_truncated_extension_block_rejected():
    # Announces one extension, then the frame ends mid-block.
    message = WatermarkMessage(5, W, watermark_time=42)
    plain = encode_frame(message)
    header_end = wire.LENGTH_PREFIX.size + wire.HEADER.size
    body = bytearray(plain[wire.LENGTH_PREFIX.size:header_end])
    body[2:4] = wire.FLAG_EXTENSIONS.to_bytes(2, "little")
    body += wire.EXT_COUNT.pack(1)  # count says 1, then nothing follows
    frame = wire.LENGTH_PREFIX.pack(len(body)) + bytes(body)
    with pytest.raises(CodecError, match="truncated"):
        decode_frame_traced(frame)


# ----------------------------------------------------------------------
# Error paths.
# ----------------------------------------------------------------------

_FRAME = encode_frame(WatermarkMessage(5, W, watermark_time=42))
# Offsets into the full frame: 4-byte length prefix, then the header.
_VERSION_AT = wire.LENGTH_PREFIX.size
_TAG_AT = _VERSION_AT + 1
_FLAGS_AT = _TAG_AT + 1


def _mutated(offset: int, value: int) -> bytes:
    frame = bytearray(_FRAME)
    frame[offset] = value
    return bytes(frame)


def test_version_mismatch_rejected():
    with pytest.raises(CodecError, match="version mismatch"):
        decode_frame(_mutated(_VERSION_AT, wire.WIRE_VERSION + 1))


def test_unknown_tag_rejected():
    with pytest.raises(CodecError, match="unknown frame type tag 200"):
        decode_frame(_mutated(_TAG_AT, 200))


def test_retired_tag_stays_unassigned():
    """Tag 12 carried the retired q-digest sketch; tags are never reused."""
    assert 12 not in TYPE_BY_TAG
    with pytest.raises(CodecError, match="unknown frame type tag 12"):
        decode_frame(_mutated(_TAG_AT, 12))


def test_unknown_flag_bits_rejected():
    # Bit 0 is FLAG_EXTENSIONS (assigned); bit 1 is the lowest unknown bit.
    with pytest.raises(CodecError, match="unknown flag bits"):
        decode_frame(_mutated(_FLAGS_AT, 2))


def test_truncated_payload_rejected():
    with pytest.raises(CodecError, match="truncated"):
        decode_payload(
            tag_of(WatermarkMessage(5, W)), b"\x00" * 7, sender=5, window=W
        )


def test_trailing_payload_bytes_rejected():
    with pytest.raises(CodecError, match="trailing"):
        decode_payload(
            tag_of(WatermarkMessage(5, W)), b"\x00" * 9, sender=5, window=W
        )


def test_frame_shorter_than_length_prefix():
    with pytest.raises(CodecError, match="shorter than its length prefix"):
        decode_frame(b"\x01")


def test_frame_length_prefix_mismatch():
    with pytest.raises(CodecError, match="length prefix says"):
        decode_frame(_FRAME + b"\x00")


def test_oversize_length_prefix_rejected():
    frame = wire.LENGTH_PREFIX.pack(wire.MAX_FRAME_BYTES + 1)
    with pytest.raises(CodecError, match="exceeds MAX_FRAME_BYTES"):
        decode_frame(frame + b"\x00" * 8)


def test_body_shorter_than_header():
    with pytest.raises(CodecError, match="shorter than"):
        decode_body(b"\x00" * (wire.HEADER.size - 1))


def test_unregistered_type_has_no_tag():
    class Unregistered(Message):
        pass

    stranger = Unregistered(1, W)
    with pytest.raises(CodecError, match="no wire tag"):
        tag_of(stranger)
    with pytest.raises(CodecError, match="no payload encoder"):
        encode_payload(stranger)


def test_decode_payload_unknown_tag():
    with pytest.raises(CodecError, match="unknown frame type tag"):
        decode_payload(99, b"", sender=0, window=W)


def test_shard_failover_truncated_dead_list_rejected():
    # The count announces two dead shards, then the payload ends one
    # u32 short: the decoder must reject, never fabricate a shard map.
    message = ShardFailoverMessage(0, W, epoch=3, dead=(0, 2))
    payload = encode_payload(message)
    with pytest.raises(CodecError, match="truncated"):
        decode_payload(tag_of(message), payload[:-4], sender=0, window=W)


def test_shard_failover_trailing_bytes_rejected():
    message = ShardFailoverMessage(0, W, epoch=3, dead=(0,))
    payload = encode_payload(message) + b"\x00"
    with pytest.raises(CodecError, match="trailing"):
        decode_payload(tag_of(message), payload, sender=0, window=W)


def test_telemetry_snapshot_truncated_stat_rejected():
    # The stat count announces two entries, then the payload ends mid
    # way through the second value: reject, never invent a gauge.
    message = TelemetrySnapshotMessage(
        3, W, sequence=5, stats=(("a", 1.0), ("b", 2.0))
    )
    payload = encode_payload(message)
    with pytest.raises(CodecError, match="truncated"):
        decode_payload(tag_of(message), payload[:-4], sender=3, window=W)


def test_telemetry_snapshot_trailing_bytes_rejected():
    message = TelemetrySnapshotMessage(3, W, sequence=5, stats=(("a", 1.0),))
    payload = encode_payload(message) + b"\x00"
    with pytest.raises(CodecError, match="trailing"):
        decode_payload(tag_of(message), payload, sender=3, window=W)


def test_telemetry_snapshot_overlong_name_rejected():
    # A stat-name byte count pointing past the end of the payload.
    message = TelemetrySnapshotMessage(3, W, sequence=5, stats=(("ab", 1.0),))
    payload = bytearray(encode_payload(message))
    # The name count sits after sequence (8) and stat count (4).
    payload[12:16] = wire.U32.pack(1000)
    with pytest.raises(CodecError, match="truncated"):
        decode_payload(tag_of(message), bytes(payload), sender=3, window=W)


def test_telemetry_digest_truncated_centroids_rejected():
    message = TelemetryDigestMessage(
        3, W, metric="m", sequence=1,
        centroids=((1.0, 2.0), (3.0, 4.0)), minimum=1.0, maximum=3.0,
    )
    payload = encode_payload(message)
    with pytest.raises(CodecError, match="truncated"):
        decode_payload(tag_of(message), payload[:-8], sender=3, window=W)


def test_telemetry_digest_trailing_bytes_rejected():
    message = TelemetryDigestMessage(
        3, W, metric="m", sequence=1,
        centroids=((1.0, 2.0),), minimum=1.0, maximum=1.0,
    )
    payload = encode_payload(message) + b"\x00"
    with pytest.raises(CodecError, match="trailing"):
        decode_payload(tag_of(message), payload, sender=3, window=W)


def test_result_ack_truncated_cursor_rejected():
    message = ResultAckMessage(9001, W, cursor=7)
    with pytest.raises(CodecError, match="truncated"):
        decode_payload(tag_of(message), b"\x00" * 7, sender=9001, window=W)


def test_result_ack_trailing_bytes_rejected():
    message = ResultAckMessage(9001, W, cursor=7)
    with pytest.raises(CodecError, match="trailing"):
        decode_payload(tag_of(message), b"\x00" * 9, sender=9001, window=W)


# Columnar event arrays and value runs are decoded as one zero-copy tail
# slice, so the decoder must check the byte length itself: a payload whose
# array is not a whole number of strides (20 bytes an event, 8 a value) or
# disagrees with the announced count is rejected outright —
# iter_unpack's old behavior of silently dropping a truncated final row is
# exactly the bug this guards against.

#: One message per array-tailed tag, with the bytes of one more row.
_ARRAY_TAILED = [
    (
        EventBatchMessage(1, W, events=cols((E, E, E))),
        wire.EVENT.pack(E.value, E.timestamp, E.node_id, E.seq),
    ),
    (SortedRunMessage(1, W, events=vals(1.5, 2.5, 3.5)), wire.F64.pack(4.5)),
    (
        CandidateEventsMessage(1, W, slice_index=0, events=vals(1.5, 2.5, 3.5)),
        wire.F64.pack(4.5),
    ),
]
_ARRAY_TAILED_IDS = ["event_batch", "sorted_run", "candidate_events"]


def _refused(message, payload, match):
    """``payload`` under ``message``'s tag is refused as a bare payload and
    inside a frame body (where an event batch skips the payload reader)."""
    with pytest.raises(CodecError, match=match):
        decode_payload(tag_of(message), payload, sender=1, window=W)
    header = wire.HEADER.pack(
        wire.WIRE_VERSION, tag_of(message), 0, 1, 0, W.start, W.end
    )
    with pytest.raises(CodecError, match=match):
        decode_body(header + payload)


@pytest.mark.parametrize("message,row", _ARRAY_TAILED, ids=_ARRAY_TAILED_IDS)
def test_event_array_stride_mismatch_rejected(message, row):
    payload = encode_payload(message)
    # Mid-row truncation from either end of a stride.
    for cut in (1, len(row) - 1):
        _refused(message, payload[:-cut], "stride")
    _refused(message, payload + b"\x00" * 7, "stride")  # oversize, non-stride
    # No whole count in front of the array.
    _refused(message, payload[:3], "truncated")


@pytest.mark.parametrize("message,row", _ARRAY_TAILED, ids=_ARRAY_TAILED_IDS)
def test_event_array_count_mismatch_rejected(message, row):
    # A whole extra (or missing) row is stride-aligned, so only the
    # announced count can catch it.
    payload = encode_payload(message)
    _refused(message, payload + row, "announced")
    _refused(message, payload[:-len(row)], "announced")


def test_relay_runs_truncated_section_events_rejected():
    message = RelayRunsMessage(9, W, sections=((3, 0, vals(1.5, 2.5)),))
    payload = encode_payload(message)
    with pytest.raises(CodecError, match="truncated"):
        decode_payload(tag_of(message), payload[:-3], sender=9, window=W)


def test_relay_runs_section_count_overruns_rejected():
    # The section header announces more values than the payload holds.
    message = RelayRunsMessage(9, W, sections=((3, 0, vals(1.5)),))
    payload = bytearray(encode_payload(message))
    # Section value count sits after the section count (4) and the
    # node_id + slice_index pair (8).
    payload[12:16] = wire.U32.pack(2)
    with pytest.raises(CodecError, match="truncated"):
        decode_payload(tag_of(message), bytes(payload), sender=9, window=W)


# Candidate runs (tags 6 and 24) ship 8-byte values since wire version 2.
# Every way a run's bytes can disagree with its header is refused.

_RUN = CandidateEventsMessage(1, W, slice_index=4, events=vals(-0.0, 2.5, 7.0))
_RELAY_RUNS = RelayRunsMessage(
    9, W, sections=((3, 0, vals(1.5, 2.5)), (4, 2, vals(0.5)))
)


def test_candidate_run_is_the_f64_packing_of_its_values():
    payload = encode_payload(_RUN)
    assert payload == wire.U32.pack(4) + wire.COUNT.pack(3) + struct.pack(
        "<3d", -0.0, 2.5, 7.0
    )
    decoded = decode_payload(tag_of(_RUN), payload, sender=1, window=W)
    assert decoded.events.dtype == np.dtype("<f8")
    assert decoded.events.tobytes() == _RUN.events.tobytes()  # -0.0 kept
    relay = encode_payload(_RELAY_RUNS)
    assert relay == b"".join([
        wire.COUNT.pack(2),
        wire.RELAY_RUN_SECTION_FIXED.pack(3, 0, 2), struct.pack("<2d", 1.5, 2.5),
        wire.RELAY_RUN_SECTION_FIXED.pack(4, 2, 1), struct.pack("<d", 0.5),
    ])


@pytest.mark.parametrize("cut", [1, 4, 7, 8])
def test_candidate_run_truncated_header_rejected(cut):
    # Slice index (4) and count (4) cut short.
    payload = encode_payload(_RUN)[:8 - cut]
    with pytest.raises(CodecError, match="truncated"):
        decode_payload(tag_of(_RUN), payload, sender=1, window=W)


def test_candidate_run_count_past_payload_rejected():
    payload = bytearray(encode_payload(_RUN))
    payload[4:8] = wire.COUNT.pack(4)  # four announced, three follow
    with pytest.raises(CodecError, match="announced"):
        decode_payload(tag_of(_RUN), bytes(payload), sender=1, window=W)


def test_candidate_run_trailing_bytes_rejected():
    payload = encode_payload(_RUN)
    with pytest.raises(CodecError, match="announced"):  # a whole value
        decode_payload(tag_of(_RUN), payload + bytes(8), sender=1, window=W)
    with pytest.raises(CodecError, match="stride"):  # part of one
        decode_payload(tag_of(_RUN), payload + bytes(3), sender=1, window=W)


def test_relay_runs_truncated_rejected():
    payload = encode_payload(_RELAY_RUNS)
    for end in (2, 4 + 6, len(payload) - 8):  # count, a header, a section
        with pytest.raises(CodecError, match="truncated"):
            decode_payload(
                tag_of(_RELAY_RUNS), payload[:end], sender=9, window=W
            )


def test_relay_runs_count_past_payload_rejected():
    payload = bytearray(encode_payload(_RELAY_RUNS))
    payload[0:4] = wire.COUNT.pack(3)  # three sections announced, two follow
    with pytest.raises(CodecError, match="truncated"):
        decode_payload(tag_of(_RELAY_RUNS), bytes(payload), sender=9, window=W)


def test_relay_runs_trailing_bytes_rejected():
    payload = encode_payload(_RELAY_RUNS) + bytes(8)
    with pytest.raises(CodecError, match="trailing"):
        decode_payload(tag_of(_RELAY_RUNS), payload, sender=9, window=W)


def test_relay_runs_section_not_a_multiple_of_eight_rejected():
    payload = encode_payload(_RELAY_RUNS)
    # The last section announces one value, 8 bytes; give it other sizes.
    for size in (3, 5, 12, 20):
        bad = payload[:-8] + bytes(size)
        error = "truncated" if size < 8 else "trailing"
        with pytest.raises(CodecError, match=error):
            decode_payload(tag_of(_RELAY_RUNS), bad, sender=9, window=W)


@pytest.mark.parametrize("message", [_RUN, _RELAY_RUNS], ids=["tag6", "tag24"])
def test_version_one_run_frame_refused(message):
    frame = bytearray(encode_frame(message))
    assert frame[wire.LENGTH_PREFIX.size] == wire.WIRE_VERSION == 4
    frame[wire.LENGTH_PREFIX.size] = 1
    with pytest.raises(CodecError, match="version mismatch"):
        decode_frame(bytes(frame))


# ----------------------------------------------------------------------
# Synopsis batches (tags 4 and 23): columnar on both sides of the wire,
# one section per local — local size u64, gamma u32, then n + 1 f64
# boundaries for n slices — on either tag.
# ----------------------------------------------------------------------


def _section(size, gamma, boundaries):
    """A synopsis section, one ``struct`` pack per field."""
    return wire.SYNOPSIS_SECTION.pack(size, gamma) + b"".join(
        wire.F64.pack(value) for value in boundaries
    )


def _boundaries(rows):
    """Every row's first value, then the last row's last value."""
    return [s.first_value for s in rows] + [s.last_value for s in rows[-1:]]


def _section_of(size, rows):
    return _section(size, rows[0].count if rows else 0, _boundaries(rows))


@settings(max_examples=100, deadline=None)
@given(synopsis_messages())
def test_synopsis_frame_is_the_struct_packing_of_its_rows(message):
    rows = message.synopses
    expected = wire.COUNT.pack(len(rows)) + _section_of(
        message.local_window_size, rows
    )
    assert encode_payload(message) == expected
    assert message.payload_bytes == len(expected)
    decoded = decode_frame(encode_frame(message))
    assert isinstance(decoded.synopses, SynopsisColumns)
    # The columnar twin encodes to the same bytes, and stands in for the
    # tuple of rows wherever a message is compared or hashed.
    assert encode_payload(decoded) == expected
    assert decoded.payload_bytes == len(expected)
    assert decoded == message and message == decoded
    assert hash(decoded) == hash(message)


@settings(max_examples=100, deadline=None)
@given(relay_synopsis_messages)
def test_relay_synopsis_frame_is_the_struct_packing_of_its_rows(message):
    parts = [wire.COUNT.pack(len(message.sections))]
    for node_id, size, rows in message.sections:
        parts.append(wire.U32.pack(node_id) + _section_of(size, rows))
    expected = b"".join(parts)
    assert encode_payload(message) == expected
    assert message.payload_bytes == len(expected)
    decoded = decode_frame(encode_frame(message))
    assert all(
        isinstance(batch, SynopsisColumns) for _, _, batch in decoded.sections
    )
    assert encode_payload(decoded) == expected
    assert decoded == message and message == decoded
    assert hash(decoded) == hash(message)


#: Window values with ties, signed zeros and infinities: what the sorted
#: window can hand the slicer (it refuses a NaN).
_SLICED_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf")]),
    st.floats(width=64, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_SLICED_VALUES, max_size=60),
    st.integers(min_value=2, max_value=12),
    u32,
)
def test_every_slicer_cut_survives_the_wire(values, gamma, node_id):
    events = sort_values([EventColumns.from_events(
        make_events(values, node_id=node_id)
    )])
    sliced = slice_sorted_events(events, gamma, node_id)
    raw = sliced.synopses.to_wire(sliced.window_size)
    decoded, size, used = SynopsisColumns.from_wire(raw, node_id)
    assert (size, used) == (len(events), len(raw))
    assert decoded.records.tobytes() == sliced.synopses.records.tobytes()


#: Node 3's 12 events in two slices of 6, boundaries 1.0, 2.5 and 3.0.
_ROWS = (
    SliceSynopsis(
        first_key=(1.0, 3, 0), last_key=(2.5, 3, 5),
        count=6, node_id=3, slice_index=0, n_slices=2,
    ),
    SliceSynopsis(
        first_key=(2.5, 3, 6), last_key=(3.0, 3, 11),
        count=6, node_id=3, slice_index=1, n_slices=2,
    ),
)
_FLAT = SynopsisMessage(3, W, synopses=_ROWS, local_window_size=12)
#: Node 4's 3 events in one slice.
_ONE = (
    SliceSynopsis(
        first_key=(-1.0, 4, 0), last_key=(0.5, 4, 2),
        count=3, node_id=4, slice_index=0, n_slices=1,
    ),
)
_RELAYED = RelaySynopsisMessage(
    9, W, sections=((3, 12, _ROWS), (4, 3, _ONE))
)


def _flat_payload(count=2, size=12, gamma=6, boundaries=(1.0, 2.5, 3.0)):
    """Node 3's tag-4 payload of ``_ROWS``, any field overwritten."""
    return wire.COUNT.pack(count) + _section(size, gamma, boundaries)


def _relay_payload(size=12, gamma=6, boundaries=(1.0, 2.5, 3.0)):
    """``_RELAYED``'s tag-23 payload, its first section's fields
    overwritten."""
    return (
        wire.COUNT.pack(2)
        + wire.U32.pack(3) + _section(size, gamma, boundaries)
        + wire.U32.pack(4) + _section(3, 3, (-1.0, 0.5))
    )


def _decode_flat(payload, sender=3):
    return decode_payload(
        TAG_BY_TYPE[SynopsisMessage], payload, sender=sender, window=W
    )


def _decode_relay(payload):
    return decode_payload(
        TAG_BY_TYPE[RelaySynopsisMessage], payload, sender=9, window=W
    )


def test_synopsis_nan_boundaries_are_refused_by_the_decoder():
    # A NaN boundary has no place in an ascending histogram: a wire-fed
    # NaN is refused where it is first ordered, here the decoder.  Two
    # payload bit patterns, on the first and on the last boundary.
    quiet, payload = struct.unpack(
        "<dd", bytes.fromhex("000000000000f87f" "efbeadde0000f8ff")
    )
    for row, boundaries in ((0, (quiet, 2.5, 3.0)), (1, (1.0, 2.5, payload))):
        for decode, raw in (
            (_decode_flat, _flat_payload(boundaries=boundaries)),
            (_decode_relay, _relay_payload(boundaries=boundaries)),
        ):
            with pytest.raises(
                CodecError,
                match=f"synopsis {row} of 2 is malformed: .* a key is NaN",
            ):
                decode(raw)


def test_flat_payload_helper_is_the_identity_without_fields():
    assert _flat_payload() == encode_payload(_FLAT)
    assert _decode_flat(_flat_payload()).synopses == _ROWS
    assert _relay_payload() == encode_payload(_RELAYED)
    assert _decode_relay(_relay_payload()) == _RELAYED


def test_decoder_rebuilds_owner_index_and_positions():
    # Only the size, gamma and boundaries travel: 11 events at gamma 5
    # fold their one-event remainder into a second slice of 6, the sender
    # is the owner, and a non-final last value is the next boundary.
    rows = _decode_flat(
        _flat_payload(size=11, gamma=5), sender=5
    ).synopses
    assert tuple(rows) == (
        SliceSynopsis(
            first_key=(1.0, 5, 0), last_key=(2.5, 5, 4),
            count=5, node_id=5, slice_index=0, n_slices=2,
        ),
        SliceSynopsis(
            first_key=(2.5, 5, 5), last_key=(3.0, 5, 10),
            count=6, node_id=5, slice_index=1, n_slices=2,
        ),
    )


def test_empty_and_single_event_windows_on_the_wire():
    empty = SynopsisMessage(3, W, local_window_size=0)
    assert encode_payload(empty) == wire.COUNT.pack(0) + _section(0, 0, ())
    assert decode_frame(encode_frame(empty)) == empty
    one = (
        SliceSynopsis(
            first_key=(7.0, 3, 0), last_key=(7.0, 3, 0),
            count=1, node_id=3, slice_index=0, n_slices=1,
        ),
    )
    single = SynopsisMessage(3, W, synopses=one, local_window_size=1)
    assert encode_payload(single) == wire.COUNT.pack(1) + _section(
        1, 1, (7.0, 7.0)
    )
    assert decode_frame(encode_frame(single)) == single


@pytest.mark.parametrize(
    "fields, reason",
    [
        ({"count": 0}, "count must be >= 1"),
        ({"first_value": 3.5}, "first_key exceeds last_key"),
        # A value tie inside one slice: the positions decide.
        ({"first_value": 3.0, "first_pos": 12}, "first_key exceeds last_key"),
        ({"slice_index": 0}, "complete, ordered batch"),
        ({"slice_index": 2, "n_slices": 3}, "complete, ordered batch"),
        ({"n_slices": 7}, "complete, ordered batch"),
        ({"node_id": 9}, "not owned by node 3"),
    ],
    ids=["zero-count", "inverted-values", "inverted-positions",
         "repeated-index", "index-past-total", "wrong-total", "foreign-node"],
)
def test_malformed_synopsis_record_is_a_codec_error(fields, reason):
    # The check the decoder runs on the rebuilt records; of these only
    # inverted values can arrive on the wire (descending boundaries, below).
    records = SynopsisColumns.from_rows(_ROWS).records.copy()
    for name, value in fields.items():
        records[name][1] = value
    with pytest.raises(CodecError, match=f"synopsis 1 of 2.*{reason}"):
        SynopsisColumns(records).validated(3, CodecError)


_DESCENDING = [
    ((2.6, 2.5, 3.0), "synopsis 0 of 2.*first_key exceeds last_key"),
    ((1.0, 3.5, 3.0), "synopsis 1 of 2.*first_key exceeds last_key"),
]


@pytest.mark.parametrize("boundaries, reason", _DESCENDING)
def test_descending_boundaries_rejected(boundaries, reason):
    with pytest.raises(CodecError, match=reason):
        _decode_flat(_flat_payload(boundaries=boundaries))


@pytest.mark.parametrize("gamma", [0, 1])
def test_gamma_below_two_with_more_than_one_slice_rejected(gamma):
    with pytest.raises(CodecError, match=f"gamma {gamma} < 2 cannot cut 12"):
        _decode_flat(_flat_payload(gamma=gamma))


@pytest.mark.parametrize(
    "fields, reason",
    [
        # Gamma is a slice's count on the wire: zero cuts nothing.
        ({"gamma": 0}, "gamma 0 < 2 cannot cut 12"),
        ({"boundaries": (1.0, 3.5, 3.0)}, "synopsis 1 of 2.*first_key exceeds"),
    ],
    ids=["zero-count", "inverted-keys"],
)
def test_malformed_relay_synopsis_record_is_a_codec_error(fields, reason):
    with pytest.raises(CodecError, match=reason):
        _decode_relay(_relay_payload(**fields))


def test_count_disagreeing_with_size_and_gamma_rejected():
    # Announced 3, the section cuts 2; announced 2, 19 events cut 3 (three
    # slices of 6 and a folded remainder) — boundaries present for either.
    with pytest.raises(CodecError, match="announces 3 synopses, but 12"):
        _decode_flat(_flat_payload(count=3))
    with pytest.raises(CodecError, match="announces 2 synopses, but 19"):
        _decode_flat(_flat_payload(size=19, boundaries=(1.0, 2.0, 2.5, 3.0)))
    # A relay section announces no count: a size that cuts another count
    # leaves its boundaries short or long.
    for size, error in ((19, "truncated"), (6, "trailing")):
        payload = wire.COUNT.pack(1) + wire.U32.pack(3) + _section(
            size, 6, (1.0, 2.5, 3.0)
        )
        with pytest.raises(CodecError, match=error):
            _decode_relay(payload)


def test_synopsis_counts_past_the_key_positions_rejected():
    # 2^32 + 2 events: the last position would not fit the u32 a key holds.
    for decode, payload in (
        (_decode_flat, _flat_payload(size=2**32 + 2, gamma=2**31 + 1)),
        (_decode_relay, _relay_payload(size=2**32 + 2, gamma=2**31 + 1)),
    ):
        with pytest.raises(CodecError, match="overruns a u32 position"):
            decode(payload)


def test_synopsis_array_length_mismatch_rejected():
    # The boundaries the section's header counts, and nothing else.
    payload = _flat_payload()
    for bad, error in (
        (payload[:-1], "truncated"),         # mid-value truncation
        (payload[:-8], "truncated"),         # a boundary short
        (payload + bytes(8), "trailing"),    # one whole value extra
        (payload + bytes(7), "trailing"),    # trailing part of a value
    ):
        with pytest.raises(CodecError, match=error):
            _decode_flat(bad)


@pytest.mark.parametrize("cut", [1, 4, 11, 12])
def test_synopsis_truncated_header_rejected(cut):
    # Count (4), local window size (8) and gamma (4) cut short.
    with pytest.raises(CodecError, match="truncated"):
        _decode_flat(_flat_payload()[:16 - cut])


def test_relay_synopsis_truncated_rejected():
    payload = _relay_payload()
    # The section count, a node id, a section header, a boundary, the
    # last section.
    for end in (2, 4 + 2, 4 + 4 + 9, 4 + 4 + 12 + 10, len(payload) - 1):
        with pytest.raises(CodecError, match="truncated"):
            _decode_relay(payload[:end])


def test_relay_synopsis_count_past_payload_rejected():
    payload = bytearray(_relay_payload())
    payload[0:4] = wire.COUNT.pack(3)  # three sections announced, two follow
    with pytest.raises(CodecError, match="truncated"):
        _decode_relay(bytes(payload))


def test_relay_synopsis_section_count_overruns_rejected():
    # The last section's size says 4 slices at gamma 3 (12 events): five
    # boundaries, of which two follow.
    payload = _relay_payload()[:-28] + _section(12, 3, (-1.0, 0.5))
    with pytest.raises(CodecError, match="truncated"):
        _decode_relay(payload)
    for extra in (1, 8):  # part of a value, a whole one
        with pytest.raises(CodecError, match="trailing"):
            _decode_relay(_relay_payload() + bytes(extra))


def test_synopsis_section_not_whole_f8s_or_trailing_rejected():
    # Boundaries are whole f8s the section header counts: anything past
    # them — part of a value or a whole one — is refused on either tag,
    # and short of whole f8s the section is cut short.
    for extra in (1, 3, 8, 11):
        with pytest.raises(CodecError, match="trailing"):
            _decode_flat(_flat_payload() + bytes(extra))
        with pytest.raises(CodecError, match="trailing"):
            _decode_relay(_relay_payload() + bytes(extra))
        with pytest.raises(CodecError, match="truncated"):
            _decode_flat(_flat_payload()[:-extra])


def test_flat_and_relay_paths_decode_the_same_batch():
    # One section on both links: a relay section is the node id and the
    # flat payload's section, and both decode to the same rows.
    (_, _, batch), _ = decode_frame(encode_frame(_RELAYED)).sections
    assert batch.to_wire(12) == encode_payload(_FLAT)[wire.COUNT_BYTES:]
    assert batch == _decode_flat(encode_payload(_FLAT)).synopses == _ROWS


@pytest.mark.parametrize(
    "rows, size",
    [
        # True last values, not the next boundary.
        ((SliceSynopsis(
            first_key=(1.0, 3, 0), last_key=(2.0, 3, 5), count=6,
            node_id=3, slice_index=0, n_slices=2,
        ), _ROWS[1]), 12),
        # Counts the slicer never cuts: 5 then 7.
        ((SliceSynopsis(
            first_key=(1.0, 3, 0), last_key=(2.5, 3, 4), count=5,
            node_id=3, slice_index=0, n_slices=2,
        ), SliceSynopsis(
            first_key=(2.5, 3, 5), last_key=(3.0, 3, 11), count=7,
            node_id=3, slice_index=1, n_slices=2,
        )), 12),
        # A local size the counts do not add up to.
        (_ROWS, 13),
        (_ROWS, 11),
        # Events and no synopses.
        ((), 4),
    ],
    ids=["true-last-value", "uneven-counts", "size-over", "size-under",
         "no-slices"],
)
def test_encoder_refuses_a_batch_that_is_not_one_slicer_cut(rows, size):
    message = SynopsisMessage(3, W, synopses=rows, local_window_size=size)
    with pytest.raises(CodecError, match="not one slicer cut"):
        encode_payload(message)
    with pytest.raises(CodecError, match="not one slicer cut"):
        encode_payload(RelaySynopsisMessage(9, W, sections=((3, size, rows),)))


@pytest.mark.parametrize("message", [_FLAT, _RELAYED], ids=["tag4", "tag23"])
def test_version_three_synopsis_frame_refused(message):
    frame = bytearray(encode_frame(message))
    assert frame[wire.LENGTH_PREFIX.size] == wire.WIRE_VERSION == 4
    frame[wire.LENGTH_PREFIX.size] = 3
    with pytest.raises(CodecError, match="version mismatch: got 3"):
        decode_frame(bytes(frame))


@pytest.mark.parametrize("message", [_FLAT, _RELAYED], ids=["tag4", "tag23"])
def test_version_two_synopsis_frame_refused(message):
    frame = bytearray(encode_frame(message))
    frame[wire.LENGTH_PREFIX.size] = 2
    with pytest.raises(CodecError, match="version mismatch: got 2"):
        decode_frame(bytes(frame))
