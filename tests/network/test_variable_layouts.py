"""The payload of every declared variable-length message, pinned by hand.

Each such type declares its payload once, as its class's ``PAYLOAD``
parts, and ``payload_bytes``, the encoder and the decoder all follow from
it.  These pins write each documented wire layout out with ``struct.pack``
— an empty and a one-item sequence, the u32 and u64 limits, ``-0.0``,
``±inf`` and NaN wherever an f64 travels, an empty and a multibyte UTF-8
string — so a declaration is checked against the documented bytes rather
than against itself.
"""

import struct

import numpy as np
import pytest

from repro.errors import CodecError
from repro.network.messages import (
    MESSAGE_HEADER_BYTES,
    CandidateRequestMessage,
    DigestMessage,
    PartialAggregateMessage,
    QueryAckMessage,
    QueryRegisterMessage,
    RouteUpdateMessage,
    ShardFailoverMessage,
    SortedRunMessage,
    TelemetryDigestMessage,
    TelemetrySnapshotMessage,
)
from repro.runtime.codec import (
    TAG_BY_TYPE,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
    tag_of,
)
from repro.streaming.windows import Window

W = Window(0, 1000)
U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1
INF = float("inf")
NAN = float("nan")
#: Eight codepoints, seventeen UTF-8 bytes.
KEY = "κλειδί-🔑"


def u32(n):
    return struct.pack("<I", n)


def text(s):
    raw = s.encode("utf-8")
    return u32(len(raw)) + raw


PINS = [
    # Desis' sorted run: count, then the values as the payload's tail.
    (SortedRunMessage(0, W, events=np.empty(0)), u32(0)),
    (
        SortedRunMessage(0, W, events=np.array([-0.0, INF, -INF, NAN])),
        u32(4) + struct.pack("<4d", -0.0, INF, -INF, NAN),
    ),
    # Candidate request: count, then one u32 slice index each.
    (CandidateRequestMessage(0, W, slice_indices=()), u32(0)),
    (
        CandidateRequestMessage(0, W, slice_indices=(U32_MAX,)),
        u32(1) + u32(U32_MAX),
    ),
    # t-digest: centroid count, exact min and max, then (mean, weight).
    (
        DigestMessage(0, W, centroids=(), minimum=-0.0, maximum=NAN),
        u32(0) + struct.pack("<dd", -0.0, NAN),
    ),
    (
        DigestMessage(
            0, W, centroids=((-INF, INF),), minimum=-INF, maximum=INF
        ),
        u32(1) + struct.pack("<dd", -INF, INF) + struct.pack("<dd", -INF, INF),
    ),
    # Partial aggregate: state count, local size u64, then one f64 each.
    (
        PartialAggregateMessage(0, W, state=(), local_window_size=U64_MAX),
        u32(0) + struct.pack("<Q", U64_MAX),
    ),
    (
        PartialAggregateMessage(0, W, state=(NAN,), local_window_size=0),
        u32(1) + struct.pack("<Q", 0) + struct.pack("<d", NAN),
    ),
    # Query register: the 44-byte fixed part (kind as code 1/2/3), then
    # the selector behind its u32 byte count.
    (
        QueryRegisterMessage(
            0, W, query_id=U32_MAX, q=-0.0, kind="tumbling", length_ms=0,
            step_ms=U64_MAX, gamma=U32_MAX, freshness_ms=U64_MAX, selector="",
        ),
        struct.pack("<IdIQQIQ", U32_MAX, -0.0, 1, 0, U64_MAX, U32_MAX, U64_MAX)
        + text(""),
    ),
    (
        QueryRegisterMessage(
            0, W, query_id=0, q=INF, kind="session", length_ms=U64_MAX,
            step_ms=0, gamma=0, freshness_ms=0, selector=KEY,
        ),
        struct.pack("<IdIQQIQ", 0, INF, 3, U64_MAX, 0, 0, 0) + text(KEY),
    ),
    (
        QueryRegisterMessage(0, W, q=NAN, kind="sliding", selector="all"),
        struct.pack("<IdIQQIQ", 0, NAN, 2, 1000, 1000, 64, 0) + text("all"),
    ),
    # Query ack: query id, accepted as u32 0/1, then the reason string.
    (
        QueryAckMessage(0, W, query_id=U32_MAX, accepted=True, reason=""),
        struct.pack("<II", U32_MAX, 1) + text(""),
    ),
    (
        QueryAckMessage(0, W, query_id=0, accepted=False, reason=KEY),
        struct.pack("<II", 0, 0) + text(KEY),
    ),
    # Membership and failover: epoch u64, then a u32-counted u32 list.
    (
        RouteUpdateMessage(0, W, epoch=U64_MAX, members=()),
        struct.pack("<Q", U64_MAX) + u32(0),
    ),
    (
        RouteUpdateMessage(0, W, epoch=0, members=(U32_MAX,)),
        struct.pack("<Q", 0) + u32(1) + u32(U32_MAX),
    ),
    (
        ShardFailoverMessage(0, W, epoch=U64_MAX, dead=()),
        struct.pack("<Q", U64_MAX) + u32(0),
    ),
    (
        ShardFailoverMessage(0, W, epoch=1, dead=(U32_MAX,)),
        struct.pack("<Q", 1) + u32(1) + u32(U32_MAX),
    ),
    # Telemetry snapshot: sequence u64, stat count, then per stat its
    # name string and one f64.
    (
        TelemetrySnapshotMessage(0, W, sequence=U64_MAX, stats=()),
        struct.pack("<Q", U64_MAX) + u32(0),
    ),
    (
        TelemetrySnapshotMessage(0, W, sequence=0, stats=((KEY, -0.0),)),
        struct.pack("<Q", 0) + u32(1) + text(KEY) + struct.pack("<d", -0.0),
    ),
    (
        TelemetrySnapshotMessage(0, W, sequence=1, stats=(("", NAN),)),
        struct.pack("<Q", 1) + u32(1) + text("") + struct.pack("<d", NAN),
    ),
    # Telemetry digest: metric string, sequence u64, then the t-digest's
    # layout (count, min, max, centroids).
    (
        TelemetryDigestMessage(
            0, W, metric="", sequence=U64_MAX, centroids=(),
            minimum=INF, maximum=-INF,
        ),
        text("") + struct.pack("<Q", U64_MAX) + u32(0)
        + struct.pack("<dd", INF, -INF),
    ),
    (
        TelemetryDigestMessage(
            0, W, metric=KEY, sequence=0, centroids=((NAN, -0.0),),
            minimum=-0.0, maximum=NAN,
        ),
        text(KEY) + struct.pack("<Q", 0) + u32(1)
        + struct.pack("<dd", -0.0, NAN) + struct.pack("<dd", NAN, -0.0),
    ),
]


def _has_nan(message) -> bool:
    return "nan" in repr(message)


@pytest.mark.parametrize(
    "message,payload", PINS, ids=[type(m).__name__ for m, _ in PINS]
)
def test_variable_payload_is_the_documented_layout(message, payload):
    assert encode_payload(message) == payload
    assert message.payload_bytes == len(payload)
    assert message.wire_bytes == MESSAGE_HEADER_BYTES + len(payload)
    frame = encode_frame(message)
    decoded = decode_frame(frame)
    assert type(decoded) is type(message)
    # Bit-level: ``-0.0 == 0.0`` and ``nan != nan``, and both must survive.
    assert encode_frame(decoded) == frame
    if not _has_nan(message):
        assert decoded == message


def test_pins_cover_the_ten_declared_types():
    declared = {cls for cls in TAG_BY_TYPE if cls.PAYLOAD is not None}
    assert len(declared) == 10
    assert {type(message) for message, _ in PINS} == declared


@pytest.mark.parametrize("code", [2, 3, U32_MAX])
def test_query_ack_accepted_other_than_zero_or_one_is_refused(code):
    # ``accepted`` is a u32 holding 0 or 1.  Any other value used to
    # decode as True and re-encode as 1, so the frame did not round-trip.
    message = QueryAckMessage(0, W, query_id=7, accepted=True, reason="ok")
    payload = struct.pack("<II", 7, code) + text("ok")
    with pytest.raises(CodecError, match="accepted code"):
        decode_payload(tag_of(message), payload, sender=0, window=W)


@pytest.mark.parametrize("code", [0, 4, U32_MAX])
def test_query_register_kind_code_outside_the_map_is_refused(code):
    message = QueryRegisterMessage(0, W, selector="")
    payload = bytearray(encode_payload(message))
    payload[12:16] = u32(code)  # after query id u32 and q f64
    with pytest.raises(CodecError, match="kind code"):
        decode_payload(tag_of(message), bytes(payload), sender=0, window=W)


def test_a_value_outside_a_code_map_is_refused_on_encode():
    with pytest.raises(CodecError, match="kind 'hopping'"):
        encode_payload(QueryRegisterMessage(0, W, kind="hopping"))
