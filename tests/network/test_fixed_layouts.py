"""The payload of every fixed-size message, pinned byte for byte.

Each fixed-size type declares its payload once, as its class's ``LAYOUT``,
and the codec packs and unpacks with it.  These pins write each wire
layout out by hand with ``struct.pack`` at the fields' extreme values, so
a layout edit is checked against the documented bytes rather than against
itself.
"""

import struct

import pytest

from repro.network.messages import (
    MESSAGE_HEADER_BYTES,
    GammaUpdateMessage,
    HeartbeatMessage,
    JoinMessage,
    LeaveMessage,
    Message,
    QueryDeregisterMessage,
    QueryResultMessage,
    ResultAckMessage,
    ResultMessage,
    SynopsisRequestMessage,
    WatermarkMessage,
    WindowReleaseMessage,
)
from repro.runtime.codec import decode_frame, encode_frame, encode_payload
from repro.streaming.windows import Window

W = Window(0, 1000)
U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1
I64_MIN, I64_MAX = -(2**63), 2**63 - 1
INF = float("inf")

PINS = [
    (Message(U32_MAX, W, group_id=U32_MAX), b""),
    (SynopsisRequestMessage(0, W), b""),
    (WindowReleaseMessage(0, W), b""),
    (GammaUpdateMessage(0, W, gamma=U32_MAX), struct.pack("<I", U32_MAX)),
    (GammaUpdateMessage(0, W, gamma=0), struct.pack("<I", 0)),
    (
        WatermarkMessage(0, W, watermark_time=U64_MAX),
        struct.pack("<Q", U64_MAX),
    ),
    (
        ResultMessage(0, W, value=-0.0, global_window_size=U64_MAX),
        struct.pack("<dQ", -0.0, U64_MAX),
    ),
    (
        ResultMessage(0, W, value=-INF, global_window_size=0),
        struct.pack("<dQ", -INF, 0),
    ),
    (HeartbeatMessage(0, W, sequence=U64_MAX), struct.pack("<Q", U64_MAX)),
    (
        QueryResultMessage(
            0, W, query_id=U32_MAX, value=INF, global_window_size=0,
            rank=U64_MAX,
        ),
        struct.pack("<IdQQ", U32_MAX, INF, 0, U64_MAX),
    ),
    (
        QueryResultMessage(
            0, W, query_id=0, value=-0.0, global_window_size=U64_MAX, rank=0
        ),
        struct.pack("<IdQQ", 0, -0.0, U64_MAX, 0),
    ),
    (
        QueryDeregisterMessage(0, W, query_id=U32_MAX),
        struct.pack("<I", U32_MAX),
    ),
    (
        JoinMessage(0, W, first_window_start=I64_MIN),
        struct.pack("<q", I64_MIN),
    ),
    (
        LeaveMessage(0, W, effective_from=I64_MAX),
        struct.pack("<q", I64_MAX),
    ),
    (ResultAckMessage(0, W, cursor=U64_MAX), struct.pack("<Q", U64_MAX)),
]


@pytest.mark.parametrize(
    "message,payload", PINS, ids=[type(m).__name__ for m, _ in PINS]
)
def test_fixed_payload_is_the_documented_struct(message, payload):
    assert encode_payload(message) == payload
    assert message.payload_bytes == len(payload)
    assert message.wire_bytes == MESSAGE_HEADER_BYTES + len(payload)
    frame = encode_frame(message)
    decoded = decode_frame(frame)
    assert decoded == message
    # Bit-level too: ``-0.0 == 0.0``, and the sign must survive.
    assert encode_frame(decoded) == frame


def test_pins_cover_the_twelve_fixed_size_types():
    assert len({type(message) for message, _ in PINS}) == 12


@pytest.mark.parametrize(
    "message",
    [
        GammaUpdateMessage(0, W, gamma=U32_MAX + 1),
        WatermarkMessage(0, W, watermark_time=-1),
        JoinMessage(0, W, first_window_start=I64_MAX + 1),
    ],
    ids=["u32", "u64", "i64"],
)
def test_a_field_out_of_its_range_is_refused(message):
    with pytest.raises(struct.error):
        encode_payload(message)
