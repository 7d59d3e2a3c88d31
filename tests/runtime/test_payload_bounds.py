"""Every registered type refuses a payload one byte short, one byte long,
or announcing a count the payload cannot hold.

Parametrised over :data:`tests.runtime.test_codec.SAMPLES` (one instance
of every type; the empty-payload ones have nothing to cut).  A count
forged to 2**32 - 1 must be refused before the decoder allocates for it:
``tracemalloc`` holds each refusal under 1 MiB.
"""

import struct
import tracemalloc

import pytest

from repro.errors import CodecError
from repro.runtime import wire
from repro.runtime.codec import (
    decode_body,
    decode_payload,
    encode_payload,
    tag_of,
)
from tests.runtime.test_codec import SAMPLES, W

#: Every u32 count in each sample's payload, read off the documented
#: layouts, as ``(byte offset, the count the sample announces there)``: a
#: sequence's count, a string's byte count, a relay run section's count.
COUNTS = {
    "EventBatchMessage": [(0, 2)],
    "SortedRunMessage": [(0, 1)],
    "SynopsisMessage": [(0, 1)],
    "CandidateRequestMessage": [(0, 3)],
    "CandidateEventsMessage": [(4, 1)],  # after the slice index
    "DigestMessage": [(0, 1)],
    "PartialAggregateMessage": [(0, 3)],
    "QDigestMessage": [(0, 1)],
    "QueryRegisterMessage": [(44, 7)],  # after the 44-byte fixed part
    "QueryAckMessage": [(8, 2)],  # after query id and accepted
    "RouteUpdateMessage": [(8, 3)],  # after the epoch
    "RelaySynopsisMessage": [(0, 1)],
    # Section count, then each 20-byte (node, slice, count, value) section.
    "RelayRunsMessage": [(0, 2), (4 + 8, 1), (4 + 20 + 8, 1)],
    "ShardFailoverMessage": [(8, 2)],
    # Sequence, stat count, then each stat's name count: "frames_sent"
    # (11 bytes) and its f64 come before the second.
    "TelemetrySnapshotMessage": [(8, 2), (12, 11), (12 + 4 + 11 + 8, 5)],
    # The metric name's count, then the centroid count after the name's 16
    # bytes and the sequence.
    "TelemetryDigestMessage": [(0, 16), (4 + 16 + 8, 1)],
    # Section count, then after each section's 20-byte window head its
    # slice count (and, for candidates, its value count).
    "SynopsisBatchMessage": [(0, 1)],
    "CandidateRequestBatchMessage": [(0, 1), (4 + 20, 2)],
    "CandidateBatchMessage": [(0, 1), (4 + 20, 1), (4 + 24, 2)],
}

NON_EMPTY = [(m, encode_payload(m)) for m, _ in SAMPLES if encode_payload(m)]
IDS = [type(m).__name__ for m, _ in NON_EMPTY]
#: The non-empty payloads without a count: one struct each.
FIXED_SIZE = {
    "GammaUpdateMessage", "WatermarkMessage", "ResultMessage",
    "HeartbeatMessage", "QueryResultMessage", "QueryDeregisterMessage",
    "JoinMessage", "LeaveMessage", "ResultAckMessage",
}


def _refused(message, payload):
    """``payload`` under ``message``'s tag is refused as a bare payload and
    inside a frame body (where an event batch skips the payload reader)."""
    with pytest.raises(CodecError):
        decode_payload(tag_of(message), payload, sender=1, window=W)
    header = wire.HEADER.pack(
        wire.WIRE_VERSION, tag_of(message), 0, 1, 0, W.start, W.end
    )
    with pytest.raises(CodecError):
        decode_body(header + payload)


@pytest.mark.parametrize("message,payload", NON_EMPTY, ids=IDS)
def test_one_byte_short_is_refused(message, payload):
    _refused(message, payload[:-1])


@pytest.mark.parametrize("message,payload", NON_EMPTY, ids=IDS)
def test_one_byte_long_is_refused(message, payload):
    _refused(message, payload + b"\x00")


def test_the_count_table_covers_every_counted_type():
    assert set(COUNTS) == {
        name for name in IDS if name not in FIXED_SIZE
    }


@pytest.mark.parametrize("message,payload", NON_EMPTY, ids=IDS)
def test_a_count_past_the_payload_is_refused_before_allocating(
    message, payload
):
    for offset, announced in COUNTS.get(type(message).__name__, []):
        assert struct.unpack_from("<I", payload, offset)[0] == announced
        forged = bytearray(payload)
        forged[offset:offset + 4] = struct.pack("<I", 2**32 - 1)
        tracemalloc.start()
        try:
            _refused(message, bytes(forged))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (offset, peak)
