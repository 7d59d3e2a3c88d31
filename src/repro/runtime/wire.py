"""Wire-format constants: struct layouts and byte sizes.

The frame header, its extensions and the parts of every variable-length
payload are defined here.  The binary codec (:mod:`repro.runtime.codec`)
packs with these struct objects, and the variable-length messages'
``payload_bytes`` (:mod:`repro.network.messages`) are arithmetic over the
same constants; a fixed-size message declares its whole payload once, as
its class's ``LAYOUT``.  A property test asserts that every message's
``payload_bytes`` equals the encoder's output byte for byte, so simulated
byte counts and live byte counts stay comparable.

It deliberately imports nothing from the rest of the package (only
:mod:`struct`), so the lowest layers (``repro.streaming.events``,
``repro.network.messages``) can depend on it without cycles.

Frame layout (little-endian throughout)::

    0        4        5        6        8        12       16       24       32
    +--------+--------+--------+--------+--------+--------+--------+--------+
    | length | version| type   | flags  | sender | group  | window | window |
    | u32    | u8     | u8     | u16    | u32    | u32    | start  | end    |
    |        |        |        |        |        |        | i64    | i64    |
    +--------+--------+--------+--------+--------+--------+--------+--------+
    | payload (length - 28 bytes) ...                                       |
    +-----------------------------------------------------------------------+

``length`` counts everything after the length field itself (header rest +
payload).  ``flags`` is a bitfield; the only assigned bit is
:data:`FLAG_EXTENSIONS` (``0x0001``), which announces a *header extension
block* between the fixed header and the payload::

    +--------+--------------------------------------+
    | n u8   | n × ( type u8 | length u8 | bytes )  |
    +--------+--------------------------------------+

Extensions are optional, length-delimited and skippable: a decoder that
does not understand an extension type steps over it by its declared
length, so frames from a newer peer still decode.  Frames without the
flag bit are byte-for-byte identical to the same version without
extensions — ``payload_bytes`` accounting and the simulator's byte model
are untouched.  Two extension types are assigned: :data:`EXT_TRACE_CONTEXT`,
carrying a distributed-tracing context (trace id u64, parent span id u64,
flags u8 — bit 0 = sampled), and :data:`EXT_SECTION_CONTEXT`, one entry
*per section* of a relay-combined frame carrying that child section's
trace context in section order (same 17-byte body; flags bit 1 marks an
absent context so ordering survives untraced children).  The 32-byte
fixed total is :data:`MESSAGE_HEADER_BYTES`, charged per message by the
simulator.
"""

from __future__ import annotations

import struct

__all__ = [
    "WIRE_VERSION",
    "FLAG_EXTENSIONS",
    "KNOWN_FLAGS",
    "EXT_TRACE_CONTEXT",
    "EXT_SECTION_CONTEXT",
    "EXT_COUNT",
    "EXT_HEADER",
    "TRACE_CONTEXT_EXT",
    "TRACE_CONTEXT_EXT_BYTES",
    "TRACE_SAMPLED_BIT",
    "SECTION_CONTEXT_ABSENT_BIT",
    "MAX_FRAME_BYTES",
    "LENGTH_PREFIX",
    "HEADER",
    "MESSAGE_HEADER_BYTES",
    "EVENT",
    "EVENT_WIRE_BYTES",
    "SYNOPSIS_SECTION",
    "SYNOPSIS_SECTION_BYTES",
    "COUNT",
    "COUNT_BYTES",
    "U32",
    "U32_BYTES",
    "U64",
    "U64_BYTES",
    "F64",
    "F64_BYTES",
    "CENTROID",
    "CENTROID_WIRE_BYTES",
    "QDIGEST_NODE",
    "QDIGEST_NODE_WIRE_BYTES",
    "I64",
    "I64_BYTES",
    "QUERY_REGISTER_FIXED",
    "QUERY_REGISTER_FIXED_BYTES",
    "QUERY_ACK_FIXED",
    "QUERY_ACK_FIXED_BYTES",
    "RELAY_RUN_SECTION_FIXED",
    "RELAY_RUN_SECTION_FIXED_BYTES",
]

#: Protocol version stamped into every frame header.  A decoder refuses
#: frames from a different version instead of mis-parsing them.  Version 2
#: ships candidate runs (tags 6 and 24) and Desis' sorted runs (tag 3) as
#: 8-byte values instead of 20-byte events; version 3 ships a synopsis as
#: a 20-byte (first value, last value, count) record; version 4 ships a
#: local's synopses as one :data:`SYNOPSIS_SECTION`: its slice boundaries.
WIRE_VERSION = 4

#: Flags bit announcing a header extension block after the fixed header.
FLAG_EXTENSIONS = 0x0001

#: Every flag bit this decoder understands; any other set bit is refused
#: (a frame relying on semantics we cannot honor must not be mis-parsed).
KNOWN_FLAGS = FLAG_EXTENSIONS

#: Extension type tag for the distributed-tracing context.  Extension
#: tags, like message tags, are append-only and never reused.
EXT_TRACE_CONTEXT = 1

#: Extension type tag for one *section's* trace context on a
#: relay-combined frame (``RelaySynopsisMessage`` / ``RelayRunsMessage``).
#: One entry per section, in section order, same 17-byte body as
#: :data:`EXT_TRACE_CONTEXT`; a peer that predates this tag skips the
#: entries by their declared length and decodes the frame unchanged.
EXT_SECTION_CONTEXT = 2

#: u8 count of extensions in the block.
EXT_COUNT = struct.Struct("<B")

#: Per-extension preamble: type u8, byte length u8.
EXT_HEADER = struct.Struct("<BB")

#: Trace context body: trace id u64, parent span id u64, flags u8.
TRACE_CONTEXT_EXT = struct.Struct("<QQB")
TRACE_CONTEXT_EXT_BYTES = TRACE_CONTEXT_EXT.size

#: Bit 0 of the trace-context flags byte: head-based sampling verdict.
TRACE_SAMPLED_BIT = 0x01

#: Bit 1 of a section-context flags byte: this section carried no trace
#: context (the child frame was untraced).  Keeps the entry list aligned
#: with the section list without inventing a context.
SECTION_CONTEXT_ABSENT_BIT = 0x02

#: Upper bound on one frame's ``length`` field.  Protects a receiver from
#: allocating gigabytes on a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: u32 frame length (everything after this field).
LENGTH_PREFIX = struct.Struct("<I")

#: version u8, type tag u8, flags u16, sender u32, group_id u32,
#: window start i64, window end i64.
HEADER = struct.Struct("<BBHIIqq")

#: Fixed per-message framing overhead: length prefix plus header.
MESSAGE_HEADER_BYTES = LENGTH_PREFIX.size + HEADER.size

#: One event: value f64, timestamp u32 (event-time milliseconds),
#: node_id u32, seq u32.  The paper's layout (8-byte value, 4-byte
#: timestamp, 4-byte id) plus the 4-byte per-node sequence number that
#: gives the reproduction its strict total order.
EVENT = struct.Struct("<dIII")
EVENT_WIRE_BYTES = EVENT.size

#: One local's synopses of a window on every link: local window size u64,
#: γ u32, then n + 1 f64 boundaries for n slices — every slice's first
#: value, then the window's maximum (no boundary for an empty window).
#: The counts follow from the size and γ (the slicer's cut); a decoder
#: rebuilds them, the key positions and each slice's last value — the
#: next boundary, an upper bound — from the section and its owner, the
#: sender or the relay section's node (``SynopsisColumns.from_wire``).
SYNOPSIS_SECTION = struct.Struct("<QI")
SYNOPSIS_SECTION_BYTES = SYNOPSIS_SECTION.size

#: u32 element count prefixing every variable-length sequence.
COUNT = struct.Struct("<I")
COUNT_BYTES = COUNT.size

U32 = struct.Struct("<I")
U32_BYTES = U32.size

U64 = struct.Struct("<Q")
U64_BYTES = U64.size

F64 = struct.Struct("<d")
F64_BYTES = F64.size

I64 = struct.Struct("<q")
I64_BYTES = I64.size

#: One t-digest centroid: mean f64, weight f64.
CENTROID = struct.Struct("<dd")
CENTROID_WIRE_BYTES = CENTROID.size

#: One q-digest tree node: level u32, index u64, count u32.
QDIGEST_NODE = struct.Struct("<IQI")
QDIGEST_NODE_WIRE_BYTES = QDIGEST_NODE.size

#: Query registration, fixed part: query_id u32, q f64, window kind u32,
#: window length u64 (ms), window step u64 (ms), gamma u32, freshness u64
#: (ms).  The variable part — the UTF-8 key selector behind a u32 count —
#: follows it.
QUERY_REGISTER_FIXED = struct.Struct("<IdIQQIQ")
QUERY_REGISTER_FIXED_BYTES = QUERY_REGISTER_FIXED.size

#: Query ack, fixed part: query_id u32, accepted u32 (0/1).  The UTF-8
#: reason string behind a u32 count follows it.
QUERY_ACK_FIXED = struct.Struct("<II")
QUERY_ACK_FIXED_BYTES = QUERY_ACK_FIXED.size

#: Relay candidate-run section header: node_id u32, slice_index u32,
#: value count u32.  The run's values follow, one f64 each.
RELAY_RUN_SECTION_FIXED = struct.Struct("<III")
RELAY_RUN_SECTION_FIXED_BYTES = RELAY_RUN_SECTION_FIXED.size


# The documented layout above is load-bearing for the simulator's byte
# accounting; fail at import time if a struct edit ever drifts from it.
assert MESSAGE_HEADER_BYTES == 32
assert EVENT_WIRE_BYTES == 20
assert SYNOPSIS_SECTION_BYTES == U64_BYTES + U32_BYTES == 12
assert QDIGEST_NODE_WIRE_BYTES == 16
assert TRACE_CONTEXT_EXT_BYTES == 17
assert QUERY_REGISTER_FIXED_BYTES == 44
assert QUERY_ACK_FIXED_BYTES == 8
assert RELAY_RUN_SECTION_FIXED_BYTES == 12
