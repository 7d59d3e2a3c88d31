"""Wire-format constants: struct layouts and byte sizes.

The frame header, its extensions and the shared pieces of the payloads
(the u32 count, the event record, the synopsis section) are defined here.
A message's payload itself is declared once, in its class in
:mod:`repro.network.messages` — a fixed-size one as a ``LAYOUT`` struct,
a variable-length one as ``PAYLOAD`` parts — and its ``payload_bytes``,
its encoder and its decoder follow from that declaration; the eight
hand-coded types (:mod:`repro.runtime.codec`) size and pack with the
constants here.  A property test asserts that every message's
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
    "U64_BYTES",
    "F64",
    "F64_BYTES",
    "I64",
    "I64_BYTES",
    "RELAY_RUN_SECTION_FIXED",
    "RELAY_RUN_SECTION_FIXED_BYTES",
    "WINDOW_SECTION",
    "WINDOW_SECTION_BYTES",
    "REQUEST_SECTION",
    "REQUEST_SECTION_BYTES",
    "RUN_SECTION",
    "RUN_SECTION_BYTES",
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

U64_BYTES = struct.calcsize("<Q")

F64 = struct.Struct("<d")
F64_BYTES = F64.size

I64 = struct.Struct("<q")
I64_BYTES = I64.size

#: Relay candidate-run section header: node_id u32, slice_index u32,
#: value count u32.  The run's values follow, one f64 each.
RELAY_RUN_SECTION_FIXED = struct.Struct("<III")
RELAY_RUN_SECTION_FIXED_BYTES = RELAY_RUN_SECTION_FIXED.size

#: The query plane's batched carriers (tags 29-31) hold one section per
#: (group, window) that one watermark sealed.  A section opens with its
#: window: group id u32, window start i64, window end i64.  On a synopsis
#: batch the window's :data:`SYNOPSIS_SECTION` and boundaries follow.
WINDOW_SECTION = struct.Struct("<Iqq")
WINDOW_SECTION_BYTES = WINDOW_SECTION.size

#: A candidate-request batch section: the window, then the slice count
#: u32; that many u32 slice indices follow.
REQUEST_SECTION = struct.Struct("<IqqI")
REQUEST_SECTION_BYTES = REQUEST_SECTION.size

#: A candidate batch section: the window, the slice count u32 and the
#: value count u32; the u32 slice indices follow, then the slices' value
#: runs concatenated in index order, one f64 each.
RUN_SECTION = struct.Struct("<IqqII")
RUN_SECTION_BYTES = RUN_SECTION.size


# The documented layout above is load-bearing for the simulator's byte
# accounting; fail at import time if a struct edit ever drifts from it.
assert MESSAGE_HEADER_BYTES == 32
assert EVENT_WIRE_BYTES == 20
assert SYNOPSIS_SECTION_BYTES == U64_BYTES + U32_BYTES == 12
assert TRACE_CONTEXT_EXT_BYTES == 17
assert RELAY_RUN_SECTION_FIXED_BYTES == 12
assert WINDOW_SECTION_BYTES == 20
assert REQUEST_SECTION_BYTES == WINDOW_SECTION_BYTES + COUNT_BYTES == 24
assert RUN_SECTION_BYTES == WINDOW_SECTION_BYTES + 2 * COUNT_BYTES == 28
