"""Live asyncio cluster runtime for the Dema reproduction.

The fourth execution substrate next to the discrete-event simulator, the
in-process engine and the baselines: the same ``repro.core`` protocol
operators, but deployed as asyncio tasks that exchange **real serialized
bytes** — over localhost TCP or over deterministic in-memory duplex
streams.  The package is organised bottom-up:

``wire``
    Struct formats and byte-size constants: the frame header and the
    pieces the hand-coded payloads share.  Every other payload is declared
    once in its message class — a fixed-size ``LAYOUT`` or
    variable-length ``PAYLOAD`` parts — and ``payload_bytes``, the encoder
    and the decoder follow from it.  The simulator's ``payload_bytes``
    are property-tested to match the encoder exactly.
``codec``
    Length-prefixed binary encoding of every protocol message
    (version byte, type tag, lossless round-trip).
``transport``
    ``MessageStream``/``MessageNetwork`` abstractions with an asyncio
    TCP implementation and a bounded in-memory implementation for
    deterministic tests.
``servers``
    ``StreamServer`` / ``LocalServer`` / ``RootServer`` node hosts that
    run the unmodified :mod:`repro.core` operators over any transport.
``cluster``
    The full three-layer topology as one coroutine: launch, paced
    workload replay, result collection, graceful shutdown.

The low layers of the package (``repro.streaming``, ``repro.network``)
import :mod:`repro.runtime.wire` for the shared byte-size constants, and
the high layers of the runtime import them back; attribute access is
therefore lazy (PEP 562) so that importing the package costs nothing and
creates no cycle.
"""

from __future__ import annotations

from repro.runtime.wire import (
    EVENT_WIRE_BYTES,
    MESSAGE_HEADER_BYTES,
    SYNOPSIS_SECTION_BYTES,
    WIRE_VERSION,
)

__all__ = [
    "LiveClusterConfig",
    "run_live",
    "Hello",
    "encode_frame",
    "encode_payload",
    "decode_frame",
    "decode_body",
    "decode_payload",
    "encode_hello",
    "MessageStream",
    "MemoryNetwork",
    "TcpNetwork",
    "memory_pipe",
    "WIRE_VERSION",
    "MESSAGE_HEADER_BYTES",
    "EVENT_WIRE_BYTES",
    "SYNOPSIS_SECTION_BYTES",
]

#: Lazily resolved exports: attribute name -> defining submodule.
_LAZY = {
    "LiveClusterConfig": "repro.runtime.cluster",
    "run_live": "repro.runtime.cluster",
    "Hello": "repro.runtime.codec",
    "encode_frame": "repro.runtime.codec",
    "encode_payload": "repro.runtime.codec",
    "decode_frame": "repro.runtime.codec",
    "decode_body": "repro.runtime.codec",
    "decode_payload": "repro.runtime.codec",
    "encode_hello": "repro.runtime.codec",
    "MessageStream": "repro.runtime.transport",
    "MemoryNetwork": "repro.runtime.transport",
    "TcpNetwork": "repro.runtime.transport",
    "memory_pipe": "repro.runtime.transport",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)


def __dir__() -> list[str]:
    return sorted(__all__)
