"""Transport abstraction: message streams over TCP or in-memory pipes.

Two implementations of one small surface:

``TcpMessageStream`` / ``TcpNetwork``
    Real asyncio TCP over localhost.  Backpressure is the socket's: every
    send awaits ``writer.drain()``, so a slow reader slows its writers.

``MemoryMessageStream`` / ``MemoryNetwork``
    A pair of bounded :class:`asyncio.Queue` objects carrying **encoded
    frames** — the codec runs on both transports, so an in-memory test
    exercises the exact serialization path a socket would.  The bounded
    queue is the backpressure: a full peer inbox suspends the sender.

Both count frames and bytes in each direction; the cluster layer feeds
those counters to the observability subsystem so live runs report the
same per-link byte accounting the simulator does.

Tracing rides along transparently: ``send`` stamps the task's ambient
:class:`~repro.obs.live.context.TraceContext` (if any) into the frame's
header extension, and ``recv`` surfaces the peer's context as
``last_context`` for the dispatching server to parent its span on.  Both
streams also account *send stalls* (time spent suspended on backpressure)
and expose their current send backlog, which the runtime telemetry
sampler scrapes.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Coroutine, Iterable, Protocol

from repro.errors import TransportError
from repro.network.messages import Message
from repro.obs.live.context import TraceContext, current_context
from repro.runtime import wire
from repro.runtime.codec import (
    Hello,
    decode_body_traced,
    encode_frame,
    encode_hello,
)

# Hot-path module: frames move as encoded bytes; no per-event ``Event``
# objects are constructed here (enforced by tests/test_hotpath_lint.py).

__all__ = [
    "FailureLatch",
    "Frame",
    "MessageStream",
    "StreamHandler",
    "TcpMessageStream",
    "TcpNetwork",
    "MemoryMessageStream",
    "MemoryNetwork",
    "memory_pipe",
    "DEFAULT_QUEUE_FRAMES",
]

#: Anything the codec produces: a protocol message or the hello preamble.
Frame = "Message | Hello"

#: Default capacity (frames) of one direction of an in-memory pipe.  The
#: bound is meant in bytes: 128 frames of the cluster's 4096-event batches
#: hold 524,288 events (~10 MiB) on a stalled stream → local pipe.
DEFAULT_QUEUE_FRAMES = 128

#: Closed-pipe sentinel (queues cannot carry ``None`` ambiguously).
_EOF = b""


class FailureLatch:
    """First-failure latch, and the one way a cluster runs a background task.

    Connection handlers, readers and timers run as fire-and-forget tasks;
    without a latch their exceptions die with the task and a run hangs
    instead of failing.  Every such task runs under :meth:`guard` (or is
    started by :meth:`spawn`), which records its first unexpected
    exception here; the cluster driver waits on :attr:`event` alongside
    the main run, and whichever fires first wins.  A cancelled task is
    teardown, not failure: :meth:`reap` cancels tasks and waits for them
    quietly, and the owner's teardown ends with :meth:`close`, which reaps
    every spawned task still live and refuses later spawns — a timer that
    fires as the loop shuts down must not leave a task behind unstarted.

    ``on_trip`` (when given) runs exactly once, on the first recorded
    failure — the hook the flight recorder uses to dump its ring buffer at
    the moment of death rather than after teardown has torn the evidence
    down.  A hook failure is swallowed: crash reporting must never mask
    the crash.
    """

    def __init__(
        self,
        on_trip: Callable[[BaseException], None] | None = None,
    ) -> None:
        self._error: BaseException | None = None
        self._on_trip = on_trip
        self.event = asyncio.Event()
        #: Spawned tasks not yet done; ``None`` once the latch is closed.
        self._live: "set[asyncio.Task] | None" = set()

    @property
    def error(self) -> BaseException | None:
        """The first recorded exception, or ``None``."""
        return self._error

    def record(self, exc: BaseException) -> None:
        """Latch ``exc`` if nothing failed yet and wake any waiter."""
        first = self._error is None
        if first:
            self._error = exc
        self.event.set()
        if first and self._on_trip is not None:
            try:
                self._on_trip(exc)
            except Exception:
                pass

    async def guard(self, awaitable: Awaitable[object]) -> None:
        """Await ``awaitable``; its unexpected exception trips the latch
        instead of vanishing with the task, a cancellation propagates."""
        try:
            await awaitable
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self.record(exc)

    def spawn(
        self, coro: Coroutine[object, object, object]
    ) -> "asyncio.Task | None":
        """Start ``coro`` as a background task under :meth:`guard`; once
        the latch is closed, close ``coro`` unstarted and return ``None``."""
        if self._live is None:
            coro.close()
            return None
        task = asyncio.ensure_future(self.guard(coro))
        self._live.add(task)
        task.add_done_callback(self._live.discard)
        # A task cancelled before its first step never awaits ``coro``:
        # close it (a no-op once it ran) rather than leave it unawaited.
        task.add_done_callback(lambda _: coro.close())
        return task

    async def close(self) -> None:
        """Reap every spawned task that is still live, including any a
        reaped task's teardown spawns, then refuse further spawns."""
        while self._live:
            await self.reap(self._live)
        self._live = None

    @staticmethod
    async def reap(tasks: Iterable[asyncio.Task]) -> None:
        """Cancel ``tasks`` and wait until each has finished.

        Whatever a reaped task ends with is dropped: a guarded task's
        failure was latched when it happened, and teardown must not let a
        re-raise mask the latched error.
        """
        tasks = list(tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


@dataclass(slots=True)
class StreamStats:
    """Frame/byte counters and stall time for one direction pair."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    #: Cumulative seconds this stream's sends spent suspended on
    #: backpressure (socket drain / full peer queue).
    send_stall_s: float = 0.0


class MessageStream(Protocol):
    """One bidirectional, ordered, reliable message pipe to a peer."""

    stats: StreamStats
    #: Trace context carried by the most recently received frame (or None).
    last_context: TraceContext | None

    async def send(self, message: "Message | Hello") -> None:
        """Encode and ship one message; awaits under backpressure."""
        ...

    async def send_many(self, messages) -> None:
        """Encode and ship several messages, coalescing transport work
        (one writev + one drain on TCP).  Framing is unchanged: the peer
        receives exactly the frames ``send`` would have produced."""
        ...

    async def recv(self) -> "Message | Hello | None":
        """Next decoded message, or ``None`` once the peer closed."""
        ...

    def send_backlog(self) -> int:
        """Data queued behind this stream's sends, in transport units."""
        ...

    async def close(self) -> None:
        """Close both directions; concurrent ``recv`` returns ``None``."""
        ...


#: Server-side callback: one invocation per accepted connection.
StreamHandler = Callable[["MessageStream"], Awaitable[None]]


def _encode(message: "Message | Hello") -> bytes:
    if isinstance(message, Hello):
        return encode_hello(message)
    # Stamp the sending task's ambient trace context (None = no extension
    # block, so untraced runs put zero extra bytes on the wire).
    return encode_frame(message, current_context())


# ----------------------------------------------------------------------
# TCP.
# ----------------------------------------------------------------------


class TcpMessageStream:
    """Length-prefix framing over one asyncio TCP connection."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._closed = False
        self.stats = StreamStats()
        self.last_context: TraceContext | None = None

    async def send(self, message: "Message | Hello") -> None:
        if self._closed:
            raise TransportError("send on closed TCP stream")
        data = _encode(message)
        try:
            self._writer.write(data)
            t0 = time.monotonic()
            await self._writer.drain()
            self.stats.send_stall_s += time.monotonic() - t0
        except (ConnectionError, RuntimeError) as exc:
            raise TransportError(f"TCP send failed: {exc}") from exc
        self.stats.messages_sent += 1
        self.stats.bytes_sent += len(data)

    async def send_many(self, messages) -> None:
        """Frame-coalesced send: all frames in one writelines, one drain."""
        if self._closed:
            raise TransportError("send on closed TCP stream")
        frames = [_encode(message) for message in messages]
        if not frames:
            return
        try:
            self._writer.writelines(frames)
            t0 = time.monotonic()
            await self._writer.drain()
            self.stats.send_stall_s += time.monotonic() - t0
        except (ConnectionError, RuntimeError) as exc:
            raise TransportError(f"TCP send failed: {exc}") from exc
        self.stats.messages_sent += len(frames)
        self.stats.bytes_sent += sum(len(data) for data in frames)

    def send_backlog(self) -> int:
        """Bytes sitting in the socket's write buffer."""
        try:
            return self._writer.transport.get_write_buffer_size()
        except Exception:
            return 0  # transport already torn down

    async def recv(self) -> "Message | Hello | None":
        try:
            prefix = await self._reader.readexactly(wire.LENGTH_PREFIX.size)
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise TransportError(
                    f"connection died mid-frame ({len(exc.partial)} bytes "
                    "of length prefix)"
                ) from exc
            return None  # clean EOF between frames
        except ConnectionError:
            return None
        (length,) = wire.LENGTH_PREFIX.unpack(prefix)
        if length > wire.MAX_FRAME_BYTES:
            raise TransportError(
                f"peer announced a {length}-byte frame "
                f"(max {wire.MAX_FRAME_BYTES})"
            )
        try:
            body = await self._reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise TransportError(
                f"connection died mid-frame ({len(exc.partial)}/{length} "
                "payload bytes)"
            ) from exc
        except ConnectionError as exc:
            # A reset after the prefix is a dead peer too, not a bug of ours.
            raise TransportError(
                f"connection died mid-frame (reset before the {length}-byte "
                f"payload: {exc})"
            ) from exc
        self.stats.messages_received += 1
        self.stats.bytes_received += wire.LENGTH_PREFIX.size + length
        message, self.last_context = decode_body_traced(body)
        return message

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


@dataclass(eq=False)
class TcpNetwork:
    """Localhost TCP fabric: listeners by node id, dial by node id.

    Every node that accepts connections calls :meth:`listen` and gets an
    ephemeral port; :meth:`dial` looks the port up by node id.  All servers
    are torn down by :meth:`close`.  Connection handlers run under
    ``failures`` (a fresh latch unless the cluster shares its own).
    """

    host: str = "127.0.0.1"
    failures: FailureLatch = field(default_factory=FailureLatch)
    _ports: dict[int, int] = field(default_factory=dict, init=False)
    _servers: list[asyncio.AbstractServer] = field(
        default_factory=list, init=False
    )
    _handlers: set[asyncio.Task] = field(default_factory=set, init=False)

    async def listen(self, node_id: int, handler: StreamHandler) -> int:
        """Start accepting for ``node_id``; returns the bound port."""
        if node_id in self._ports:
            raise TransportError(f"node {node_id} is already listening")

        async def on_connect(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            # Track the connection task so close() can await it instead of
            # the loop teardown cancelling it mid-handshake.
            task = asyncio.current_task()
            if task is not None:
                self._handlers.add(task)
            stream = TcpMessageStream(reader, writer)
            try:
                await self.failures.guard(handler(stream))
            finally:
                await stream.close()
                if task is not None:
                    self._handlers.discard(task)

        server = await asyncio.start_server(on_connect, self.host, 0)
        port = server.sockets[0].getsockname()[1]
        self._ports[node_id] = port
        self._servers.append(server)
        return port

    async def dial(self, node_id: int) -> TcpMessageStream:
        """Connect to the listener registered for ``node_id``."""
        port = self._ports.get(node_id)
        if port is None:
            raise TransportError(f"no listener registered for node {node_id}")
        try:
            reader, writer = await asyncio.open_connection(self.host, port)
        except OSError as exc:
            raise TransportError(
                f"dial to node {node_id} ({self.host}:{port}) failed: {exc}"
            ) from exc
        return TcpMessageStream(reader, writer)

    async def close(self) -> None:
        """Stop all listeners and wait for their connection handlers."""
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        if self._handlers:
            # Dialers have closed by now, so handlers are draining EOFs;
            # give stragglers a short deadline before cancelling.
            done, pending = await asyncio.wait(self._handlers, timeout=5.0)
            await self.failures.reap(pending)
        self._handlers.clear()
        self._servers.clear()
        self._ports.clear()


# ----------------------------------------------------------------------
# In-memory.
# ----------------------------------------------------------------------


@dataclass(slots=True)
class _Pipe:
    """One direction of an in-memory duplex: a bounded queue of frames."""

    queue: asyncio.Queue
    closed: bool = field(default=False)


class MemoryMessageStream:
    """One end of an in-memory duplex carrying encoded frames.

    Deterministic stand-in for a socket: same codec, same framing, but
    scheduling is purely the event loop's — no OS buffering, no ports.
    """

    def __init__(self, outgoing: _Pipe, incoming: _Pipe) -> None:
        self._out = outgoing
        self._in = incoming
        self.stats = StreamStats()
        self.last_context: TraceContext | None = None

    async def send(self, message: "Message | Hello") -> None:
        if self._out.closed:
            raise TransportError("send on closed memory stream")
        data = _encode(message)
        t0 = time.monotonic()
        await self._out.queue.put(data)
        self.stats.send_stall_s += time.monotonic() - t0
        self.stats.messages_sent += 1
        self.stats.bytes_sent += len(data)

    async def send_many(self, messages) -> None:
        """Sequential puts — frames stay individually queued; the method
        exists so callers can coalesce uniformly across transports."""
        for message in messages:
            await self.send(message)

    def send_backlog(self) -> int:
        """Frames waiting in the peer's inbox queue."""
        return self._out.queue.qsize()

    async def recv(self) -> "Message | Hello | None":
        data = await self._in.queue.get()
        if data == _EOF:
            # Propagate the sentinel so every pending/future recv sees EOF.
            await self._in.queue.put(_EOF)
            return None
        self.stats.messages_received += 1
        self.stats.bytes_received += len(data)
        message, self.last_context = decode_body_traced(
            memoryview(data)[wire.LENGTH_PREFIX.size:]
        )
        return message

    async def close(self) -> None:
        if not self._out.closed:
            self._out.closed = True
            await self._out.queue.put(_EOF)


def memory_pipe(
    max_frames: int = DEFAULT_QUEUE_FRAMES,
) -> tuple[MemoryMessageStream, MemoryMessageStream]:
    """A connected pair of in-memory message streams.

    ``max_frames`` bounds each direction; a sender blocks once its peer's
    inbox is full, mirroring TCP's flow control.
    """
    a_to_b = _Pipe(asyncio.Queue(maxsize=max_frames))
    b_to_a = _Pipe(asyncio.Queue(maxsize=max_frames))
    return (
        MemoryMessageStream(a_to_b, b_to_a),
        MemoryMessageStream(b_to_a, a_to_b),
    )


@dataclass(eq=False)
class MemoryNetwork:
    """In-memory fabric with the same listen/dial surface as TCP.

    ``dial`` hands the server's handler one end of a fresh pipe as a task
    spawned on ``failures`` and returns the other end, so server and
    client code are transport agnostic.
    """

    max_frames: int = DEFAULT_QUEUE_FRAMES
    failures: FailureLatch = field(default_factory=FailureLatch)
    _handlers: dict[int, StreamHandler] = field(
        default_factory=dict, init=False
    )
    _tasks: list[asyncio.Task] = field(default_factory=list, init=False)

    async def listen(self, node_id: int, handler: StreamHandler) -> int:
        if node_id in self._handlers:
            raise TransportError(f"node {node_id} is already listening")
        self._handlers[node_id] = handler
        return node_id  # port-shaped return for symmetry; unused

    async def dial(self, node_id: int) -> MemoryMessageStream:
        handler = self._handlers.get(node_id)
        if handler is None:
            raise TransportError(f"no listener registered for node {node_id}")
        client_end, server_end = memory_pipe(self.max_frames)

        async def serve() -> None:
            try:
                await handler(server_end)
            finally:
                await server_end.close()

        self._tasks.append(self.failures.spawn(serve()))
        return client_end

    async def close(self) -> None:
        await self.failures.reap(self._tasks)
        self._tasks.clear()
        self._handlers.clear()
