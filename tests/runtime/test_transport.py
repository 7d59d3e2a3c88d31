"""Transport tests: TCP and in-memory streams behave identically.

Both transports carry the same encoded frames through the same codec, so
every scenario here runs against both and the byte counters must agree to
the byte.  Tests drive real event loops via ``asyncio.run`` (the container
has no pytest-asyncio).
"""

import asyncio
import gc
import sys
import warnings

import pytest

from repro.errors import TransportError
from repro.network.messages import (
    EventBatchMessage,
    GammaUpdateMessage,
    WatermarkMessage,
)
from repro.runtime import wire
from repro.runtime.codec import Hello
from repro.runtime.transport import (
    DEFAULT_QUEUE_FRAMES,
    MemoryNetwork,
    TcpMessageStream,
    TcpNetwork,
    memory_pipe,
)
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event
from repro.streaming.windows import Window

W = Window(0, 1000)

MESSAGES = [
    Hello(node_id=3, role="stream"),
    WatermarkMessage(3, W, watermark_time=500),
    EventBatchMessage(
        3, W,
        events=EventColumns.from_events(
            (Event(1.5, 10, 3, 0), Event(2.5, 20, 3, 1))
        ),
    ),
    GammaUpdateMessage(0, W, gamma=64),
]


def _network(kind: str):
    return TcpNetwork() if kind == "tcp" else MemoryNetwork()


async def _echo_scenario(kind: str):
    network = _network(kind)
    received = []

    async def handler(stream):
        while (message := await stream.recv()) is not None:
            received.append(message)
            await stream.send(message)

    await network.listen(7, handler)
    client = await network.dial(7)
    echoed = []
    for message in MESSAGES:
        await client.send(message)
        echoed.append(await client.recv())
    stats = client.stats
    await client.close()
    await network.close()
    return received, echoed, stats


@pytest.mark.parametrize("kind", ["memory", "tcp"])
def test_echo_roundtrip(kind):
    received, echoed, stats = asyncio.run(_echo_scenario(kind))
    assert received == MESSAGES
    assert echoed == MESSAGES
    assert stats.messages_sent == stats.messages_received == len(MESSAGES)
    assert stats.bytes_sent == stats.bytes_received > 0


def test_transports_count_identical_bytes():
    _, _, memory_stats = asyncio.run(_echo_scenario("memory"))
    _, _, tcp_stats = asyncio.run(_echo_scenario("tcp"))
    # send_stall_s is measured wall-clock backpressure, not byte
    # accounting — everything else must agree to the byte.
    memory_stats.send_stall_s = tcp_stats.send_stall_s = 0.0
    assert memory_stats == tcp_stats


@pytest.mark.parametrize("kind", ["memory", "tcp"])
def test_dial_unknown_node(kind):
    async def scenario():
        network = _network(kind)
        try:
            with pytest.raises(TransportError, match="no listener"):
                await network.dial(99)
        finally:
            await network.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("kind", ["memory", "tcp"])
def test_duplicate_listen_rejected(kind):
    async def scenario():
        network = _network(kind)

        async def handler(stream):
            await stream.recv()

        try:
            await network.listen(1, handler)
            with pytest.raises(TransportError, match="already listening"):
                await network.listen(1, handler)
        finally:
            await network.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("kind", ["memory", "tcp"])
def test_clean_eof_on_close(kind):
    async def scenario():
        network = _network(kind)
        server_saw_eof = asyncio.Event()

        async def handler(stream):
            assert await stream.recv() == MESSAGES[0]
            assert await stream.recv() is None
            server_saw_eof.set()

        await network.listen(5, handler)
        client = await network.dial(5)
        await client.send(MESSAGES[0])
        await client.close()
        await asyncio.wait_for(server_saw_eof.wait(), timeout=5.0)
        # Once the server hangs up, the client side sees EOF too.
        assert await asyncio.wait_for(client.recv(), timeout=5.0) is None
        await network.close()

    asyncio.run(scenario())


def test_send_on_closed_memory_stream():
    async def scenario():
        a, _ = memory_pipe()
        await a.close()
        with pytest.raises(TransportError, match="closed"):
            await a.send(MESSAGES[1])

    asyncio.run(scenario())


def test_memory_backpressure_blocks_sender():
    async def scenario():
        a, b = memory_pipe(max_frames=2)
        await a.send(MESSAGES[1])
        await a.send(MESSAGES[1])
        third = asyncio.ensure_future(a.send(MESSAGES[1]))
        await asyncio.sleep(0)
        assert not third.done()  # inbox full: the sender is suspended
        assert await b.recv() == MESSAGES[1]
        await asyncio.wait_for(third, timeout=5.0)
        # Drain before closing: the EOF sentinel queues behind the frames.
        assert await b.recv() == MESSAGES[1]
        assert await b.recv() == MESSAGES[1]
        await a.close()
        assert await asyncio.wait_for(b.recv(), timeout=5.0) is None

    asyncio.run(scenario())


def test_a_consumer_that_never_reads_stops_the_sender_at_the_event_bound():
    """A stalled stream → local pipe holds 524,288 events (~10 MiB) of the
    cluster's frames, whatever their size: the frame bound times the
    cluster's batch size."""
    from repro.mesh.config import ClusterConfig

    batch_size = ClusterConfig().batch_size
    assert DEFAULT_QUEUE_FRAMES * batch_size == 1024 * 512
    batch = EventColumns.from_arrays(
        [float(i) for i in range(batch_size)], list(range(batch_size)), 3
    )
    message = EventBatchMessage(3, Window(0, batch_size), events=batch)

    async def scenario():
        sender, _never_read = memory_pipe()
        sent = 0

        async def send_forever():
            nonlocal sent
            while True:
                await sender.send(message)
                sent += 1

        task = asyncio.ensure_future(send_forever())
        while True:
            before = sent
            for _ in range(10):
                await asyncio.sleep(0)
            if sent == before:
                break
        assert not task.done()
        task.cancel()
        return sent, sender.stats.bytes_sent

    sent, in_flight = asyncio.run(scenario())
    assert sent == DEFAULT_QUEUE_FRAMES
    assert in_flight < 11 * 2**20


def test_tcp_mid_frame_death_raises():
    async def scenario():
        network = TcpNetwork()
        error = asyncio.Future()

        async def handler(stream):
            try:
                await stream.recv()
            except TransportError as exc:
                error.set_result(str(exc))

        port = await network.listen(9, handler)
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"\x07\x00")  # two bytes of a four-byte length prefix
        await writer.drain()
        writer.close()
        await writer.wait_closed()
        message = await asyncio.wait_for(error, timeout=5.0)
        await network.close()
        return message

    assert "mid-frame" in asyncio.run(scenario())


class _ResetAfterPrefix:
    """A stream reader whose peer resets between the length prefix and
    the body: the first ``readexactly`` returns a prefix, the second
    raises ``ConnectionResetError``."""

    def __init__(self) -> None:
        self.reads = 0

    async def readexactly(self, n):
        self.reads += 1
        if self.reads == 1:
            return wire.LENGTH_PREFIX.pack(64)
        raise ConnectionResetError(104, "Connection reset by peer")


def test_tcp_reset_mid_frame_raises_transport_error():
    """Every ``except TransportError`` (the relay's shard reader, a local's
    upstream reader) must see a reset mid-frame as a dead link."""
    reader = _ResetAfterPrefix()
    stream = TcpMessageStream(reader, writer=None)
    with pytest.raises(TransportError, match="mid-frame") as caught:
        asyncio.run(stream.recv())
    assert isinstance(caught.value.__cause__, ConnectionResetError)
    assert reader.reads == 2


def test_tcp_oversize_frame_announcement_raises():
    async def scenario():
        network = TcpNetwork()
        error = asyncio.Future()

        async def handler(stream):
            try:
                await stream.recv()
            except TransportError as exc:
                error.set_result(str(exc))

        port = await network.listen(9, handler)
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(wire.LENGTH_PREFIX.pack(wire.MAX_FRAME_BYTES + 1))
        await writer.drain()
        message = await asyncio.wait_for(error, timeout=5.0)
        writer.close()
        await writer.wait_closed()
        await network.close()
        return message

    assert "max" in asyncio.run(scenario())


class TestFailureLatch:
    def test_starts_clear(self):
        from repro.runtime.transport import FailureLatch

        async def scenario():
            latch = FailureLatch()
            assert latch.error is None
            assert not latch.event.is_set()

        asyncio.run(scenario())

    def test_first_error_wins(self):
        from repro.runtime.transport import FailureLatch

        async def scenario():
            latch = FailureLatch()
            first, second = ValueError("first"), ValueError("second")
            latch.record(first)
            latch.record(second)
            assert latch.error is first
            assert latch.event.is_set()

        asyncio.run(scenario())

    @pytest.mark.parametrize("kind", ["memory", "tcp"])
    def test_handler_exceptions_are_latched_not_swallowed(self, kind):
        """The satellite fix: a crashing connection handler must surface."""
        from repro.runtime.transport import FailureLatch, MemoryNetwork

        async def scenario():
            latch = FailureLatch()
            network = (
                TcpNetwork(failures=latch)
                if kind == "tcp"
                else MemoryNetwork(failures=latch)
            )

            async def handler(stream):
                raise RuntimeError("handler blew up")

            await network.listen(4, handler)
            client = await network.dial(4)
            await asyncio.wait_for(latch.event.wait(), timeout=5.0)
            await client.close()
            await network.close()
            return latch.error

        error = asyncio.run(scenario())
        assert isinstance(error, RuntimeError)
        assert "handler blew up" in str(error)

    def test_spawn_cancelled_before_its_first_step_closes_its_coroutine(
        self, monkeypatch
    ):
        """A task cancelled before it first runs never awaits its guarded
        coroutine; that coroutine is closed, not collected with a
        "never awaited" warning (which, as an error, is unraisable)."""
        from repro.runtime.transport import FailureLatch

        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

        async def tick():
            pass

        async def scenario():
            latch = FailureLatch()
            task = latch.spawn(tick())
            task.cancel()
            await FailureLatch.reap([task])
            return task.cancelled(), latch.error

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert asyncio.run(scenario()) == (True, None)
            gc.collect()
        assert not unraisable, [hook.exc_value for hook in unraisable]
