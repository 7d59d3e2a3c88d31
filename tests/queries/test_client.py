"""``QueryClient.wait_for`` wakes on arrival, keeps its timeout, and
passes a cancel through."""

import asyncio

import pytest

from repro.errors import QueryError
from repro.network.messages import QueryResultMessage
from repro.queries.client import QueryClient
from repro.streaming.windows import Window


class QueueStream:
    """A driver link whose incoming frames a test pushes by hand."""

    def __init__(self) -> None:
        self.inbox: asyncio.Queue = asyncio.Queue()
        self.sent: list = []

    async def send(self, message) -> None:
        self.sent.append(message)

    async def recv(self):
        return await self.inbox.get()

    async def close(self) -> None:
        pass


def result(query_id: int) -> QueryResultMessage:
    return QueryResultMessage(0, Window(0, 1000), query_id=query_id)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30.0))


async def started():
    stream = QueueStream()
    client = QueryClient(stream, 7)
    await client.start()
    return stream, client


def test_a_result_wakes_the_wait_within_a_few_loop_turns():
    # A poll would sleep its interval; a wake on arrival resolves the wait
    # within a handful of loop iterations of the frame landing.
    async def scenario():
        stream, client = await started()
        waiting = asyncio.ensure_future(
            client.wait_for(lambda c: len(c.results.get(3, ())) >= 2)
        )
        for query_id in (3, 4, 3):
            await asyncio.sleep(0)  # the wait has checked and is parked
            stream.inbox.put_nowait(result(query_id))
        for _ in range(20):
            await asyncio.sleep(0)
        done = waiting.done()
        waiting.cancel()
        await client.close()
        return done, client.received

    assert run(scenario()) == (True, 3)


def test_a_predicate_that_never_holds_times_out():
    async def scenario():
        _, client = await started()
        try:
            with pytest.raises(QueryError, match="timed out"):
                await client.wait_for(lambda c: False, timeout=0.05)
        finally:
            await client.close()

    run(scenario())


def test_a_cancel_reaches_the_waiter():
    async def scenario():
        _, client = await started()
        waiting = asyncio.ensure_future(
            client.wait_for(lambda c: False, timeout=10.0)
        )
        await asyncio.sleep(0.01)
        waiting.cancel()
        with pytest.raises(asyncio.CancelledError):
            await waiting
        await client.close()

    run(scenario())
