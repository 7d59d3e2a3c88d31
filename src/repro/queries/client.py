"""The dialing side of the live multi-query plane.

A :class:`QueryClient` wraps one driver connection to the root: it says
hello with the ``driver`` role, then multiplexes register/deregister
round trips (futures keyed by query id) and a stream of per-query
results over the single socket.  Results accumulate in
:attr:`QueryClient.results` in arrival order; scenario code awaits
:meth:`wait_for`, which re-checks its completion predicate as each one
lands.

Given a ``dial`` callback the client is **durable**: when the
connection dies it redials, says hello again with ``resume_from`` set
to how many results it has received, and the root replays everything at
or past that cursor from its retained per-client log — so a driver
killed and reconnected mid-run still receives every result exactly
once.  Requests still in flight at the disconnect are re-sent on the
new connection (registration is idempotent at the root), and each
received result is acknowledged with a
:class:`~repro.network.messages.ResultAckMessage` so the root can prune
its log to the acked horizon.  An ack exists only to bound what a resume
replays, so a client without ``dial`` sends none.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from repro.errors import QueryError, TransportError
from repro.network.messages import (
    Message,
    QueryAckMessage,
    QueryDeregisterMessage,
    QueryRegisterMessage,
    QueryResultMessage,
    ResultAckMessage,
)
from repro.queries.spec import CONTROL_WINDOW, QuerySpec
from repro.runtime.codec import Hello
from repro.runtime.transport import MessageStream

__all__ = ["QueryClient"]

#: Pause between redial attempts while the root is unreachable.
_REDIAL_BACKOFF_S = 0.02


class QueryClient:
    """Registers queries over the wire and collects their result streams."""

    def __init__(
        self,
        stream: MessageStream,
        client_id: int,
        *,
        dial: "Callable[[], Awaitable[MessageStream]] | None" = None,
    ) -> None:
        self.stream = stream
        self.client_id = client_id
        #: Redial callback for durable sessions; ``None`` disables
        #: reconnects (an EOF ends the client, the original semantics).
        self._dial = dial
        #: In-flight request futures and their messages, keyed by query
        #: id; the message is retained so a reconnect can re-send it.
        self._acks: dict[int, tuple[asyncio.Future, Message]] = {}
        #: Served results per query id, arrival order.
        self.results: dict[int, list[QueryResultMessage]] = {}
        #: Accepted horizons per query id (first guaranteed window start).
        self.horizons: dict[int, int] = {}
        #: Total results received — the resume/ack cursor.
        self.received = 0
        #: Connections re-established after an EOF.
        self.reconnects = 0
        self._reader: asyncio.Task | None = None
        self._closed = False
        #: Set by the read loop whenever something lands (a result, an
        #: ack, a reconnect): :meth:`wait_for` re-checks its predicate.
        self._landed = asyncio.Event()

    async def start(self) -> None:
        """Announce the driver role and start the receive loop."""
        await self.stream.send(Hello(node_id=self.client_id, role="driver"))
        self._reader = asyncio.ensure_future(self._read_loop())

    async def close(self) -> None:
        """Stop reading and close the connection."""
        self._closed = True
        if self._reader is not None:
            self._reader.cancel()
            try:
                await self._reader
            except asyncio.CancelledError:
                pass
            self._reader = None
        try:
            await self.stream.close()
        except TransportError:
            pass

    async def register(
        self, query_id: int, spec: QuerySpec, *, timeout: float = 30.0
    ) -> QueryAckMessage:
        """Register ``spec`` under ``query_id``; await the root's ack.

        Returns:
            The accepting ack; its header window is the query's horizon —
            the first window the plane guarantees a result for.

        Raises:
            QueryError: If the root nacks the registration.
        """
        ack = await self._round_trip(
            query_id,
            QueryRegisterMessage(
                sender=self.client_id,
                window=CONTROL_WINDOW,
                query_id=query_id,
                q=spec.q,
                kind=spec.kind,
                length_ms=spec.length_ms,
                step_ms=spec.step,
                gamma=spec.gamma,
                freshness_ms=spec.freshness_ms,
                selector=spec.selector,
            ),
            timeout=timeout,
        )
        self.horizons[query_id] = ack.window.start
        return ack

    async def deregister(
        self, query_id: int, *, timeout: float = 30.0
    ) -> QueryAckMessage:
        """Withdraw a query; await the root's confirming ack."""
        return await self._round_trip(
            query_id,
            QueryDeregisterMessage(
                sender=self.client_id,
                window=CONTROL_WINDOW,
                query_id=query_id,
            ),
            timeout=timeout,
        )

    async def wait_for(
        self,
        predicate: Callable[["QueryClient"], bool],
        *,
        timeout: float = 60.0,
    ) -> None:
        """Wait until ``predicate(self)`` holds, re-checking it whenever a
        result or an ack lands or the client reconnects (or raise on
        timeout).  ``asyncio.wait`` bounds each wait: ``wait_for`` can
        swallow a cancel that lands as its future completes."""
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        while not predicate(self):
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise QueryError(
                    f"client {self.client_id} timed out waiting for results"
                )
            self._landed.clear()
            landed = asyncio.ensure_future(self._landed.wait())
            try:
                await asyncio.wait((landed,), timeout=remaining)
            finally:
                landed.cancel()

    async def _round_trip(
        self, query_id: int, message: Message, *, timeout: float
    ) -> QueryAckMessage:
        if query_id in self._acks:
            raise QueryError(
                f"query id {query_id} already has a request in flight"
            )
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._acks[query_id] = (future, message)
        try:
            try:
                await self.stream.send(message)
            except TransportError:
                if self._dial is None:
                    raise
                # The link is down; the read loop's reconnect re-sends
                # every pending request, this one included.
            ack = await asyncio.wait_for(future, timeout)
        finally:
            self._acks.pop(query_id, None)
        if not ack.accepted:
            raise QueryError(ack.reason)
        return ack

    async def _reconnect(self) -> bool:
        """Redial, resume from the received cursor, re-send pending.

        Returns ``True`` once a new session is established, ``False``
        if the client was closed while redialing.
        """
        assert self._dial is not None
        while not self._closed:
            try:
                stream = await self._dial()
                await stream.send(
                    Hello(
                        node_id=self.client_id,
                        role="driver",
                        resume_from=self.received,
                    )
                )
                for _, message in self._acks.values():
                    await stream.send(message)
            except TransportError:
                await asyncio.sleep(_REDIAL_BACKOFF_S)
                continue
            self.stream = stream
            self.reconnects += 1
            return True
        return False

    async def _read_loop(self) -> None:
        try:
            while True:
                try:
                    message = await self.stream.recv()
                except TransportError:
                    message = None
                if message is None:
                    if self._closed or self._dial is None:
                        break
                    if not await self._reconnect():
                        break
                elif isinstance(message, QueryAckMessage):
                    entry = self._acks.get(message.query_id)
                    if entry is not None and not entry[0].done():
                        entry[0].set_result(message)
                elif isinstance(message, QueryResultMessage):
                    self.results.setdefault(message.query_id, []).append(
                        message
                    )
                    self.received += 1
                    if self._dial is not None:
                        await self._send_ack()
                self._landed.set()
        finally:
            if not self._closed:
                # EOF with requests still pending: fail them fast.
                for future, _ in self._acks.values():
                    if not future.done():
                        future.set_exception(
                            TransportError(
                                "root connection closed before the ack"
                            )
                        )

    async def _send_ack(self) -> None:
        """Tell the root how far the result stream has durably landed."""
        try:
            await self.stream.send(
                ResultAckMessage(
                    sender=self.client_id,
                    window=CONTROL_WINDOW,
                    cursor=self.received,
                )
            )
        except TransportError:
            pass  # the link is dying; the resume hello re-states the cursor
