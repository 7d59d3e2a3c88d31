"""Chaos transport: fault injection for live message streams.

:class:`ChaosStream` wraps any :class:`repro.runtime.transport.MessageStream`
and gives the fault driver the one lever every fault plan pulls: **sever**
— the link dies abruptly; pending receives wake with EOF (as a killed TCP
peer would produce) and subsequent sends fail.  It never delays or
reorders a frame: the protocol assumes each link is FIFO.

:class:`ChaosController` owns one live run's worth of wrapped streams and
translates :class:`~repro.faults.plan.FaultPlan` events into lever pulls:
severing a local's links for a crash or link drop, gating redials during a
partition.  Everything it applies is recorded as canonical event strings,
in firing order.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.errors import TransportError
from repro.faults.plan import FaultEvent, FaultPlan, describe_event
from repro.network.messages import Message
from repro.runtime.codec import Hello
from repro.runtime.transport import MessageStream, StreamStats

__all__ = ["ChaosStream", "ChaosController"]


class ChaosStream:
    """A :class:`MessageStream` wrapper that can be severed."""

    def __init__(self, inner: MessageStream) -> None:
        self._inner = inner
        self._cut = asyncio.Event()

    @property
    def stats(self) -> StreamStats:
        """The wrapped stream's traffic counters."""
        return self._inner.stats

    @property
    def last_context(self):
        """The wrapped stream's most recent received trace context."""
        return self._inner.last_context

    def send_backlog(self) -> int:
        """The wrapped stream's current send backlog."""
        return self._inner.send_backlog()

    @property
    def severed(self) -> bool:
        """Whether :meth:`sever` has been called."""
        return self._cut.is_set()

    def sever(self) -> None:
        """Kill the link abruptly.

        Sends start raising :class:`TransportError`, a receive blocked on
        the inner stream wakes immediately with EOF, and the inner stream
        is closed in the background so the *remote* side sees EOF too —
        exactly the observable behaviour of a peer process dying.
        """
        if self._cut.is_set():
            return
        self._cut.set()
        with contextlib.suppress(RuntimeError):  # loop already closed
            asyncio.ensure_future(self._inner.close())

    async def send(self, message: Message | Hello) -> None:
        if self.severed:
            raise TransportError("chaos: link severed")
        await self._inner.send(message)

    async def send_many(self, messages) -> None:
        """Frame by frame through :meth:`send`, so a sever acts on each
        frame as it does on single sends."""
        for message in messages:
            await self.send(message)

    async def recv(self) -> Message | Hello | None:
        if self.severed:
            return None
        recv_task = asyncio.ensure_future(self._inner.recv())
        cut_task = asyncio.ensure_future(self._cut.wait())
        done, _ = await asyncio.wait(
            {recv_task, cut_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if recv_task not in done:
            # Severed while blocked: surface EOF, reap the orphaned read.
            recv_task.cancel()
            await self._reap(recv_task)
            return None
        cut_task.cancel()
        await self._reap(cut_task)
        return recv_task.result()

    @staticmethod
    async def _reap(task: asyncio.Task) -> None:
        """Await a task we just cancelled, without eating *our* cancel.

        If the caller was itself cancelled while suspended on a finished
        future, the pending ``CancelledError`` surfaces at this very
        await; blanket-suppressing it would swallow the external
        cancellation and leave the caller unkillable.
        """
        try:
            await task
        except (asyncio.CancelledError, TransportError):
            current = asyncio.current_task()
            if current is not None and current.cancelling():
                raise asyncio.CancelledError from None

    async def close(self) -> None:
        self._cut.set()
        await self._inner.close()


class ChaosController:
    """Applies one :class:`FaultPlan` to a live run's transport layer."""

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._streams: dict[int, list[ChaosStream]] = {}
        self._partitioned = False
        #: Canonical descriptions of events applied so far, in order.
        self.applied: list[str] = []

    @property
    def plan(self) -> FaultPlan:
        """The plan this controller executes."""
        return self._plan

    @property
    def partitioned(self) -> bool:
        """Whether a partition is currently in force."""
        return self._partitioned

    def wrap(self, local_id: int, stream: MessageStream) -> ChaosStream:
        """Wrap one local↔root stream so the plan can reach it later."""
        chaos = ChaosStream(stream)
        self._streams.setdefault(local_id, []).append(chaos)
        return chaos

    def dial_allowed(self, local_id: int) -> bool:
        """Partition gate for reconnect attempts."""
        return not self._partitioned

    def sever(self, local_id: int) -> None:
        """Cut every stream wrapped for ``local_id``."""
        for stream in self._streams.get(local_id, ()):
            stream.sever()

    def start_partition(self) -> None:
        """Cut every wrapped stream and refuse redials until healed."""
        self._partitioned = True
        for local_id in list(self._streams):
            self.sever(local_id)

    def heal_partition(self) -> None:
        """Allow redials again (locals reconnect via their own backoff)."""
        self._partitioned = False

    def record(self, event: FaultEvent) -> None:
        """Log one applied event in canonical form."""
        self.applied.append(describe_event(event))
