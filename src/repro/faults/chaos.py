"""Chaos transport: fault injection for live message streams.

:class:`ChaosStream` wraps any :class:`repro.runtime.transport.MessageStream`
and gives the fault driver three levers the real world pulls all the time:

* **sever** — the link dies abruptly; pending receives wake with EOF (as a
  killed TCP peer would produce) and subsequent sends fail.
* **delay** — a fixed per-frame delivery delay on receive.
* **reorder** — seeded random hold-one-back swaps of adjacent frames
  (never the ``Hello`` preamble, which must stay first on the wire).

:class:`ChaosController` owns one live run's worth of wrapped streams and
translates :class:`~repro.faults.plan.FaultPlan` events into lever pulls:
severing a local's links for a crash or link drop, gating redials during a
partition.  Everything it applies is recorded as canonical event strings,
in firing order.
"""

from __future__ import annotations

import asyncio
import contextlib
import random

from repro.errors import TransportError
from repro.faults.plan import FaultEvent, FaultPlan, describe_event
from repro.network.messages import Message
from repro.runtime.codec import Hello
from repro.runtime.transport import MessageStream, StreamStats

__all__ = ["ChaosStream", "ChaosController"]


class ChaosStream:
    """A :class:`MessageStream` wrapper that can sever, delay and reorder."""

    def __init__(
        self,
        inner: MessageStream,
        *,
        delay_s: float = 0.0,
        reorder_rate: float = 0.0,
        rng: random.Random | None = None,
    ) -> None:
        self._inner = inner
        self._delay_s = delay_s
        self._reorder_rate = reorder_rate
        self._rng = rng if rng is not None else random.Random(0)
        self._cut = asyncio.Event()
        self._held: Message | None = None

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
        if (
            self._reorder_rate > 0.0
            and self._held is None
            and not isinstance(message, Hello)
            and self._rng.random() < self._reorder_rate
        ):
            # Hold this frame back; it goes out right after the next one.
            self._held = message
            return
        await self._inner.send(message)
        if self._held is not None:
            held, self._held = self._held, None
            await self._inner.send(held)

    async def send_many(self, messages) -> None:
        """Frame by frame through :meth:`send`, so sever, delay and reorder
        act on each frame as they do on single sends."""
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
        message = recv_task.result()
        if self._delay_s > 0.0 and message is not None:
            await asyncio.sleep(self._delay_s)
        return message

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

    def wrap(
        self,
        local_id: int,
        stream: MessageStream,
        *,
        delay_s: float = 0.0,
        reorder_rate: float = 0.0,
    ) -> ChaosStream:
        """Wrap one local↔root stream so the plan can reach it later."""
        chaos = ChaosStream(
            stream,
            delay_s=delay_s,
            reorder_rate=reorder_rate,
            rng=random.Random(f"chaos:{self._plan.seed}:{local_id}"),
        )
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
