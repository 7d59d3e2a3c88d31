"""Chaos transport tests: severing and the plan controller.

Event loops are driven with ``asyncio.run`` (no pytest-asyncio in the
container), and the wrapped streams are real in-memory pipes so severing
exercises the same wake-a-blocked-read path the live cluster relies on.
"""

import asyncio

import pytest

from repro.errors import TransportError
from repro.faults.chaos import ChaosController, ChaosStream
from repro.faults.plan import FaultEvent, FaultPlan
from repro.network.messages import WatermarkMessage
from repro.runtime.transport import memory_pipe
from repro.streaming.windows import Window

W = Window(0, 1000)


def _watermark(mark: int) -> WatermarkMessage:
    return WatermarkMessage(1, W, watermark_time=mark)


def _plan() -> FaultPlan:
    return FaultPlan(seed=5, horizon_s=3.0, events=(
        FaultEvent(at_s=1.0, kind="crash", node=1),
        FaultEvent(at_s=2.0, kind="restart", node=1),
    ))


class TestChaosStream:
    def test_passthrough_send_recv(self):
        async def scenario():
            near, far = memory_pipe()
            chaos = ChaosStream(near)
            await chaos.send(_watermark(5))
            assert await far.recv() == _watermark(5)
            await far.send(_watermark(7))
            assert await chaos.recv() == _watermark(7)
            assert chaos.stats is near.stats
            await chaos.close()

        asyncio.run(scenario())

    def test_severed_send_raises(self):
        async def scenario():
            near, _far = memory_pipe()
            chaos = ChaosStream(near)
            chaos.sever()
            assert chaos.severed
            with pytest.raises(TransportError, match="severed"):
                await chaos.send(_watermark(1))

        asyncio.run(scenario())

    def test_sever_wakes_blocked_recv_with_eof(self):
        async def scenario():
            near, _far = memory_pipe()
            chaos = ChaosStream(near)
            reader = asyncio.ensure_future(chaos.recv())
            await asyncio.sleep(0)
            assert not reader.done()
            chaos.sever()
            assert await asyncio.wait_for(reader, timeout=5) is None
            # Subsequent receives report EOF immediately.
            assert await chaos.recv() is None

        asyncio.run(scenario())

    def test_sever_closes_the_remote_side_too(self):
        async def scenario():
            near, far = memory_pipe()
            chaos = ChaosStream(near)
            chaos.sever()
            # The inner stream closes in the background; the peer sees EOF
            # exactly as if the process died.
            assert await asyncio.wait_for(far.recv(), timeout=5) is None

        asyncio.run(scenario())

    def test_external_cancel_wins_over_sever_race(self):
        async def scenario():
            near, _far = memory_pipe()
            chaos = ChaosStream(near)
            reader = asyncio.ensure_future(chaos.recv())
            await asyncio.sleep(0)
            # Sever (completing the cut_task future) and cancel in the
            # same tick: the reader must die cancelled, not hang.
            chaos.sever()
            reader.cancel()
            with pytest.raises(asyncio.CancelledError):
                await reader

        asyncio.run(scenario())

    def test_severed_send_many_raises(self):
        async def scenario():
            near, _far = memory_pipe()
            chaos = ChaosStream(near)
            chaos.sever()
            with pytest.raises(TransportError, match="severed"):
                await chaos.send_many([_watermark(1), _watermark(2)])

        asyncio.run(scenario())


class TestChaosController:
    def test_sever_cuts_every_stream_of_the_local(self):
        async def scenario():
            controller = ChaosController(_plan())
            near_a, _ = memory_pipe()
            near_b, _ = memory_pipe()
            wrapped_a = controller.wrap(1, near_a)
            wrapped_b = controller.wrap(1, near_b)
            other, _ = memory_pipe()
            wrapped_other = controller.wrap(2, other)
            controller.sever(1)
            assert wrapped_a.severed and wrapped_b.severed
            assert not wrapped_other.severed

        asyncio.run(scenario())

    def test_partition_gates_redials(self):
        async def scenario():
            controller = ChaosController(_plan())
            near, _ = memory_pipe()
            wrapped = controller.wrap(1, near)
            assert controller.dial_allowed(1)
            controller.start_partition()
            assert controller.partitioned
            assert wrapped.severed
            assert not controller.dial_allowed(1)
            controller.heal_partition()
            assert controller.dial_allowed(1)

        asyncio.run(scenario())

    def test_record_uses_canonical_descriptions(self):
        controller = ChaosController(_plan())
        for event in controller.plan.schedule():
            controller.record(event)
        assert controller.applied == list(controller.plan.described())
