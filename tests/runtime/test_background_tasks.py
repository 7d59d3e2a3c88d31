"""Background tasks run one way: spawned on the cluster's ``FailureLatch``.

A task that dies unobserved makes a live run hang or go quiet instead of
failing.  Every long-lived task of the live hosts — connection handlers,
readers, the telemetry pump, the failover sweep and takeovers — is
started by :meth:`FailureLatch.spawn`, so its first unexpected exception
lands in ``latch.error``; teardown cancels them with
:meth:`FailureLatch.reap`.
"""

import asyncio
import contextlib
import gc
import warnings

import pytest

from repro.mesh.failover import FailoverController
from repro.mesh.relay import RelayServer
from repro.obs.fleet import TelemetryUplink
from repro.runtime.transport import FailureLatch


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30.0))


async def tripped(latch: FailureLatch, within_s: float = 2.0):
    """The latch's error once it trips, or ``None`` after ``within_s``."""
    with contextlib.suppress(asyncio.TimeoutError):
        await asyncio.wait_for(latch.event.wait(), within_s)
    return latch.error


class TestLatchMembers:
    def test_spawned_failure_is_latched_not_raised(self):
        async def scenario():
            latch = FailureLatch()

            async def boom():
                raise RuntimeError("boom")

            task = latch.spawn(boom())
            await task  # guarded: the task itself ends cleanly
            return latch.error

        error = run(scenario())
        assert isinstance(error, RuntimeError) and "boom" in str(error)

    def test_cancellation_is_not_a_failure(self):
        async def scenario():
            latch = FailureLatch()
            task = latch.spawn(asyncio.sleep(60))
            await asyncio.sleep(0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return latch

        latch = run(scenario())
        assert latch.error is None
        assert not latch.event.is_set()

    def test_reap_cancels_and_waits_quietly(self):
        async def scenario():
            latch = FailureLatch()
            sleeping = latch.spawn(asyncio.sleep(60))
            finished = latch.spawn(asyncio.sleep(0))
            await asyncio.sleep(0.01)
            await latch.reap([sleeping, finished])
            return latch, sleeping, finished

        latch, sleeping, finished = run(scenario())
        assert sleeping.cancelled()
        assert finished.done() and not finished.cancelled()
        assert latch.error is None

    def test_a_spawn_as_the_owner_tears_down_never_outlives_the_loop(self):
        """A fabric or relay timer can fire while the loop shuts down.  A
        task it spawned after the owner's teardown never got a first step
        before the loop closed, and its ``guard`` coroutine was reported
        never awaited.  Closing the latch reaps what is live and refuses
        what comes later."""
        loop = asyncio.new_event_loop()
        latch = FailureLatch()
        ran = []

        async def flush():
            ran.append("flush")

        async def owner():
            latch.spawn(flush())  # right before teardown: not started yet
            await latch.close()
            # A timer firing in the loop's last iteration, after teardown.
            loop.call_soon(lambda: ran.append(latch.spawn(flush())))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loop.run_until_complete(owner())
            loop.close()
            gc.collect()
        assert ran == [None]  # the first was reaped, the late one refused
        assert not [w for w in caught if "never awaited" in str(w.message)]


class TestGuardedHostTasks:
    def test_relay_telemetry_loop_failure_is_latched(self):
        """The relay's telemetry pump used to run as a bare task: an
        exception inside it vanished and the relay went quiet."""

        async def scenario():
            latch = FailureLatch()
            relay = RelayServer(
                0, window_length_ms=1_000, n_shards=1, failures=latch,
                uplink=TelemetryUplink(1), uplink_interval_s=0.001,
            )

            def refresh():
                raise RuntimeError("telemetry refresh blew up")

            relay.refresh_uplink_stats = refresh
            await relay.connect_shards({})
            error = await tripped(latch)
            await relay.close()
            return error

        error = run(scenario())
        assert isinstance(error, RuntimeError)
        assert "telemetry refresh blew up" in str(error)

    def test_failover_sweep_failure_is_latched(self):
        """The failover sweep used to run as a bare task: a crash inside
        it silently ended shard-death detection for the rest of the run."""

        class UnreadableShard:
            @property
            def crashed(self):
                raise RuntimeError("crash flag unreadable")

        async def scenario():
            latch = FailureLatch()
            controller = FailoverController(
                [UnreadableShard(), UnreadableShard()],
                {},
                heartbeat_interval_s=0.001,
                failures=latch,
            )
            controller.start()
            error = await tripped(latch)
            await controller.close()
            return error

        error = run(scenario())
        assert isinstance(error, RuntimeError)
        assert "crash flag unreadable" in str(error)


class TestTeardown:
    def test_closing_the_cluster_cancels_every_armed_fabric_timer(self):
        """An operator timer armed on any host and due only after the
        cluster closed never runs: ``close`` halts every host's fabric,
        which cancels its pending timers instead of firing their actions
        on a torn-down host while the loop winds down."""
        from repro.bench.generator import GeneratorConfig, workload
        from repro.core.query import QuantileQuery
        from repro.obs.tracer import NOOP_TRACER
        from repro.runtime.cluster import Cluster, LiveClusterConfig

        async def scenario():
            config = LiveClusterConfig(
                n_locals=2,
                streams_per_local=1,
                query=QuantileQuery(q=0.5, gamma=64),
                transport="memory",
                timeout_s=20.0,
            )
            streams = workload(
                [1, 2], GeneratorConfig(event_rate=200.0, duration_s=1.0, seed=3)
            )
            cluster = Cluster(config, streams, tracer=NOOP_TRACER, driver=None)
            fired = []
            try:
                await cluster.wire()
                await cluster.drive(None)
                hosts = [*cluster.shards, *cluster.locals_by_id.values()]
                for host in hosts:
                    fabric = host.fabric
                    fabric.schedule(fabric.now + 0.05, fired.append)
            finally:
                await cluster.close()
            await asyncio.sleep(0.2)  # well past every timer's deadline
            return len(hosts), fired

        armed, fired = run(scenario())
        assert armed == 3
        assert fired == []
