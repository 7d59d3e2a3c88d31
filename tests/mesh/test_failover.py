"""Shard failover: no window left unanswered when a root dies.

The headline property: killing any single root shard mid-run (with or
without a relay tier) yields a run where **every** ground-truth window
is recovered bit-identically to the single-root oracle — none lost,
none mismatched — because the successor replays the dead shard's
windows from the locals' and relays' retained buffers and runs the
unmodified operators on them.

Kills are pinned to a protocol point with
:meth:`~repro.runtime.servers.RootServer.crash_after` (the victim dies
right after its N-th answered window): unpaced replays burst through a
whole run between event-loop ticks, so wall-clock kill schedules always
land after completion and test nothing.
"""

import pytest

from repro.bench.generator import GeneratorConfig, workload
from tests.event_objects import event_objects
from repro.core.query import QuantileQuery
from repro.faults.plan import ToleranceConfig
from repro.mesh.cluster import run_mesh
from tests.mesh.grading import grade_counts
from repro.mesh.config import MeshConfig
from repro.runtime.servers import RootServer

#: Fixed γ — the bit-identity configuration.
QUERY = QuantileQuery(q=0.5, gamma=10_000)

# Fast heartbeats drive the failover sweep cadence; the *local* death
# threshold stays loose because nothing here kills a local — a tight
# threshold lets one slow event-loop tick under full-suite load declare
# a healthy local dead and degrade windows spuriously.
TOLERANCE = ToleranceConfig(
    heartbeat_interval_s=0.02, declare_dead_after_s=2.0
)

N_LOCALS = 6


def streams_20_windows():
    """A 20-window tumbling grid: enough for every shard to own several
    windows before and after the kill."""
    return event_objects(workload(
        list(range(1, N_LOCALS + 1)),
        GeneratorConfig(event_rate=40.0, duration_s=20.0, seed=42),
    ))


def mesh_config(**overrides):
    defaults = dict(
        n_locals=N_LOCALS,
        n_shards=2,
        query=QUERY,
        tolerance=TOLERANCE,
        relay_flush_s=0.1,
        timeout_s=30.0,
    )
    defaults.update(overrides)
    return MeshConfig(**defaults)


def kill_after_first_outcome(victim: int):
    async def disturb(ctx):
        ctx.shards[victim].crash_after(1)

    return disturb


def assert_no_window_lost(config, streams, disturb):
    report = run_mesh(config, streams, disturb=disturb)
    classes = grade_counts(streams, config, report.outcomes)
    assert classes["lost"] == 0, classes
    assert classes["mismatch"] == 0, classes
    assert classes["degraded"] == 0, classes
    assert classes["recovered"] == report.windows > 0
    return report


class TestKillShardFlat:
    @pytest.mark.parametrize("victim", [0, 1])
    def test_any_single_shard_death_recovers_every_window(self, victim):
        config = mesh_config(n_shards=2)
        report = assert_no_window_lost(
            config, streams_20_windows(), kill_after_first_outcome(victim)
        )
        assert report.shard_failovers == 1
        assert report.windows_adopted > 0

    def test_three_shards_survive_one_death(self):
        config = mesh_config(n_shards=3)
        report = assert_no_window_lost(
            config, streams_20_windows(), kill_after_first_outcome(1)
        )
        assert report.shard_failovers == 1
        assert report.windows_adopted > 0

    def test_late_kill_after_several_outcomes(self):
        """A victim that already answered most of its share still hands
        over the tail cleanly (inherit_finalized keeps the answered
        windows answered exactly once)."""

        async def disturb(ctx):
            ctx.shards[0].crash_after(5)

        report = assert_no_window_lost(
            mesh_config(n_shards=2), streams_20_windows(), disturb
        )
        assert report.shard_failovers == 1


class TestKillShardWithRelay:
    @pytest.mark.parametrize("victim", [0, 1])
    def test_relay_replays_retained_frames_to_successor(self, victim):
        config = mesh_config(n_shards=2, relay_fanin=3)
        report = assert_no_window_lost(
            config, streams_20_windows(), kill_after_first_outcome(victim)
        )
        assert report.shard_failovers == 1
        assert report.windows_adopted > 0
        assert report.relay_frames_replayed > 0


class TestFailoverMechanics:
    def test_adopt_windows_rearms_completion(self):
        """Adopting windows after ``done`` was set must clear it, or the
        cluster's completion barrier would pass with work outstanding."""
        import asyncio

        from repro.core.root_node import DemaRootNode
        from repro.runtime.servers import LiveFabric
        from repro.runtime.transport import FailureLatch
        from repro.streaming.windows import Window

        async def scenario():
            shard = RootServer(
                DemaRootNode(
                    1 << 20,
                    local_ids=[1, 2],
                    query=QUERY,
                    ops_per_second=1e9,
                ),
                LiveFabric(asyncio.get_event_loop().time()),
                expected_windows=0,
                failures=FailureLatch(),
            )
            shard._account_outcomes()
            assert shard.done.is_set()
            shard.adopt_windows(
                [Window(0, 1_000)], epoch=1, finalized=()
            )
            assert not shard.done.is_set()
            assert shard.windows_adopted == 1

        asyncio.new_event_loop().run_until_complete(scenario())
