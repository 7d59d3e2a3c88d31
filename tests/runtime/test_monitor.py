"""Failure-detector heap hygiene under membership churn.

The root's monitor is a deadline heap with one live entry per monitored
local.  A local that gracefully departs never heartbeats again; its
entry must be *dropped* when it pops, not re-armed — otherwise it
accrues a spurious miss every interval and, past the silence threshold,
ends in a bogus death declaration for a node that said goodbye
properly.
"""

import asyncio

from repro.core.query import QuantileQuery
from repro.core.root_node import DemaRootNode
from repro.faults.plan import ToleranceConfig
from repro.runtime.servers import LiveFabric, RootServer
from repro.runtime.transport import FailureLatch

TOLERANCE = ToleranceConfig(
    heartbeat_interval_s=0.01, declare_dead_after_s=0.05
)


def make_root(loop_time: float) -> RootServer:
    return RootServer(
        DemaRootNode(
            0,
            local_ids=[1, 2, 3],
            query=QuantileQuery(q=0.5, gamma=32),
            ops_per_second=1e9,
        ),
        LiveFabric(loop_time),
        expected_windows=1,
        tolerance=TOLERANCE,
        failures=FailureLatch(),
    )


def run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


class TestMonitorHeap:
    def test_departed_local_entry_dropped_not_rearmed(self):
        async def scenario():
            root = make_root(asyncio.get_event_loop().time())
            for local_id in (1, 2, 3):
                root._observe(local_id)
            assert len(root._deadlines) == 3
            # Local 2 leaves gracefully, then goes silent forever.
            root.node.remove_local(2, effective_from=1_000, now=0.0)
            assert 2 not in root.node.current_members
            root.start_monitor()
            try:
                # Long enough for every armed deadline to pop at least
                # once and for a silent *member* to be declared dead.
                await asyncio.sleep(0.12)
            finally:
                await root.stop_monitor()
            # The leaver's entry is gone from both heap and enrollment…
            assert all(entry[1] != 2 for entry in root._deadlines)
            assert 2 not in root._monitored
            # …and it was never declared dead (locals 1 and 3 were,
            # being silent members past the threshold).
            assert 2 not in root.node.dead_nodes
            assert root.node.dead_nodes == {1, 3}

        run(scenario())

    def test_dead_local_entry_dropped_on_pop(self):
        async def scenario():
            root = make_root(asyncio.get_event_loop().time())
            root._observe(1)
            root.node.mark_dead(1, 0.0)
            root.start_monitor()
            try:
                await asyncio.sleep(0.05)
            finally:
                await root.stop_monitor()
            assert root._deadlines == []
            assert 1 not in root._monitored

        run(scenario())

    def test_heap_shrinks_under_join_leave_churn(self):
        """Churning joiners never accumulate tombstoned heap entries."""

        async def scenario():
            root = make_root(asyncio.get_event_loop().time())
            root.start_monitor()
            try:
                for round_no in range(5):
                    joiner = 10 + round_no
                    root.node.add_local(joiner, first_window_start=0)
                    root._observe(joiner)
                    root.node.remove_local(
                        joiner, effective_from=1_000, now=0.0
                    )
                    await asyncio.sleep(0.02)
                # Give the last round's deadline time to pop.
                await asyncio.sleep(0.03)
            finally:
                await root.stop_monitor()
            live = {entry[1] for entry in root._deadlines}
            assert not (live & set(range(10, 15)))
            assert not (root._monitored & set(range(10, 15)))

        run(scenario())

    def test_silent_member_still_declared_dead(self):
        """The fix must not blunt real detection: a silent member dies."""

        async def scenario():
            root = make_root(asyncio.get_event_loop().time())
            root._observe(1)
            root.start_monitor()
            try:
                await asyncio.sleep(0.12)
            finally:
                await root.stop_monitor()
            assert 1 in root.node.dead_nodes
            assert root.locals_declared_dead == 1
            assert root.heartbeat_misses > 0

        run(scenario())
