"""Shard failover: failure detection and the takeover protocol.

The :class:`FailoverController` is the mesh coordinator's failover
plane.  It owns the authoritative epoch-versioned
:class:`~repro.mesh.routing.ShardMap` and turns *evidence* of a shard's
death into one serialized takeover:

1. **Evidence** arrives two ways: locals and relays report a severed
   shard uplink (``report_link_down``), and the controller's own sweep
   task polls each shard's ``crashed`` flag on the heartbeat cadence
   (the coordinator monitors the shards it deployed, reusing the
   tolerance config's heartbeat interval).
2. **Confirmation** is the coordinator's registry, not the reporter's
   opinion: a link EOF for a shard that is alive and well (a teardown
   race, a transient close) is ignored.  Only a shard whose ``crashed``
   flag is set — the in-process equivalent of the process being gone —
   is eligible for takeover, after one heartbeat interval of grace so
   in-flight frames drain.
3. **Takeover** fails the shard in the map (bumping the epoch),
   computes the dead shard's *unanswered* window share from its
   operator's outcome log, re-homes that share onto the ring successor
   (:meth:`~repro.mesh.servers.MeshRootServer.adopt_windows`), and has
   the successor broadcast the new map in-band
   (:class:`~repro.network.messages.ShardFailoverMessage`).  Locals and
   relays converge on the epoch, fence the dead shard, and replay their
   retained sent-but-unreleased state to the successor — which then
   runs the *unmodified* identification/calculation operators, so
   recovered windows stay bit-identical to the exact centralized
   quantile.

Late resurrection of the original shard is fenced by the epoch: every
host drops frames from shards the current map declares dead, and stale
(non-monotonic) failover announcements are ignored everywhere.
"""

from __future__ import annotations

import asyncio
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.mesh.routing import ShardMap
from repro.obs.tracer import NOOP_TRACER, Tracer
from repro.runtime.transport import FailureLatch
from repro.streaming.windows import Window

__all__ = ["FailoverController"]


class FailoverController:
    """Detects dead root shards and re-homes their windows.

    Args:
        shards: The deployed :class:`~repro.mesh.servers.MeshRootServer`
            list, indexed by shard index.  The controller reads their
            ``crashed`` flags and outcome logs and drives
            ``adopt_windows``/``announce_failover`` on successors.
        shard_windows: Shard index → the window share the *initial*
            routing function assigned it (epoch 0 ownership).
        heartbeat_interval_s: Cadence for the sweep task and the
            pre-takeover grace period.
        tracer: Observability hooks; takeovers are recorded as
            ``shard_failover_takeover`` spans and counted by the
            ``shard_failovers_total`` counter.
        failures: The cluster's latch: the sweep and every takeover are
            spawned on it, so an exception inside either fails the run
            instead of being swallowed.
        on_takeover: Optional synchronous callback fired after each
            completed takeover with ``(dead_index, successor_index,
            epoch, adopted)`` — the telemetry plane hooks flight-recorder
            dumps and fleet failover events here.  An exception from the
            callback lands in ``failures`` like any other (takeover itself
            has already committed).
    """

    def __init__(
        self,
        shards: "Sequence",
        shard_windows: "Mapping[int, Sequence[Window]]",
        *,
        heartbeat_interval_s: float = 0.05,
        tracer: Tracer = NOOP_TRACER,
        failures: FailureLatch,
        on_takeover=None,
    ) -> None:
        if not shards:
            raise ConfigurationError("failover needs at least one shard")
        self._shards = list(shards)
        self._shard_windows = {
            index: tuple(windows)
            for index, windows in shard_windows.items()
        }
        self._interval = heartbeat_interval_s
        self._tracer = tracer
        self._failures = failures
        self._on_takeover = on_takeover
        self.map = ShardMap(len(self._shards))
        self._lock = asyncio.Lock()
        self._pending: set[int] = set()
        self._tasks: set[asyncio.Task] = set()
        self._sweep_task: asyncio.Task | None = None
        self._closing = False
        #: Takeovers completed (epoch bumps driven by this controller).
        self.failovers = 0
        #: Windows re-homed to successors across all takeovers.
        self.windows_reassigned = 0
        #: Link-down reports that did not lead to a takeover.
        self.reports_ignored = 0

    # -- evidence ------------------------------------------------------

    def start(self) -> None:
        """Start the coordinator's sweep over the shards' crash flags."""
        if self._sweep_task is None:
            self._sweep_task = self._failures.spawn(self._sweep())

    def report_link_down(self, shard_index: int) -> None:
        """A local or relay lost its uplink to ``shard_index``.

        Synchronous callback (hosts fire it from their reader tasks).
        Evidence only: the takeover is scheduled, then re-confirmed
        against the coordinator's registry after a grace interval.
        """
        if self._closing or not 0 <= shard_index < len(self._shards):
            return
        if not self.map.is_live(shard_index):
            return  # already failed over
        if not self._shards[shard_index].crashed:
            self.reports_ignored += 1
            return  # spurious EOF: the shard is alive in our registry
        self._schedule(shard_index)

    async def _sweep(self) -> None:
        """Backup detection: poll crash flags on the heartbeat cadence.

        Covers the no-traffic corner where a shard dies while no reader
        holds an open frame in flight (so no EOF report ever fires).
        """
        while not self._closing:
            await asyncio.sleep(self._interval)
            for index, shard in enumerate(self._shards):
                if shard.crashed and self.map.is_live(index):
                    self._schedule(index)

    def _schedule(self, index: int) -> None:
        if index in self._pending:
            return
        self._pending.add(index)
        task = self._failures.spawn(self._run_takeover(index))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- takeover ------------------------------------------------------

    async def _run_takeover(self, index: int) -> None:
        # Grace: let in-flight frames and EOFs drain so the dead
        # shard's outcome log is quiescent before we snapshot it
        # (its fabric is halted by crash(), so nothing mutates it
        # after this sleep).
        await asyncio.sleep(self._interval)
        async with self._lock:
            await self._take_over(index)

    async def _take_over(self, index: int) -> None:
        if self._closing or not self.map.is_live(index):
            return
        dead = self._shards[index]
        if not dead.crashed:
            return
        self.map = self.map.fail(index)
        successor_index = self.map.successor(index)
        successor = self._shards[successor_index]
        answered = {outcome.window for outcome in dead.node.outcomes}
        unanswered = [
            window
            for window in self._shard_windows.get(index, ())
            if window not in answered
        ]
        successor.adopt_windows(
            unanswered, epoch=self.map.epoch, finalized=sorted(answered)
        )
        # The dead shard will never account its remaining share; its
        # done latch is settled here so the cluster driver's completion
        # barrier waits on the successor instead.
        dead.done.set()
        await successor.announce_failover(self.map)
        self.failovers += 1
        self.windows_reassigned += len(unanswered)
        if self._tracer.enabled:
            now = successor.fabric.now
            self._tracer.record(
                "shard_failover_takeover", successor.node_id, now, now,
                epoch=self.map.epoch, dead_shard=index,
                successor=successor_index, adopted=len(unanswered),
                inherited=len(answered),
            )
            self._tracer.registry.counter(
                "shard_failovers_total",
                "Shard takeovers completed by the failover controller.",
            ).inc()
        if self._on_takeover is not None:
            self._on_takeover(
                index, successor_index, self.map.epoch, len(unanswered)
            )

    # -- lifecycle -----------------------------------------------------

    async def close(self) -> None:
        """Stop detection; in-flight takeovers are cancelled."""
        self._closing = True
        tasks = list(self._tasks)
        if self._sweep_task is not None:
            tasks.append(self._sweep_task)
            self._sweep_task = None
        self._tasks.clear()
        await self._failures.reap(tasks)
