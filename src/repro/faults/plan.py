"""Deterministic fault plans for the live cluster.

A :class:`FaultPlan` is a seeded, fully explicit schedule of fault events —
node crashes and restarts, link drops, network partitions, shard kills and
driver drops — expressed in *event time* (seconds since the run's epoch).
The chaos driver inside :func:`repro.runtime.cluster.run_cluster` fires it
against the live asyncio cluster: crashes call ``LocalServer.crash()``,
link drops sever the wrapped transport, and event times scale to wall time
by the run's ``time_scale``.

Because the plan is data, not code, :meth:`FaultPlan.described` is the
schedule a run is expected to apply, checkable against the run's record.

:class:`ToleranceConfig` is the matching survival policy: heartbeat cadence
and failure-detection threshold for the root, reconnect backoff for the
locals, and the :class:`~repro.core.reliability.ReliabilityConfig` the
operators run with while faults are being injected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.reliability import ReliabilityConfig
from repro.errors import ConfigurationError

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "ToleranceConfig",
    "describe_event",
]

#: Recognized fault kinds, in the tie-break order used by the schedule.
#: ``kill_shard`` and ``driver_drop`` are mesh/query-plane kinds: they
#: need root shards and durable driver sessions (see
#: :func:`repro.faults.runner.run_chaos`).
FAULT_KINDS = (
    "crash",
    "restart",
    "drop_link",
    "partition_start",
    "partition_heal",
    "kill_shard",
    "driver_drop",
)

#: Kinds that target one specific node.  For ``kill_shard`` the node is
#: the 0-based root-shard index rather than a local id.
_NODE_SCOPED = frozenset({"crash", "restart", "drop_link", "kill_shard"})


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault, in event-time seconds since the run epoch.

    Attributes:
        at_s: When the fault fires.
        kind: One of :data:`FAULT_KINDS`.
        node: Target node (required for node-scoped kinds, must be
            omitted for partitions, which cut every local off the root).
            A local id for crash/restart/drop_link; the 0-based shard
            index for ``kill_shard``.  A ``drop_link`` severs the
            local's link; it comes back through the local's reconnect.
    """

    at_s: float
    kind: str
    node: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(FAULT_KINDS)}"
            )
        if self.at_s < 0:
            raise ConfigurationError(
                f"fault time must be >= 0 s, got {self.at_s}"
            )
        if self.kind in _NODE_SCOPED and self.node is None:
            raise ConfigurationError(f"{self.kind} fault needs a target node")
        if self.kind not in _NODE_SCOPED and self.node is not None:
            raise ConfigurationError(
                f"{self.kind} fault takes no target node, got {self.node}"
            )


def describe_event(event: FaultEvent) -> str:
    """Canonical one-line description of one fault event."""
    noun = "shard" if event.kind == "kill_shard" else "local"
    target = f" {noun} {event.node}" if event.node is not None else ""
    return f"{event.kind}{target} @{event.at_s:.3f}s"


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seeded, deterministic schedule of fault injections."""

    seed: int
    horizon_s: float
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ConfigurationError(
                f"plan horizon must be > 0 s, got {self.horizon_s}"
            )
        # Every restart must revive an earlier crash of the same node, and
        # partitions must open before they heal — the chaos driver relies
        # on well-formed pairings.
        crashed: set[int] = set()
        partitioned = False
        for event in self.schedule():
            if event.kind == "crash":
                if event.node in crashed:
                    raise ConfigurationError(
                        f"local {event.node} crashes twice without a restart"
                    )
                crashed.add(event.node)
            elif event.kind == "restart":
                if event.node not in crashed:
                    raise ConfigurationError(
                        f"restart of local {event.node} without a prior crash"
                    )
                crashed.discard(event.node)
            elif event.kind == "partition_start":
                if partitioned:
                    raise ConfigurationError(
                        "partition starts twice without healing"
                    )
                partitioned = True
            elif event.kind == "partition_heal":
                if not partitioned:
                    raise ConfigurationError(
                        "partition heals without a prior start"
                    )
                partitioned = False

    def schedule(self) -> tuple[FaultEvent, ...]:
        """Events in firing order (time, then kind precedence, then node)."""
        return tuple(
            sorted(
                self.events,
                key=lambda e: (
                    e.at_s,
                    FAULT_KINDS.index(e.kind),
                    -1 if e.node is None else e.node,
                ),
            )
        )

    def described(self) -> tuple[str, ...]:
        """The schedule as canonical strings, in firing order."""
        return tuple(describe_event(event) for event in self.schedule())

    def crash_intervals(self) -> dict[int, list[tuple[float, float | None]]]:
        """Per-node ``(crash, restart)`` pairs; ``None`` end = never restarts."""
        intervals: dict[int, list[tuple[float, float | None]]] = {}
        open_at: dict[int, float] = {}
        for event in self.schedule():
            if event.kind == "crash":
                open_at[event.node] = event.at_s
            elif event.kind == "restart":
                start = open_at.pop(event.node)
                intervals.setdefault(event.node, []).append(
                    (start, event.at_s)
                )
        for node, start in open_at.items():
            intervals.setdefault(node, []).append((start, None))
        return intervals


def _default_reliability() -> ReliabilityConfig:
    # Wall-clock scale for the live runtime: generous retries so windows
    # survive a reconnect instead of aborting while the link is down.
    return ReliabilityConfig(timeout_s=0.15, max_retries=80)


@dataclass(frozen=True, slots=True)
class ToleranceConfig:
    """Survival policy for a cluster running under fault injection.

    All times are wall-clock seconds on the live runtime.

    Attributes:
        heartbeat_interval_s: Cadence of the locals' liveness beacons and
            of the root's monitor tick.
        declare_dead_after_s: Silence threshold past which the root's
            failure detector declares a local dead and degrades its open
            windows.  Keep this comfortably above the longest expected
            reconnect gap, or crashes that would resume cleanly get
            degraded instead.
        reconnect_base_delay_s: First reconnect backoff delay.
        reconnect_max_delay_s: Backoff ceiling.
        reconnect_jitter: Uniform multiplicative jitter in
            ``[0, reconnect_jitter]`` added to each delay (decorrelates
            reconnect stampedes after a partition heals).
        reconnect_max_attempts: Dial attempts before a local gives up.
        reliability: Timeout/retransmit parameters the Dema operators run
            with (state retention at locals is what makes resume possible).
    """

    heartbeat_interval_s: float = 0.05
    declare_dead_after_s: float = 60.0
    reconnect_base_delay_s: float = 0.05
    reconnect_max_delay_s: float = 1.0
    reconnect_jitter: float = 0.25
    reconnect_max_attempts: int = 8
    reliability: ReliabilityConfig = field(
        default_factory=_default_reliability
    )

    def __post_init__(self) -> None:
        if self.heartbeat_interval_s <= 0:
            raise ConfigurationError(
                f"heartbeat interval must be > 0 s, "
                f"got {self.heartbeat_interval_s}"
            )
        if self.declare_dead_after_s <= self.heartbeat_interval_s:
            raise ConfigurationError(
                "declare_dead_after_s must exceed the heartbeat interval "
                f"({self.declare_dead_after_s} <= {self.heartbeat_interval_s})"
            )
        if self.reconnect_base_delay_s <= 0:
            raise ConfigurationError(
                f"reconnect base delay must be > 0 s, "
                f"got {self.reconnect_base_delay_s}"
            )
        if self.reconnect_max_delay_s < self.reconnect_base_delay_s:
            raise ConfigurationError(
                "reconnect max delay must be >= the base delay "
                f"({self.reconnect_max_delay_s} < "
                f"{self.reconnect_base_delay_s})"
            )
        if self.reconnect_jitter < 0:
            raise ConfigurationError(
                f"reconnect jitter must be >= 0, got {self.reconnect_jitter}"
            )
        if self.reconnect_max_attempts < 1:
            raise ConfigurationError(
                f"reconnect attempts must be >= 1, "
                f"got {self.reconnect_max_attempts}"
            )
