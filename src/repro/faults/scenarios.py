"""Named chaos scenarios: seeded fault-plan builders.

Each scenario turns ``(seed, horizon, n_locals)`` into a concrete
:class:`~repro.faults.plan.FaultPlan` using its own deterministic RNG, so
the same name + seed always yields the same schedule.  Timings are fractions of the workload horizon
rather than absolute seconds, so scenarios scale with run length.

The scenario also carries the failure-detection posture that makes it
meaningful: ``crash-reconnect`` keeps the detector's grace period *longer*
than the outage so recovery happens purely through reconnect + session
resume (every window stays exact), while ``dead-local`` detects quickly so
the root degrades instead of stalling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.faults.plan import FaultEvent, FaultPlan

__all__ = ["ChaosScenario", "SCENARIOS", "build_plan", "get_scenario"]


@dataclass(frozen=True, slots=True)
class ChaosScenario:
    """One named fault pattern plus its detection posture.

    Attributes:
        name: CLI-facing identifier.
        description: One line for ``--list`` output.
        detect_after_s: Failure-detector silence threshold in event-time
            seconds, or ``None`` to keep the detector in grace for the
            whole run (recovery must come from reconnect/resume).
        build: ``(rng, horizon_s, n_targets) -> events``.  The target
            pool is the local set for flat scenarios and the shard set
            for mesh ones.
        substrate: What the fault needs of the one live cluster.
            ``"flat"`` targets locals and runs on any topology without
            relays; ``"mesh"`` targets a root shard (at least two);
            ``"query"`` needs a query driver with durable sessions.
        n_shards: Root shards the scenario needs; the CLI uses it when
            ``--shards`` is not given.  ``kill-shard`` needs two — the
            smallest ring with a successor to fail onto.
        relay_fanin: Relay fan-in the CLI uses when ``--relay-fanin`` is
            not given.
    """

    name: str
    description: str
    detect_after_s: float | None
    build: Callable[[random.Random, float, int], tuple[FaultEvent, ...]]
    substrate: str = "flat"
    n_shards: int = 1
    relay_fanin: int = 0


def _pick_local(rng: random.Random, n_locals: int) -> int:
    return rng.randrange(1, n_locals + 1)


def _crash_reconnect(
    rng: random.Random, horizon_s: float, n_locals: int
) -> tuple[FaultEvent, ...]:
    victim = _pick_local(rng, n_locals)
    crash_at = horizon_s * (0.35 + 0.10 * rng.random())
    down_for = horizon_s * (0.15 + 0.05 * rng.random())
    return (
        FaultEvent(at_s=crash_at, kind="crash", node=victim),
        FaultEvent(at_s=crash_at + down_for, kind="restart", node=victim),
    )


def _dead_local(
    rng: random.Random, horizon_s: float, n_locals: int
) -> tuple[FaultEvent, ...]:
    victim = _pick_local(rng, n_locals)
    crash_at = horizon_s * (0.40 + 0.10 * rng.random())
    return (FaultEvent(at_s=crash_at, kind="crash", node=victim),)


def _flaky_link(
    rng: random.Random, horizon_s: float, n_locals: int
) -> tuple[FaultEvent, ...]:
    victim = _pick_local(rng, n_locals)
    return (
        FaultEvent(
            at_s=horizon_s * (0.25 + 0.05 * rng.random()),
            kind="drop_link",
            node=victim,
        ),
        FaultEvent(
            at_s=horizon_s * (0.60 + 0.05 * rng.random()),
            kind="drop_link",
            node=victim,
        ),
    )


def _partition(
    rng: random.Random, horizon_s: float, n_locals: int
) -> tuple[FaultEvent, ...]:
    start = horizon_s * (0.40 + 0.05 * rng.random())
    return (
        FaultEvent(at_s=start, kind="partition_start"),
        FaultEvent(at_s=start + horizon_s * 0.15, kind="partition_heal"),
    )


def _kill_shard(
    rng: random.Random, horizon_s: float, n_shards: int
) -> tuple[FaultEvent, ...]:
    # The cluster driver pins the kill to a protocol point (right after
    # the victim's next answered window) rather than this wall-clock
    # time, and the chaos runner replays these scenarios unpaced; the
    # event records *which* shard dies and the nominal schedule.
    victim = rng.randrange(n_shards)
    return (
        FaultEvent(
            at_s=horizon_s * (0.40 + 0.10 * rng.random()),
            kind="kill_shard",
            node=victim,
        ),
    )


def _driver_drop(
    rng: random.Random, horizon_s: float, n_locals: int
) -> tuple[FaultEvent, ...]:
    return (
        FaultEvent(
            at_s=horizon_s * (0.45 + 0.10 * rng.random()),
            kind="driver_drop",
        ),
    )


SCENARIOS: dict[str, ChaosScenario] = {
    scenario.name: scenario
    for scenario in (
        ChaosScenario(
            name="crash-reconnect",
            description=(
                "one local crashes mid-stream and restarts; session resume "
                "recovers every window exactly"
            ),
            detect_after_s=None,
            build=_crash_reconnect,
        ),
        ChaosScenario(
            name="dead-local",
            description=(
                "one local crashes and never returns; the root detects it "
                "and answers later windows degraded"
            ),
            detect_after_s=0.25,
            build=_dead_local,
        ),
        ChaosScenario(
            name="flaky-link",
            description=(
                "one local's root link drops twice; retransmits and "
                "reconnects recover every window"
            ),
            detect_after_s=None,
            build=_flaky_link,
        ),
        ChaosScenario(
            name="partition",
            description=(
                "every local is cut off from the root, then the partition "
                "heals; resume catches the backlog up"
            ),
            detect_after_s=None,
            build=_partition,
        ),
        ChaosScenario(
            name="kill-shard",
            description=(
                "one root shard dies mid-run; its windows fail over to "
                "the ring successor and replay from retained buffers"
            ),
            # No local dies here: the local detector stays in grace, so a
            # slow tick on a loaded host cannot degrade a healthy window.
            detect_after_s=None,
            build=_kill_shard,
            substrate="mesh",
            n_shards=2,
        ),
        ChaosScenario(
            name="kill-shard-with-relay",
            description=(
                "kill-shard behind a relay tier; relays re-send retained "
                "combined frames to the successor"
            ),
            detect_after_s=None,
            build=_kill_shard,
            substrate="mesh",
            n_shards=2,
            relay_fanin=3,
        ),
        ChaosScenario(
            name="driver-drop",
            description=(
                "the query driver's connection dies mid-run; it redials "
                "with its cursor and receives every result exactly once"
            ),
            detect_after_s=None,
            build=_driver_drop,
            substrate="query",
        ),
    )
}


def get_scenario(name: str) -> ChaosScenario:
    """The named scenario; an unknown name is a configuration error."""
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown chaos scenario {name!r}; "
            f"expected one of {sorted(SCENARIOS)}"
        )
    return scenario


def build_plan(
    name: str, *, seed: int, horizon_s: float, n_locals: int
) -> FaultPlan:
    """Instantiate the named scenario into a concrete plan."""
    scenario = get_scenario(name)
    rng = random.Random(f"{name}:{seed}")
    events = scenario.build(rng, horizon_s, n_locals)
    return FaultPlan(seed=seed, horizon_s=horizon_s, events=events)
