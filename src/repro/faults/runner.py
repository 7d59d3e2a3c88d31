"""End-to-end chaos runs: a named scenario on the live cluster, graded.

:func:`run_chaos` generates a seeded workload, computes ground truth (the
exact centralized quantile of every window the cluster serves,
:func:`repro.testing.oracle`), then runs the *same* workload under the
scenario's fault plan — handed to the one live cluster driver as
``ClusterConfig.faults``, on whatever topology the caller's config
names — and classifies every ground-truth window with the one grader,
:func:`repro.testing.grade`:

``recovered``
    Answered with completeness 1.0 and a value bit-identical to the
    exact centralized quantile (retransmits, reconnects and session
    resume hid the fault entirely).
``degraded``
    Answered from a strict subset of the locals (completeness < 1.0)
    because the failure detector declared someone dead.
``lost``
    No answer at all — the window was aborted or the run gave up on it.
``mismatch``
    A wrong value, size or rank at full completeness, or a second answer;
    this is never expected and always indicates a protocol bug.

A run whose fault never took effect tested nothing, whatever its grades:
a ``kill_shard`` that left 0 shard failovers (the run ended before the
victim answered another window) is named in :attr:`ChaosReport.unfired`,
left out of :attr:`ChaosReport.applied`, and :func:`run_chaos` raises
:class:`UnfiredFaultError` with the report.

This module imports the live runtime, so :mod:`repro.faults` loads it
lazily; plan building stays importable without asyncio machinery.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.bench.generator import GeneratorConfig, workload
from repro.errors import ReproError
from repro.faults.plan import FaultPlan, ToleranceConfig, describe_event
from repro.faults.scenarios import build_plan, get_scenario
from repro.mesh.cluster import served_windows
from repro.mesh.config import ClusterConfig
from repro.obs.tracer import NOOP_TRACER, Tracer
from repro.runtime.cluster import run_live
from repro.streaming.windows import Window
from repro.testing import grade, oracle

__all__ = ["ChaosReport", "UnfiredFaultError", "run_chaos"]

#: Detector grace when the scenario declares no detection threshold: long
#: enough that nothing is ever declared dead within a test-scale run.
_NO_DETECT_GRACE_S = 3600.0


@dataclass
class ChaosReport:
    """One graded chaos run."""

    scenario: str
    seed: int
    plan: FaultPlan
    #: Canonical fault-event strings actually applied, in order; a fault
    #: named in :attr:`unfired` is not among them.
    applied: list[str]
    #: Ground-truth window count (windows holding an eligible event).
    windows: int
    #: Per-window grade: recovered / degraded / lost / mismatch.
    classes: dict[Window, str] = field(default_factory=dict)
    reconnects: int = 0
    heartbeat_misses: int = 0
    locals_declared_dead: int = 0
    wall_seconds: float = 0.0
    #: With telemetry: the run report's telemetry section (bound port,
    #: flight-recorder path, traced span count).
    telemetry: dict = field(default_factory=dict)
    #: Deployment shape and failover accounting.
    shards: int = 1
    relay_fanin: int = 0
    shard_failovers: int = 0
    windows_adopted: int = 0
    relay_frames_replayed: int = 0
    #: Query scenarios: driver connections re-established mid-run.
    driver_reconnects: int = 0
    #: Answers per grade, as the grader counted them; query scenarios grade
    #: (query, window) pairs and leave :attr:`classes` empty.
    class_counts: "Counter[str]" = field(default_factory=Counter)
    #: Planned faults that never took effect: each ``kill_shard`` of a run
    #: that ended with 0 shard failovers.
    unfired: list[str] = field(default_factory=list)

    @property
    def recovered(self) -> int:
        return self.class_counts["recovered"]

    @property
    def degraded(self) -> int:
        return self.class_counts["degraded"]

    @property
    def lost(self) -> int:
        return self.class_counts["lost"]

    @property
    def mismatched(self) -> int:
        return self.class_counts["mismatch"]


class UnfiredFaultError(ReproError):
    """A chaos run ended before its planned fault took effect; ``report``
    is the run's report, :attr:`ChaosReport.unfired` naming the fault."""

    report: ChaosReport


def run_chaos(
    scenario_name: str,
    config: ClusterConfig,
    generator: GeneratorConfig,
    *,
    tracer: Tracer = NOOP_TRACER,
) -> ChaosReport:
    """Run one named scenario and grade every window against ground truth.

    Args:
        scenario_name: A key of :data:`~repro.faults.scenarios.SCENARIOS`.
        config: The cluster to run it on — topology, transport, pacing,
            query (a fixed γ: adaptive γ would break bit-equality),
            deadline and telemetry.  The scenario's fault plan, survival
            policy and relay flush deadline replace the config's own; the
            ``kill-shard`` scenarios replay unpaced and ``driver-drop``
            at least at ``time_scale`` 0.05.  Fault targets are drawn from
            its locals (its shards for the ``kill-shard`` scenarios).
        generator: Each local's workload; its ``seed`` also seeds the
            scenario's fault timings and its ``duration_s`` is the plan
            horizon.
        tracer: Observability hooks for the faulted run.

    Raises:
        UnfiredFaultError: If a ``kill_shard`` never fired.
    """
    scenario = get_scenario(scenario_name)
    kills_shard = scenario.substrate == "mesh"
    seed = generator.seed
    plan = build_plan(
        scenario_name, seed=seed, horizon_s=generator.duration_s,
        n_locals=config.n_shards if kills_shard else config.n_locals,
    )
    if scenario.substrate == "query":
        from repro.queries.runner import run_query_scenario

        # Grades per (query, window) pair against the per-query oracle:
        # ``lost`` pairs never arrived, ``mismatch`` covers wrong values
        # and duplicate deliveries (exactly-once failing either way).
        started = time.monotonic()
        qreport = run_query_scenario(
            replace(config, time_scale=max(config.time_scale, 0.05)),
            generator,
            driver_drop=True,
        )
        return ChaosReport(
            scenario=scenario_name,
            seed=seed,
            plan=plan,
            applied=list(qreport.live.fault_events),
            windows=sum(qreport.classes.values()),
            class_counts=Counter(qreport.classes),
            wall_seconds=time.monotonic() - started,
            driver_reconnects=qreport.driver_reconnects,
        )

    detect = scenario.detect_after_s
    #: A kill pinned to a protocol point needs windows in flight at that
    #: point, so shard kills replay unpaced; everything else is paced so
    #: the wall-clock schedule lands mid-stream.
    pace = 0.0 if kills_shard else config.time_scale
    config = replace(
        config,
        time_scale=pace,
        relay_flush_s=0.1,
        faults=plan,
        tolerance=ToleranceConfig(
            declare_dead_after_s=(
                _NO_DETECT_GRACE_S
                if detect is None
                else max(0.15, detect * pace)
            )
        ),
    )
    streams = workload(list(range(1, config.n_locals + 1)), generator)
    events, starts = served_windows(streams, config)
    (truth,) = oracle(events, starts, config.query.window_length_ms, [config.query.q])

    started = time.monotonic()
    live = run_live(config, streams, tracer=tracer)
    graded = grade(truth, live.outcomes)
    unfired = [
        describe_event(event) for event in plan.events
        if event.kind == "kill_shard" and not live.shard_failovers
    ]
    report = ChaosReport(
        scenario=scenario_name, seed=seed, plan=plan,
        applied=[line for line in live.fault_events if line not in unfired],
        windows=len(truth),
        classes={window: verdict for window, verdict, _ in graded},
        class_counts=Counter(verdict for _, verdict, _ in graded),
        wall_seconds=time.monotonic() - started,
        reconnects=live.reconnects,
        heartbeat_misses=live.heartbeat_misses,
        locals_declared_dead=live.locals_declared_dead,
        telemetry=live.telemetry,
        shards=config.n_shards,
        relay_fanin=config.relay_fanin,
        shard_failovers=live.shard_failovers,
        windows_adopted=live.windows_adopted,
        relay_frames_replayed=live.relay_frames_replayed,
        unfired=unfired,
    )
    if unfired:
        error = UnfiredFaultError(
            f"{', '.join(unfired)} never fired: 0 shard failovers "
            "(the run ended before the victim answered another window; a "
            "longer duration gives it one)"
        )
        error.report = report
        raise error
    return report
