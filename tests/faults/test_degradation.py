"""Graceful degradation: a dead local degrades answers instead of hanging.

When the failure detector declares a local dead, the root must keep
answering from the survivors — marking each affected window with a
completeness fraction below 1.0 — rather than retrying forever or losing
the window.  Checked on both substrates.
"""

import contextlib
import functools
import signal

from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.core.reliability import ReliabilityConfig
from repro.faults.plan import ToleranceConfig
from repro.faults.runner import run_chaos
from repro.faults.scenarios import SCENARIOS, build_plan
from repro.faults.simulate import compile_plan
from repro.mesh.config import ClusterConfig
from repro.network.topology import TopologyConfig
from repro.bench.generator import GeneratorConfig, workload

SEED = 7
N_LOCALS = 2


@contextlib.contextmanager
def hard_timeout(seconds: int):
    def on_alarm(signum, frame):
        raise TimeoutError(f"degradation test exceeded {seconds}s wall clock")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@functools.lru_cache(maxsize=1)
def _sim_outcomes():
    """A dead-local plan compiled straight onto the simulator."""
    plan = build_plan(
        "dead-local", seed=SEED, horizon_s=3.0, n_locals=N_LOCALS
    )
    tolerance = ToleranceConfig()
    engine = DemaEngine(
        QuantileQuery(q=0.5, gamma=64),
        TopologyConfig(n_local_nodes=N_LOCALS),
        reliability=tolerance.reliability,
        degrade_after_retries=True,
    )
    applied = compile_plan(
        plan,
        engine.simulator,
        root=engine.root,
        detect_after_s=SCENARIOS["dead-local"].detect_after_s,
    )
    streams = workload(
        list(range(1, N_LOCALS + 1)),
        GeneratorConfig(event_rate=150.0, duration_s=3.0, seed=SEED),
    )
    report = engine.run(streams)
    return plan, applied, engine.root, report.outcomes


class TestSimulatorDegradation:
    def test_compiled_schedule_matches_the_plan(self):
        plan, applied, _root, _outcomes = _sim_outcomes()
        assert applied == list(plan.described())

    def test_windows_before_the_crash_stay_exact(self):
        plan, _applied, _root, outcomes = _sim_outcomes()
        crash_ms = plan.schedule()[0].at_s * 1000.0
        before = [o for o in outcomes if o.window.end <= crash_ms]
        assert before
        for outcome in before:
            assert outcome.completeness == 1.0
            assert not outcome.is_degraded

    def test_windows_after_the_crash_are_degraded_not_lost(self):
        plan, _applied, root, outcomes = _sim_outcomes()
        crash_ms = plan.schedule()[0].at_s * 1000.0
        after = [o for o in outcomes if o.window.start >= crash_ms]
        assert after
        for outcome in after:
            assert outcome.value is not None
            assert outcome.is_degraded
            # One of two locals answered.
            assert outcome.completeness == 0.5
        assert root.deaths_declared == 1
        assert root.aborted_windows == 0


@functools.lru_cache(maxsize=1)
def _live_report():
    with hard_timeout(120):
        return run_chaos(
            "dead-local",
            ClusterConfig(
                n_locals=N_LOCALS,
                streams_per_local=2,
                query=QuantileQuery(q=0.5, gamma=64),
                time_scale=0.3,
                timeout_s=120.0,
            ),
            GeneratorConfig(
                event_rate=300.0 / N_LOCALS, duration_s=3.0, seed=SEED
            ),
            mode="live",
        )


class TestLiveDegradation:
    def test_no_window_is_lost_or_wrong(self):
        report = _live_report()
        assert report.lost == 0
        assert report.mismatched == 0
        assert report.windows >= 3

    def test_detector_fired_and_degraded_the_tail(self):
        report = _live_report()
        assert report.locals_declared_dead == 1
        assert report.degraded >= 1
        assert report.reconnects == 0


class TestDegradationRequiresOptIn:
    def test_without_degrade_flag_windows_abort_instead(self):
        """degrade_after_retries=False keeps the strict abort behaviour."""
        plan = build_plan(
            "dead-local", seed=SEED, horizon_s=3.0, n_locals=N_LOCALS
        )
        engine = DemaEngine(
            QuantileQuery(q=0.5, gamma=64),
            TopologyConfig(n_local_nodes=N_LOCALS),
            reliability=ReliabilityConfig(timeout_s=0.05, max_retries=3),
            degrade_after_retries=False,
        )
        compile_plan(plan, engine.simulator, root=engine.root)
        streams = workload(
            list(range(1, N_LOCALS + 1)),
            GeneratorConfig(event_rate=150.0, duration_s=3.0, seed=SEED),
        )
        report = engine.run(streams)
        # Without detection + degradation the crashed local's windows
        # exhaust their retries and abort.
        assert engine.root.aborted_windows >= 1
        degraded = [o for o in report.outcomes if o.is_degraded]
        assert not degraded
