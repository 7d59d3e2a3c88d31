"""Acceptance: scripted crash + restart mid-stream, every window recovered.

These are the headline robustness tests from the fault-injection issue: a
live in-memory cluster runs a seeded workload while the fault driver kills
a local server mid-stream and restarts it; reconnect + session resume must
recover *every* window bit-identically to the fault-free run.  A SIGALRM
hard timeout turns any hang into a failure (the container has no
pytest-timeout), and everything is seeded, so the test is deterministic.
"""

import contextlib
import functools
import signal

from repro.bench.generator import GeneratorConfig
from repro.core.query import QuantileQuery
from repro.faults.runner import run_chaos
from repro.mesh.config import ClusterConfig

SEED = 7
CONFIG = ClusterConfig(
    n_locals=2,
    streams_per_local=2,
    query=QuantileQuery(q=0.5, gamma=64),
    transport="memory",
    time_scale=0.3,
    timeout_s=120.0,
)
GENERATOR = GeneratorConfig(event_rate=150.0, duration_s=3.0, seed=SEED)


@contextlib.contextmanager
def hard_timeout(seconds: int):
    def on_alarm(signum, frame):
        raise TimeoutError(f"chaos test exceeded {seconds}s wall clock")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@functools.lru_cache(maxsize=None)
def _run(scenario: str):
    with hard_timeout(120):
        return run_chaos(scenario, CONFIG, GENERATOR)


class TestCrashReconnectLive:
    def test_every_window_recovered_exactly(self):
        report = _run("crash-reconnect")
        assert report.windows >= 3
        assert report.recovered == report.windows
        assert report.degraded == 0
        assert report.lost == 0
        assert report.mismatched == 0

    def test_the_crash_actually_happened(self):
        report = _run("crash-reconnect")
        kinds = [line.split()[0] for line in report.applied]
        assert kinds == ["crash", "restart"]
        assert report.reconnects >= 1
        assert report.locals_declared_dead == 0

    def test_applied_schedule_matches_the_plan(self):
        report = _run("crash-reconnect")
        assert report.applied == list(report.plan.described())


class TestOtherScenariosLive:
    def test_flaky_link_recovers_through_reconnect(self):
        report = _run("flaky-link")
        assert report.recovered == report.windows
        assert report.lost == 0
        assert report.mismatched == 0
        assert report.reconnects >= 1

    def test_partition_heals_and_catches_up(self):
        report = _run("partition")
        assert report.recovered == report.windows
        assert report.lost == 0
        assert report.mismatched == 0
        # Every local was cut and had to redial after the heal.
        assert report.reconnects >= CONFIG.n_locals
