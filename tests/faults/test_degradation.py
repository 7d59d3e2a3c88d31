"""Graceful degradation: a dead local degrades answers instead of hanging.

When the failure detector declares a local dead, the root must keep
answering from the survivors — marking each affected window with a
completeness fraction below 1.0 — rather than retrying forever or losing
the window.  The root's degrade-after-retries step is unit-tested in
``tests/core/test_reliability_internals.py``.
"""

import contextlib
import functools
import signal

from repro.core.query import QuantileQuery
from repro.faults.runner import run_chaos
from repro.mesh.config import ClusterConfig
from repro.bench.generator import GeneratorConfig

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
