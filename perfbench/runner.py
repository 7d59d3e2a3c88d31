"""One workload, measured in one process: set-up, timed reps, grading.

:class:`WorkloadRun` is what both front ends drive.  The benchmark
contract's single-workload command lets it pace itself for ``--seconds``
(:func:`run_single`); the suite asks a ``--serve`` worker for one rep at
a time so it can interleave workloads round-robin (:func:`serve`).

What counts as what:

* ``setup_s`` — process start to the first timed rep: interpreter and
  imports (once), the median of :data:`SETUP_REPEATS` passes of workload
  generation plus start-up probes, and the discarded warm-up rep.
* a timed rep — one public call of the system, timed from outside,
  with the calibration kernel read immediately before and after it.
* grading — after the last rep, outside every timed region.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

from perfbench import calibrate
from perfbench.stats import percentile, summary
from perfbench.workloads import Rep, Workload, make_workload

__all__ = ["WorkloadRun", "run_single", "serve"]

#: Passes of (generate + start-up probes) whose median enters ``setup_s``.
SETUP_REPEATS = 3
#: A calibration reading this recent is reused instead of re-measured
#: (the reading after rep *i* is the reading before rep *i + 1*).
_CALIBRATION_FRESH_S = 0.25

_MIB = 1024.0 * 1024.0


class WorkloadRun:
    """Set-up, timed reps and grading of one workload in this process."""

    def __init__(self, name: str, *, seed: int, seconds: float,
                 scale: float = 1.0, reps: "int | None" = None,
                 process_started: "float | None" = None) -> None:
        self.workload: Workload = make_workload(name)
        self.workload.configure(seed, seconds, scale)
        self.seconds = seconds
        #: Exact rep count (smoke runs, tests); ``None`` paces by seconds.
        self.fixed_reps = reps
        #: ``perf_counter`` stamp of the process's creation (``setup_s``
        #: counts from there); callers without one count from now.
        self._entered = (
            time.perf_counter() if process_started is None
            else process_started
        )
        self._calibrations: list[float] = []
        self._last_calibration = (0.0, 0.0)  # (perf_counter stamp, ms)
        self.reps: list[Rep] = []
        self.factors: list[float] = []
        self.generate_s: list[float] = []
        self.startup_ms: list[float] = []
        self.warmup: "Rep | None" = None
        self.setup_s = 0.0
        self.raw_setup_s = 0.0
        #: Seconds spent in timed reps so far, and in the latest one
        #: (calibration included) — what ``--seconds`` is a budget for.
        self._spent_s = 0.0
        self._rep_cost_s = 0.0

    # -- calibration ----------------------------------------------------

    def _calibrate(self, *, reuse: bool) -> float:
        """A kernel reading; ``reuse`` accepts one taken a moment ago."""
        stamp, value = self._last_calibration
        if not reuse or time.perf_counter() - stamp > _CALIBRATION_FRESH_S:
            value = calibrate.measure_ms()
            self._calibrations.append(value)
        self._last_calibration = (time.perf_counter(), value)
        return value

    def _around(self, call):
        """``(result, speed factor)`` with the kernel read on both sides."""
        before = self._calibrate(reuse=True)
        result = call()
        after = self._calibrate(reuse=False)
        return result, calibrate.speed_factor(before, after)

    # -- phases ---------------------------------------------------------

    def setup(self) -> None:
        """Generation and probes (repeated), then the warm-up rep."""
        workload = self.workload
        imports_done = time.perf_counter()
        passes = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.generate()
            self.generate_s.append(time.perf_counter() - start)
            for _ in range(workload.probes_per_setup):
                wall = workload.probe()
                if wall is not None:
                    self.startup_ms.append(wall * 1000.0)
            passes.append(time.perf_counter() - start)
        start = time.perf_counter()
        self.warmup, factor = self._around(workload.warmup)
        warmup_s = time.perf_counter() - start
        raw = (imports_done - self._entered) + statistics.median(passes) \
            + warmup_s
        self.raw_setup_s = raw
        self.setup_s = raw * factor
        self._rep_cost_s = warmup_s

    def want_more(self) -> bool:
        """Whether another timed rep fits the budget."""
        done = len(self.reps)
        if self.fixed_reps is not None:
            return done < self.fixed_reps
        if done < self.workload.min_reps:
            return True
        if done >= self.workload.max_reps:
            return False
        return self._spent_s + self._rep_cost_s <= self.seconds

    def rep(self) -> Rep:
        """One timed rep, calibrated on both sides."""
        start = time.perf_counter()
        rep, factor = self._around(self.workload.run)
        self._rep_cost_s = time.perf_counter() - start
        self._spent_s += self._rep_cost_s
        self.reps.append(rep)
        self.factors.append(factor)
        return rep

    # -- results --------------------------------------------------------

    def throughput_samples(self, *, scaled: bool) -> "list[float]":
        """Events per second of each timed rep."""
        use = scaled and self.workload.scale_throughput
        return [
            rep.events / (rep.wall_s * (factor if use else 1.0))
            for rep, factor in zip(self.reps, self.factors)
        ]

    def latency_samples_ms(self, fraction: float, *,
                           scaled: bool) -> "list[float]":
        """The ``fraction`` percentile of each timed rep's seal-to-result
        samples, in milliseconds."""
        return [
            percentile(rep.latency_s, fraction) * 1000.0
            * (factor if scaled else 1.0)
            for rep, factor in zip(self.reps, self.factors)
        ]

    def finish(self) -> dict:
        """Grade every rep and fold the samples into the result record.

        Every end-to-end metric is a ``stats.summary`` of its per-rep
        samples plus ``value``, the headline: the median over reps (for
        the two latency metrics, of the per-rep percentile).
        """
        workload = self.workload
        grade = workload.grade(self.reps)
        uplink = [rep.uplink_bytes / rep.events for rep in self.reps]
        if len(set(uplink)) > 1:
            grade.total_ops += 1
            grade.fail(
                f"{workload.name}: uplink bytes/event differ between reps "
                f"of the same streams: {sorted(set(uplink))}"
            )
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / _MIB
        )

        def metric(samples) -> dict:
            record = summary(samples)
            record["value"] = record["median"]
            return record

        return {
            "workload": workload.name,
            "seed": workload.seed,
            "events_per_rep": self.reps[0].events,
            "total_ops": grade.total_ops,
            "failed_ops": grade.failed_ops,
            "failures": grade.notes,
            "end_to_end": {
                "throughput_eps": metric(
                    self.throughput_samples(scaled=True)),
                "seal_to_result_p50_ms": metric(
                    self.latency_samples_ms(0.50, scaled=True)),
                "seal_to_result_p95_ms": metric(
                    self.latency_samples_ms(0.95, scaled=True)),
                "uplink_bytes_per_event": metric(uplink[:1]),
                "peak_rss_mb": metric([peak_rss_mb]),
                "setup_s": metric([self.setup_s]),
            },
            "machine": {
                "calibration_ms": summary(self._calibrations),
                "raw_throughput_eps": summary(
                    self.throughput_samples(scaled=False)),
                "raw_seal_to_result_p50_ms": summary(
                    self.latency_samples_ms(0.50, scaled=False)),
                "raw_setup_s": self.raw_setup_s,
            },
            "setup": {
                "generate_s": self.generate_s,
                "startup_ms": self.startup_ms,
            },
        }


def run_single(name: str, *, seed: int, seconds: float, scale: float = 1.0,
               reps: "int | None" = None,
               process_started: "float | None" = None) -> dict:
    """Set up, measure for ``seconds``, grade; returns the result record."""
    run = WorkloadRun(name, seed=seed, seconds=seconds, scale=scale,
                      reps=reps, process_started=process_started)
    run.setup()
    while run.want_more():
        run.rep()
    return run.finish()


def serve(name: str, *, seed: int, seconds: float, scale: float = 1.0,
          reps: "int | None" = None,
          process_started: "float | None" = None) -> None:
    """Worker side of the suite: one JSON reply per command line on stdin.

    ``rep`` runs one timed rep and answers whether another fits the
    budget; ``finish`` grades and answers with the result record.
    """
    run = WorkloadRun(name, seed=seed, seconds=seconds, scale=scale,
                      reps=reps, process_started=process_started)
    run.setup()

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply({"ready": name, "more": run.want_more()})
    for line in sys.stdin:
        command = line.strip()
        if command == "rep":
            rep = run.rep()
            reply({"wall_s": rep.wall_s, "more": run.want_more()})
        elif command == "finish":
            reply({"result": run.finish()})
            return
