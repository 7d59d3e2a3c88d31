"""Benchmark substrate: workload generation, measurement harness, reporting.

The paper's generators replay the DEBS 2013 soccer dataset with two knobs —
*scale rate* (multiplies values, shifting per-node distributions) and *event
rate* (drives local window sizes).  :mod:`repro.bench.generator` provides a
synthetic stand-in with exactly those knobs; :mod:`repro.bench.harness`
implements the paper's metrics (maximum sustainable throughput, latency,
network cost, accuracy); :mod:`repro.bench.runner` regenerates every figure
of the evaluation section and renders the tables recorded in EXPERIMENTS.md.
"""

from repro.bench.generator import GeneratorConfig, SensorStreamGenerator, workload
from repro.bench.workloads import (
    bench_topology,
    EXPERIMENTS,
    ExperimentSpec,
)
from repro.bench.harness import (
    ThroughputResult,
    measure_latency,
    run_workload,
    sustainable_throughput,
)
from repro.bench.accuracy import accuracy_vs_ground_truth, mean_percentage_error
from repro.bench.charts import bar_chart, series_chart, sparkline
from repro.bench.model import SystemModel
from repro.bench.sweep import SweepSpec, run_sweep

__all__ = [
    "bar_chart",
    "series_chart",
    "sparkline",
    "SystemModel",
    "SweepSpec",
    "run_sweep",
    "GeneratorConfig",
    "SensorStreamGenerator",
    "workload",
    "bench_topology",
    "EXPERIMENTS",
    "ExperimentSpec",
    "ThroughputResult",
    "sustainable_throughput",
    "measure_latency",
    "run_workload",
    "accuracy_vs_ground_truth",
    "mean_percentage_error",
]
