"""Generic parameter sweeps over any system and metric.

A thin orchestration layer over the harness: pick a parameter (γ, node
count, event rate, quantile, loss rate), a value list, systems, and a
metric (throughput, network bytes, latency), and get back a tidy result
table with CSV export.  Exposed on the CLI as ``python -m repro sweep``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.core.query import QuantileQuery
from repro.bench.generator import GeneratorConfig, workload
from repro.bench.harness import capacity_estimate, measure_latency, run_workload
from repro.bench.reporting import format_table
from repro.bench.workloads import bench_topology

__all__ = ["SweepSpec", "SweepResult", "run_sweep"]

#: Parameters a sweep may vary.
PARAMETERS = ("gamma", "n_local_nodes", "event_rate", "q", "loss_rate")

#: Metrics a sweep may measure.
METRICS = ("throughput", "network_bytes", "latency_p50")


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one sweep.

    Attributes:
        parameter: Which knob to vary (one of :data:`PARAMETERS`).
        values: The values to sweep, in presentation order.
        metric: What to measure at each point (one of :data:`METRICS`).
        systems: Systems to measure, each producing one series.
        n_local_nodes: Fixed node count (unless swept).
        gamma: Fixed slice factor (unless swept).
        q: Fixed quantile (unless swept).
        event_rate: Fixed per-node event rate for workload-based metrics
            (unless swept).
        duration_s: Workload length for workload-based metrics.
        seed: Workload seed.
    """

    parameter: str
    values: tuple
    metric: str = "throughput"
    systems: tuple[str, ...] = ("dema",)
    n_local_nodes: int = 2
    gamma: int = 100
    q: float = 0.5
    event_rate: float = 2_000.0
    duration_s: float = 3.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.parameter not in PARAMETERS:
            raise ConfigurationError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"known: {PARAMETERS}"
            )
        if self.metric not in METRICS:
            raise ConfigurationError(
                f"unknown sweep metric {self.metric!r}; known: {METRICS}"
            )
        if not self.values:
            raise ConfigurationError("sweep needs at least one value")
        if not self.systems:
            raise ConfigurationError("sweep needs at least one system")


@dataclass
class SweepResult:
    """Measured series, one per system."""

    spec: SweepSpec
    series: dict[str, list[float]] = field(default_factory=dict)

    def to_csv(self) -> str:
        """Render as CSV with the swept parameter as the first column."""
        buffer = io.StringIO()
        buffer.write(
            ",".join([self.spec.parameter] + list(self.series)) + "\n"
        )
        for index, value in enumerate(self.spec.values):
            row = [str(value)] + [
                repr(self.series[system][index]) for system in self.series
            ]
            buffer.write(",".join(row) + "\n")
        return buffer.getvalue()

    def to_table(self) -> str:
        """Render as an aligned text table."""
        headers = [self.spec.parameter] + list(self.series)
        rows = [
            [str(value)]
            + [f"{self.series[system][index]:,.1f}" for system in self.series]
            for index, value in enumerate(self.spec.values)
        ]
        title = (
            f"{self.spec.metric} vs {self.spec.parameter} "
            f"({', '.join(self.series)})"
        )
        return format_table(headers, rows, title=title)


def _configure(spec: SweepSpec, value):
    """Resolve (query, topology, event_rate) for one sweep point."""
    gamma = spec.gamma
    q = spec.q
    n_nodes = spec.n_local_nodes
    event_rate = spec.event_rate
    loss_rate = 0.0
    if spec.parameter == "gamma":
        gamma = int(value)
    elif spec.parameter == "q":
        q = float(value)
    elif spec.parameter == "n_local_nodes":
        n_nodes = int(value)
    elif spec.parameter == "event_rate":
        event_rate = float(value)
    elif spec.parameter == "loss_rate":
        loss_rate = float(value)
    query = QuantileQuery(q=q, window_length_ms=1000, gamma=gamma)
    topology = replace(bench_topology(n_nodes), loss_rate=loss_rate)
    return query, topology, event_rate


def _measure(spec: SweepSpec, system: str, value) -> float:
    query, topology, event_rate = _configure(spec, value)
    if spec.metric == "throughput":
        return capacity_estimate(
            system, query, topology, seed=spec.seed
        ).aggregate_rate
    if spec.metric == "latency_p50":
        return measure_latency(
            system, query, topology, event_rate,
            n_windows=max(int(spec.duration_s), 2), seed=spec.seed,
        ).p50
    streams = workload(
        range(1, topology.n_local_nodes + 1),
        GeneratorConfig(
            event_rate=event_rate, duration_s=spec.duration_s, seed=spec.seed
        ),
    )
    report = run_workload(system, query, topology, streams)
    return float(report.network.total_bytes)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute every (system, value) point of the sweep."""
    result = SweepResult(spec=spec)
    for system in spec.systems:
        result.series[system] = [
            _measure(spec, system, value) for value in spec.values
        ]
    return result
