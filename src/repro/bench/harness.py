"""Measurement harness: sustainable throughput, latency, network cost.

Throughput follows Karimov et al.'s *maximum sustainable throughput*: the
highest ingestion rate a system can serve without falling behind.  In the
simulator "falling behind" is visible as per-window result latency that
drifts upward window over window; a rate is sustainable when latencies stay
bounded by a budget across a multi-window run.  The harness binary-searches
the rate, running each probe on a fresh deployment fed by the deterministic
generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import HarnessError
from repro.network.driver import MS_PER_SECOND
from repro.network.topology import TopologyConfig
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event
from repro.core.query import QuantileQuery
from repro.baselines.base import build_system
from repro.bench.generator import GeneratorConfig, workload

__all__ = [
    "ThroughputResult",
    "probe_rate",
    "sustainable_throughput",
    "capacity_estimate",
    "measure_latency",
    "run_workload",
]

#: A probe is sustainable when no window's latency exceeds this multiple of
#: the window length and latency does not keep growing across windows.
LATENCY_BUDGET_WINDOWS = 1.5

#: Windows simulated per probe; the first is warm-up.
PROBE_WINDOWS = 6


@dataclass(frozen=True, slots=True)
class ThroughputResult:
    """Outcome of a sustainable-throughput search."""

    system: str
    per_node_rate: float
    n_local_nodes: int
    probes: int

    @property
    def aggregate_rate(self) -> float:
        """Events per second across all local nodes — the paper's metric."""
        return self.per_node_rate * self.n_local_nodes


def _build_streams(
    rate: float,
    n_nodes: int,
    n_windows: int,
    *,
    seed: int,
    scale_rates: Mapping[int, float] | None,
) -> dict[int, EventColumns]:
    config = GeneratorConfig(
        event_rate=rate, duration_s=float(n_windows), seed=seed
    )
    return workload(
        range(1, n_nodes + 1), config, scale_rates=scale_rates
    )


def probe_rate(
    system: str,
    query: QuantileQuery,
    topology: TopologyConfig,
    rate: float,
    *,
    n_windows: int = PROBE_WINDOWS,
    seed: int = 42,
    scale_rates: Mapping[int, float] | None = None,
) -> tuple[bool, list[float]]:
    """Run one deployment at ``rate`` events/s/node; judge sustainability.

    Returns:
        ``(sustainable, per_window_latencies)`` with warm-up included in the
        latency list but excluded from the judgement.
    """
    streams = _build_streams(
        rate, topology.n_local_nodes, n_windows,
        seed=seed, scale_rates=scale_rates,
    )
    engine = build_system(system, query, topology)
    report = engine.run(streams)

    expected = n_windows * MS_PER_SECOND / query.window_length_ms
    if len(report.outcomes) < expected:
        return False, []

    latencies = [
        outcome.result_time - outcome.window.end / MS_PER_SECOND
        for outcome in sorted(report.outcomes, key=lambda o: o.window)
    ]
    steady = latencies[1:]
    budget = LATENCY_BUDGET_WINDOWS * query.window_length_ms / MS_PER_SECOND
    if max(steady) > budget:
        return False, latencies
    # Reject monotone drift even under the budget: the backlog would keep
    # growing on a longer run.
    drift = steady[-1] - steady[0]
    if len(steady) >= 3 and drift > 0.25 * budget and steady[-1] > steady[-2] > steady[-3]:
        return False, latencies
    return True, latencies


def sustainable_throughput(
    system: str,
    query: QuantileQuery,
    topology: TopologyConfig,
    *,
    rate_lo: float = 100.0,
    rate_hi: float = 50_000.0,
    iterations: int = 9,
    n_windows: int = PROBE_WINDOWS,
    seed: int = 42,
    scale_rates: Mapping[int, float] | None = None,
) -> ThroughputResult:
    """Binary-search the maximum sustainable per-node event rate.

    Raises:
        HarnessError: If even ``rate_lo`` is unsustainable.
    """
    ok, _ = probe_rate(
        system, query, topology, rate_lo,
        n_windows=n_windows, seed=seed, scale_rates=scale_rates,
    )
    if not ok:
        raise HarnessError(
            f"{system} cannot sustain even {rate_lo} events/s/node"
        )
    probes = 1
    lo, hi = rate_lo, rate_hi
    ok_hi, _ = probe_rate(
        system, query, topology, rate_hi,
        n_windows=n_windows, seed=seed, scale_rates=scale_rates,
    )
    probes += 1
    if ok_hi:
        lo = rate_hi
    else:
        for _ in range(iterations):
            mid = (lo + hi) / 2.0
            ok, _ = probe_rate(
                system, query, topology, mid,
                n_windows=n_windows, seed=seed, scale_rates=scale_rates,
            )
            probes += 1
            if ok:
                lo = mid
            else:
                hi = mid
    return ThroughputResult(
        system=system,
        per_node_rate=lo,
        n_local_nodes=topology.n_local_nodes,
        probes=probes,
    )


def measure_latency(
    system: str,
    query: QuantileQuery,
    topology: TopologyConfig,
    per_node_rate: float,
    *,
    n_windows: int = 10,
    seed: int = 42,
    scale_rates: Mapping[int, float] | None = None,
    tracer=None,
):
    """Latency statistics at a fixed rate (use ~90 % of the sustainable one)."""
    streams = _build_streams(
        per_node_rate, topology.n_local_nodes, n_windows,
        seed=seed, scale_rates=scale_rates,
    )
    engine = build_system(system, query, topology, tracer=tracer)
    report = engine.run(streams)
    return report.latency


def run_workload(
    system: str,
    query: QuantileQuery,
    topology: TopologyConfig,
    streams: Mapping[int, EventColumns | Sequence[Event]],
    *,
    tracer=None,
):
    """Run one deployment over explicit streams; returns the full report.

    Pass a :class:`~repro.obs.tracer.RecordingTracer` to capture the run's
    spans, messages and metrics alongside the report.
    """
    engine = build_system(system, query, topology, tracer=tracer)
    return engine.run(streams)


def capacity_estimate(
    system: str,
    query: QuantileQuery,
    topology: TopologyConfig,
    *,
    probe_per_node_rate: float = 1_000.0,
    n_windows: int = 4,
    refinements: int = 2,
    seed: int = 42,
    scale_rates: Mapping[int, float] | None = None,
) -> ThroughputResult:
    """Estimate sustainable throughput from CPU utilization at a probe rate.

    Runs a deployment at a probe rate, reads every node's accepted CPU
    work, and extrapolates: the sustainable per-node rate is roughly
    ``probe_rate / max_node_utilization``.  Because some costs are fixed per
    window rather than proportional to the rate (e.g. Dema's candidate
    transfer is ~``m·γ`` events regardless of window size), the estimate is
    refined by re-probing at each new estimate until it stabilizes — a
    fixed-point iteration that converges in 1–2 rounds.  A handful of runs
    instead of a binary search's ~10 makes large parameter sweeps (Fig. 7a's
    node scaling, Fig. 8b's γ sweep) tractable.
    """
    duration = float(n_windows) * query.window_length_ms / MS_PER_SECOND

    def utilization_at(rate: float) -> float:
        streams = _build_streams(
            rate, topology.n_local_nodes, n_windows,
            seed=seed, scale_rates=scale_rates,
        )
        engine = build_system(system, query, topology)
        engine.run(streams)
        utilization = 0.0
        for node in engine.simulator.nodes.values():
            budget = node.cpu.ops_per_second * duration
            utilization = max(utilization, node.cpu.total_ops / budget)
        if utilization <= 0:
            raise HarnessError(
                f"{system} reported zero CPU work; cannot extrapolate"
            )
        return utilization

    probes = 0
    rate = probe_per_node_rate
    estimate = rate / utilization_at(rate)
    probes += 1
    for _ in range(refinements):
        rate = estimate
        new_estimate = rate / utilization_at(rate)
        probes += 1
        if abs(new_estimate - estimate) <= 0.02 * estimate:
            estimate = new_estimate
            break
        estimate = new_estimate
    return ThroughputResult(
        system=system,
        per_node_rate=estimate,
        n_local_nodes=topology.n_local_nodes,
        probes=probes,
    )
