"""Named, traced scenarios for ``python -m repro trace``.

Each scenario deploys a small but complete Dema run with a
:class:`~repro.obs.tracer.RecordingTracer` attached, so the CLI can emit a
trace without the user writing harness code.  Scenarios are deliberately
tiny — a handful of windows on two or three local nodes — because their
purpose is lifecycle inspection, not measurement; the benchmark harness
remains the tool for figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.obs.tracer import RecordingTracer

__all__ = ["ScenarioResult", "SCENARIOS", "run_scenario"]


@dataclass
class ScenarioResult:
    """A completed traced run, ready for export and reporting."""

    name: str
    description: str
    tracer: RecordingTracer
    report: object  # RunReport; typed loosely to keep imports light


def _quickstart(tracer: RecordingTracer, seed: int):
    """Two local nodes, fixed γ, four tumbling windows of generated data."""
    from repro.bench.generator import GeneratorConfig, workload
    from repro.core.engine import DemaEngine
    from repro.core.query import QuantileQuery
    from repro.network.topology import TopologyConfig

    query = QuantileQuery(q=0.5, gamma=16)
    engine = DemaEngine(
        query, TopologyConfig(n_local_nodes=2), tracer=tracer
    )
    streams = workload(
        [1, 2],
        GeneratorConfig(event_rate=1_000.0, duration_s=4.0, seed=seed),
    )
    return engine.run(streams)


def _adaptive(tracer: RecordingTracer, seed: int):
    """Adaptive γ on three locals: watch GammaUpdate traffic appear."""
    from repro.bench.generator import GeneratorConfig, workload
    from repro.core.engine import DemaEngine
    from repro.core.query import QuantileQuery
    from repro.network.topology import TopologyConfig

    query = QuantileQuery(q=0.5, gamma=4, adaptive=True)
    engine = DemaEngine(
        query, TopologyConfig(n_local_nodes=3), tracer=tracer
    )
    streams = workload(
        [1, 2, 3],
        GeneratorConfig(event_rate=800.0, duration_s=5.0, seed=seed),
    )
    return engine.run(streams)


def _lossy(tracer: RecordingTracer, seed: int):
    """Lossy links + reliability: retransmits and LOST messages on the
    timeline."""
    from repro.bench.generator import GeneratorConfig, workload
    from repro.core.engine import DemaEngine
    from repro.core.query import QuantileQuery
    from repro.core.reliability import ReliabilityConfig
    from repro.network.topology import TopologyConfig

    query = QuantileQuery(q=0.5, gamma=8)
    engine = DemaEngine(
        query,
        TopologyConfig(n_local_nodes=2, loss_rate=0.25, loss_seed=seed),
        reliability=ReliabilityConfig(timeout_s=0.05, max_retries=20),
        tracer=tracer,
    )
    streams = workload(
        [1, 2],
        GeneratorConfig(event_rate=500.0, duration_s=3.0, seed=seed),
    )
    return engine.run(streams)


def _sensors(tracer: RecordingTracer, seed: int):
    """Full three-tier deployment: sensor → local → root, every hop paid."""
    from repro.bench.generator import GeneratorConfig, workload
    from repro.core.engine import DemaEngine
    from repro.core.query import QuantileQuery
    from repro.network.topology import TopologyConfig

    query = QuantileQuery(q=0.5, gamma=8)
    engine = DemaEngine(
        query,
        TopologyConfig(n_local_nodes=2, streams_per_local=2),
        tracer=tracer,
    )
    streams = workload(
        [1, 2],
        GeneratorConfig(event_rate=600.0, duration_s=3.0, seed=seed),
    )
    return engine.run_via_sensors(streams)


#: Scenario name → (description, runner).
SCENARIOS: dict[str, tuple[str, Callable]] = {
    "quickstart": (
        "2 local nodes, fixed γ=16, 4 windows of 1 kHz data", _quickstart
    ),
    "adaptive": (
        "3 local nodes, adaptive γ from 4, 5 windows", _adaptive
    ),
    "lossy": (
        "25% loss with reliability retries, 2 locals, 3 windows", _lossy
    ),
    "sensors": (
        "three-tier topology: 2 sensors per local, 2 locals", _sensors
    ),
}


def run_scenario(name: str, *, seed: int = 42) -> ScenarioResult:
    """Run one named scenario under a fresh recording tracer.

    Raises:
        ConfigurationError: On an unknown scenario name.
    """
    try:
        description, runner = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {known}"
        ) from None
    tracer = RecordingTracer()
    report = runner(tracer, seed)
    return ScenarioResult(
        name=name, description=description, tracer=tracer, report=report
    )
