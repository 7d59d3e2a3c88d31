"""The seven workloads: what each one generates, runs and grades.

Every workload drives the system **from outside, through its public
entry points** (``run_live``, ``run_mesh``, ``run_workload``), in one
process, on one asyncio loop and one thread.  ``--seed`` is the only input
to generation; the system only ever sees the generated streams.

A workload object is used in this order: :meth:`Workload.generate` (as
often as set-up is repeated), :meth:`Workload.probe` (one cluster
start-up on a one-event-per-local stream), :meth:`Workload.warmup`, then
:meth:`Workload.run` once per timed rep and :meth:`Workload.grade` over
the reps at the end — grading is the benchmark's cost, not the system's,
so it stays out of every timed region and out of ``setup_s``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace

# The generator imports scipy lazily on first use; importing it here
# charges it to the interpreter-and-imports part of ``setup_s`` once,
# instead of to whichever generation pass happens to run first.
import scipy.signal  # noqa: F401
from repro.bench.generator import GeneratorConfig, workload, workload_columns
from repro.bench.harness import run_workload
from repro.bench.workloads import bench_topology
from repro.core.query import QuantileQuery
from repro.mesh import MeshConfig, run_mesh
from repro.queries.client import QueryClient
from repro.queries.runner import build_specs
from repro.runtime.cluster import LiveClusterConfig, run_live

from perfbench.oracle import (
    Grade,
    grade_queries,
    grade_windows,
    query_truth,
    window_truth,
)

__all__ = [
    "Rep",
    "Workload",
    "WORKLOAD_NAMES",
    "make_workload",
    "EXACT_SYSTEMS",
    "SIM_SYSTEMS",
]

#: Links that carry raw events from the sensors into the edge; every
#: other link is "uplink" — the paper's network cost.
_INGEST_LAYER = "stream_local"

#: Simulator systems of ``sim-paper``; the exact ones are graded bit for
#: bit, t-digest's accuracy is reported beside them.
SIM_SYSTEMS = ("dema", "scotty", "desis", "tdigest")
EXACT_SYSTEMS = ("dema", "scotty", "desis")

_DRIVER_CLIENT_ID = 9001


@dataclass
class Rep:
    """What one call of the system under test returned."""

    wall_s: float
    events: int
    uplink_bytes: int
    #: Seal-to-result samples in seconds: one per answered window, or —
    #: on the simulator, which has no live seal — the wall-clock seconds
    #: this rep spent per window result.
    latency_s: list
    #: What :meth:`Workload.grade` compares with the oracle.
    answers: object
    #: The system's own report, for the traced run's counters.
    report: object = None


def _timed(call):
    """``(result, wall seconds)`` of ``call()``, collected garbage first.

    The collector stays *enabled* during the call: the system runs with
    it on, and switching it off moves ``flat-coarse-gamma`` by a quarter.
    """
    gc.collect()
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def _live_rep(report, wall: float, answers=None) -> Rep:
    """A :class:`Rep` from a ``LiveRunReport`` / ``MeshRunReport``."""
    return Rep(
        wall_s=wall,
        events=report.events_sent,
        uplink_bytes=sum(
            count for layer, count in report.bytes_by_layer.items()
            if layer != _INGEST_LAYER
        ),
        latency_s=list(report.seal_to_result.samples),
        answers=report.outcomes if answers is None else answers,
        report=report,
    )


def _one_event_each(streams) -> dict:
    """The start-up probe's input: every local's first event only."""
    return {local: share[:1] for local, share in streams.items()}


class Workload:
    """Base: the knobs every workload shares and the rep budget."""

    name = ""
    #: Fewest and most timed reps a run takes, whatever ``--seconds`` is.
    min_reps = 3
    max_reps = 7
    #: Cluster start-ups timed per set-up pass.
    probes_per_setup = 4
    #: Whether throughput is scaled to reference machine speed.  Off only
    #: for the open-loop workload, whose wall time is set by the replay
    #: schedule and not by how fast the machine is.
    scale_throughput = True

    def __init__(self) -> None:
        self.seed = 42
        self.scale = 1.0
        self.seconds = 10.0
        self.streams = None
        self.events = 0

    def configure(self, seed: int, seconds: float, scale: float) -> None:
        self.seed, self.seconds, self.scale = seed, seconds, scale

    def generate(self) -> None:
        """Columnar streams for locals ``1..n_locals`` from the seed."""
        self.streams = workload_columns(
            range(1, self.n_locals + 1),
            GeneratorConfig(
                event_rate=self.rate_per_local * self.scale,
                duration_s=self.duration_s,
                seed=self.seed,
            ),
        )
        self.events = sum(len(s) for s in self.streams.values())

    def probe(self) -> "float | None":
        """Wall seconds of one cluster start-up + teardown, if any."""
        return None

    def warmup(self) -> Rep:
        return self.run()

    def run(self) -> Rep:  # pragma: no cover - interface
        raise NotImplementedError

    def grade(self, reps: "list[Rep]") -> Grade:
        """One operation per oracle window per rep."""
        truth = window_truth(self.streams, self.window_ms, self.q)
        grade = Grade()
        for index, rep in enumerate(reps):
            grade.add(grade_windows(
                truth, rep.answers, label=f"{self.name} rep {index}"
            ))
        return grade


class FlatWorkload(Workload):
    """``run_live`` on the flat cluster: 4 locals x 2 streams, q = 0.5."""

    n_locals = 4
    streams_per_local = 2
    rate_per_local = 50_000.0
    q = 0.5

    def __init__(self, name, *, gamma, transport, duration_s,
                 window_ms=1000, max_reps=7) -> None:
        super().__init__()
        self.name = name
        self.gamma, self.transport = gamma, transport
        self.duration_s, self.window_ms = duration_s, window_ms
        self.max_reps = max_reps

    @property
    def config(self) -> LiveClusterConfig:
        return LiveClusterConfig(
            n_locals=self.n_locals,
            streams_per_local=self.streams_per_local,
            query=QuantileQuery(
                q=self.q, gamma=self.gamma, window_length_ms=self.window_ms
            ),
            transport=self.transport,
            time_scale=0.0,
            timeout_s=170.0,
        )

    def probe(self) -> float:
        _, wall = _timed(
            lambda: run_live(self.config, _one_event_each(self.streams))
        )
        return wall

    def run_with(self, config: LiveClusterConfig) -> Rep:
        """One rep under ``config`` (the traced run swaps the transport)."""
        report, wall = _timed(lambda: run_live(config, self.streams))
        return _live_rep(report, wall)

    def run(self) -> Rep:
        return self.run_with(self.config)


class PacedWorkload(FlatWorkload):
    """``flat-paced``: the same cluster replayed in real time (open loop).

    One rep is one real-time replay of a two-second stream (40 windows
    of 50 ms) and ``--seconds`` sets how many reps there are.  Segments,
    not one long replay: on this machine the latency of a mostly idle
    process shifts by 20% for tens of seconds at a time, and only a
    calibration reading taken within a second or two of the windows it
    scales tracks that.
    """

    scale_throughput = False

    def configure(self, seed: int, seconds: float, scale: float) -> None:
        super().configure(seed, seconds, scale)
        self.duration_s = min(2.0, seconds / 3.0)
        self.min_reps = self.max_reps = max(3, round(seconds / self.duration_s))

    @property
    def config(self) -> LiveClusterConfig:
        return replace(super().config, time_scale=1.0)


class MeshWorkload(Workload):
    """``mesh-relay``: 16 locals, 2 root shards, fan-in-4 relays, tcp."""

    name = "mesh-relay"
    min_reps = 5
    max_reps = 5
    #: A mesh run over streams that end early in their first window takes
    #: ~1.03 s whatever its size (see the README's first findings), so
    #: the probe is taken once per pass, not four times.
    probes_per_setup = 1
    n_locals = 16
    n_shards = 2
    relay_fanin = 4
    gamma = 100
    window_ms = 1000
    q = 0.5
    rate_per_local = 6250.0
    duration_s = 6.0

    @property
    def config(self) -> MeshConfig:
        return MeshConfig(
            n_locals=self.n_locals,
            streams_per_local=1,
            n_shards=self.n_shards,
            relay_fanin=self.relay_fanin,
            query=QuantileQuery(
                q=self.q, gamma=self.gamma, window_length_ms=self.window_ms
            ),
            transport="tcp",
            timeout_s=170.0,
        )

    def probe(self) -> float:
        _, wall = _timed(
            lambda: run_mesh(self.config, _one_event_each(self.streams))
        )
        return wall

    def run(self) -> Rep:
        report, wall = _timed(lambda: run_mesh(self.config, self.streams))
        return _live_rep(report, wall)


class QueryWorkload(FlatWorkload):
    """``multi-query``: 16 registered queries served from one replay."""

    rate_per_local = 4000.0
    n_queries = 16
    n_keys = 3

    def __init__(self) -> None:
        super().__init__(
            "multi-query",
            gamma=100, transport="memory", duration_s=5.0, window_ms=500,
            max_reps=5,
        )
        # Reps take ~2.7 s and three of them left a 10% run-to-run spread.
        self.min_reps = 5
        self.specs = {
            index + 1: spec
            for index, spec in enumerate(build_specs(
                self.n_queries, self.n_keys,
                window_ms=self.window_ms, gamma=self.gamma,
            ))
        }

    async def _driver(self, context) -> dict:
        client = QueryClient(
            await context.dial(_DRIVER_CLIENT_ID), _DRIVER_CLIENT_ID
        )
        await client.start()
        try:
            for query_id, spec in self.specs.items():
                await client.register(query_id, spec)
            context.start_replay()
            expected = {
                query_id: len(spec.window_starts(
                    client.horizons[query_id], context.grid_end
                ))
                for query_id, spec in self.specs.items()
            }
            await client.wait_for(
                lambda c: all(
                    len(c.results.get(query_id, ())) >= count
                    for query_id, count in expected.items()
                ),
                timeout=170.0,
            )
            return {
                "results": {q: list(r) for q, r in client.results.items()},
                "horizons": dict(client.horizons),
                "grid_end": context.grid_end,
            }
        finally:
            await client.close()

    def run(self) -> Rep:
        report, wall = _timed(
            lambda: run_live(self.config, self.streams, driver=self._driver)
        )
        return _live_rep(report, wall, answers=report.queries)

    def grade(self, reps) -> Grade:
        """One operation per (query, window); the oracle runs once per
        distinct set of accepted horizons (one, without churn)."""
        events = [e for share in self.streams.values() for e in share]
        truths: dict = {}
        grade = Grade()
        for index, rep in enumerate(reps):
            served = rep.answers
            horizons = served.get("horizons", {})
            key = (tuple(sorted(horizons.items())), served.get("grid_end"))
            if key not in truths:
                truths[key] = query_truth(
                    events, self.specs, horizons, served.get("grid_end", 0)
                )
            grade.add(grade_queries(
                truths[key], served.get("results", {}),
                label=f"{self.name} rep {index}",
            ))
        return grade


class SimWorkload(Workload):
    """``sim-paper``: Dema and the paper's baselines on the simulator.

    One timed rep is one Dema run over object events; the exact
    baselines run once each in :meth:`warmup` so they can be graded, and
    all of them again in the traced run for their wall-clock rates.
    """

    name = "sim-paper"
    max_reps = 9
    n_locals = 4
    rate_per_local = 12_500.0
    duration_s = 4.0
    gamma = 100
    q = 0.5
    window_ms = 1000

    def __init__(self) -> None:
        super().__init__()
        #: Baseline system -> its latest report / the wall seconds of each
        #: of its runs so far.
        self.baseline_reports: dict = {}
        self.baseline_walls: dict = {}

    @property
    def query(self) -> QuantileQuery:
        return QuantileQuery(q=self.q, gamma=self.gamma)

    def generate(self) -> None:
        self.streams = workload(
            list(range(1, self.n_locals + 1)),
            GeneratorConfig(
                event_rate=self.rate_per_local * self.scale,
                duration_s=self.duration_s,
                seed=self.seed,
            ),
        )
        self.events = sum(len(s) for s in self.streams.values())

    def run_system(self, system: str):
        """``(report, wall seconds)`` of one system over the streams."""
        return _timed(lambda: run_workload(
            system, self.query, bench_topology(self.n_locals), self.streams
        ))

    def run_baselines(self, systems) -> None:
        """Run each named baseline once, keeping its report and wall."""
        for system in systems:
            report, wall = self.run_system(system)
            self.baseline_reports[system] = report
            self.baseline_walls.setdefault(system, []).append(wall)

    def warmup(self) -> Rep:
        self.run_baselines(EXACT_SYSTEMS[1:])
        return self.run()

    def run(self) -> Rep:
        report, wall = self.run_system("dema")
        return Rep(
            wall_s=wall,
            events=report.events_ingested,
            uplink_bytes=report.network.total_bytes,
            latency_s=[wall / len(report.outcomes)],
            answers=report.outcomes,
            report=report,
        )

    def grade(self, reps) -> Grade:
        """Dema's windows every rep, plus each exact baseline's once."""
        grade = super().grade(reps)
        truth = window_truth(self.streams, self.window_ms, self.q)
        for system in EXACT_SYSTEMS[1:]:
            grade.add(grade_windows(
                truth, self.baseline_reports[system].outcomes,
                label=f"{self.name} {system}",
            ))
        return grade


# Why each workload exists is recorded once, in BENCHMARK.json (and at
# length in perfbench/README.md); here are only the shapes.
_FACTORIES = {
    "flat-firehose": lambda: FlatWorkload(
        "flat-firehose", gamma=100, transport="tcp", duration_s=10.0),
    "flat-coarse-gamma": lambda: FlatWorkload(
        "flat-coarse-gamma", gamma=10_000, transport="memory",
        duration_s=5.0),
    "flat-fine-gamma": lambda: FlatWorkload(
        "flat-fine-gamma", gamma=10, transport="memory", duration_s=5.0,
        max_reps=5),
    "flat-paced": lambda: PacedWorkload(
        "flat-paced", gamma=100, transport="tcp", duration_s=2.0,
        window_ms=50),
    "mesh-relay": MeshWorkload,
    "multi-query": QueryWorkload,
    "sim-paper": SimWorkload,
}

#: The workloads, in the order the suite runs and reports them.
WORKLOAD_NAMES = tuple(_FACTORIES)


def make_workload(name: str) -> Workload:
    """A fresh workload object (they carry generated streams)."""
    return _FACTORIES[name]()
