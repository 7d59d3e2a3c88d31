"""The traced run: where the per-layer metrics come from.

Separate from, and after, the untraced measurement — end-to-end metrics
never come from here.  One traced run of a workload is:

1. the usual set-up and a few untraced reference reps (the end-to-end
   ns/event the stage budget is compared with, and the ``machine.*``
   readings);
2. the **stage replay** (``stages``): the same streams through each
   layer's public functions, a span around every call, answers checked
   against the oracle;
3. the transport loopback, and for the tcp firehose the same reps again
   on the memory transport;
4. the **in-situ pass** (flat workloads): one more ``run_live`` with the
   repo's own ``TelemetryConfig`` + ``RecordingTracer`` switches,
   harvesting the ``live_*`` spans and the tracing overhead;
5. for ``sim-paper``, the baselines' wall-clock rates and the
   simulator's deterministic byte and latency counts.

Every ``ns_per_*`` figure is scaled to reference machine speed with the
calibration readings taken around the step it came from.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace
from types import SimpleNamespace

from repro.mesh.routing import shard_of
from repro.obs.live.config import TelemetryConfig
from repro.obs.tracer import RecordingTracer
from repro.runtime.cluster import run_live
from repro.streaming.windows import Window

from perfbench import calibrate, stages
from perfbench.oracle import (
    Grade,
    grade_queries,
    grade_windows,
    query_truth,
    window_truth,
)
from perfbench.runner import WorkloadRun
from perfbench.spans import SpanLog
from perfbench.workloads import (
    SIM_SYSTEMS,
    FlatWorkload,
    MeshWorkload,
    PacedWorkload,
    QueryWorkload,
    SimWorkload,
)

__all__ = ["run_traced", "LIVE_SPANS"]

#: The in-situ spans harvested from the repo's own live tracer.
LIVE_SPANS = (
    "live_stream_batch", "live_ingest", "live_synopsis",
    "live_identification", "live_candidate_fetch", "live_calculation",
)

#: Untraced reps a traced run takes as its end-to-end reference.
_REFERENCE_REPS = 3

#: Wall-clock reps of each baseline system on ``sim-paper``.
_BASELINE_REPS = 3

#: Stages whose busy time adds up to the budget (the loopback enters
#: net of the event codec, which ``send``/``recv`` run inside it).
_BUDGET_STAGES = tuple(s for s in stages.STAGES if s != stages.LOOPBACK)


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def _replay(run: WorkloadRun, log: SpanLog, metrics: dict,
            grade: Grade) -> "float | None":
    """Stage replay + loopback; returns the budget's ns/event, scaled."""
    workload = run.workload
    if isinstance(workload, SimWorkload):
        return None
    shape = dict(
        n_streams=getattr(workload, "streams_per_local", 1),
        window_ms=workload.window_ms, gamma=workload.gamma, q=workload.q,
    )
    before = calibrate.measure_ms()
    if isinstance(workload, QueryWorkload):
        answers, results, horizons, counts = stages.replay_queries(
            log, workload.streams, workload.specs, **shape
        )
        events = [e for share in workload.streams.values() for e in share]
        grid_end = max(end for _, end in answers)
        grade.add(grade_queries(
            query_truth(events, workload.specs, horizons, grid_end),
            results, label=f"{workload.name} replay",
        ))
    else:
        answers, counts = stages.replay_windows(
            log, workload.streams,
            relay_fanin=getattr(workload, "relay_fanin", 0), **shape
        )
    transport = workload.config.transport
    loop_wall, loop_frames = stages.transport_loopback(
        log, transport, counts.feeds
    )
    factor = calibrate.speed_factor(before, calibrate.measure_ms())
    grade.add(grade_windows(
        window_truth(workload.streams, workload.window_ms, workload.q),
        [SimpleNamespace(window=Window(*key), value=value)
         for key, value in answers.items()],
        label=f"{workload.name} replay",
    ))

    busy = {name: ns * factor for name, ns in log.busy_ns().items()}
    events = counts.events

    def stage(name: str) -> float:
        return busy.get(name, 0.0)

    metrics["runtime.servers.batch.ns_per_event"] = _per(
        stage(stages.BATCH), events)
    metrics["runtime.servers.batch.frames"] = counts.batch_frames
    codec = {
        "encode_events": (stages.ENCODE_EVENTS, "event", events),
        "decode_events": (stages.DECODE_EVENTS, "event", events),
        "encode_synopses": (stages.ENCODE_SYNOPSES, "synopsis",
                            counts.synopses),
        "decode_synopses": (stages.DECODE_SYNOPSES, "synopsis",
                            counts.synopses),
        "encode_candidates": (stages.ENCODE_CANDIDATES, "candidate",
                              counts.candidate_events),
        "decode_candidates": (stages.DECODE_CANDIDATES, "candidate",
                              counts.candidate_events),
    }
    for key, (name, unit, count) in codec.items():
        metrics[f"runtime.codec.{key}.ns_per_{unit}"] = _per(
            stage(name), count)
    loop_ns = loop_wall * 1e9 * factor
    metrics["runtime.transport.loopback.ns_per_event"] = _per(loop_ns, events)
    metrics["runtime.transport.loopback.frames_per_s"] = _per(
        loop_frames, loop_wall * factor)
    metrics["core.sorted_window.ingest.ns_per_event"] = _per(
        stage(stages.INGEST), events)
    metrics["core.sorted_window.sort.ns_per_event"] = _per(
        stage(stages.SORT), events)
    metrics["core.slicing.slice.ns_per_event"] = _per(
        stage(stages.SLICE), events)
    metrics["core.slicing.slice.ns_per_synopsis"] = _per(
        stage(stages.SLICE), counts.slices)
    metrics["core.slicing.synopses_per_window"] = _per(
        counts.slices, counts.windows)
    metrics["core.identification.identify.ns_per_event"] = _per(
        stage(stages.IDENTIFY), events)
    metrics["core.identification.identify.ns_per_synopsis"] = _per(
        stage(stages.IDENTIFY), counts.slices)
    metrics["core.identification.candidate_event_fraction"] = _per(
        counts.candidate_events, events)
    metrics["core.identification.candidate_slice_fraction"] = _per(
        counts.candidate_slices, counts.slices)
    metrics["core.local_node.serve_candidates.ns_per_candidate"] = _per(
        stage(stages.SERVE), counts.candidate_events)
    metrics["core.calculation.calculate.ns_per_event"] = _per(
        stage(stages.CALCULATE), events)
    metrics["core.calculation.calculate.ns_per_candidate"] = _per(
        stage(stages.CALCULATE), counts.candidate_events)
    if isinstance(workload, MeshWorkload):
        metrics["mesh.relay.combine.ns_per_event"] = _per(
            stage(stages.RELAY_COMBINE), events)
        metrics["mesh.relay.explode.ns_per_event"] = _per(
            stage(stages.RELAY_EXPLODE), events)
    if isinstance(workload, QueryWorkload):
        metrics["core.identification.identify_multi.ns_per_window"] = _per(
            stage(stages.IDENTIFY_MULTI), counts.identification_cuts)
        metrics["queries.slide.pane_add.ns_per_event"] = _per(
            stage(stages.PANE_ADD), events)
        metrics["queries.slide.aggregate.ns_per_window"] = _per(
            stage(stages.AGGREGATE), counts.plane_windows)
        metrics["queries.root.identification_cuts"] = (
            counts.identification_cuts)
        metrics["queries.root.results_served"] = counts.results_served
        metrics["queries.root.results_per_cut"] = _per(
            counts.results_served, counts.identification_cuts)
        metrics["queries.root.groups"] = counts.groups

    codec_ns = stage(stages.ENCODE_EVENTS) + stage(stages.DECODE_EVENTS)
    budget_ns = sum(stage(name) for name in _BUDGET_STAGES) + max(
        0.0, loop_ns - codec_ns)
    return _per(budget_ns, events)


def _counters(run: WorkloadRun, metrics: dict) -> None:
    """Exact counts the system's own report carries."""
    workload = run.workload
    report = run.reps[0].report
    if isinstance(workload, SimWorkload):
        return
    bytes_by_layer = report.bytes_by_layer
    frames = report.messages_by_layer
    metrics["runtime.transport.bytes.stream_local"] = bytes_by_layer.get(
        "stream_local", 0)
    metrics["runtime.transport.bytes.local_root"] = bytes_by_layer.get(
        "local_root", 0)
    metrics["runtime.transport.frames.stream_local"] = frames.get(
        "stream_local", 0)
    metrics["runtime.transport.frames.local_root"] = frames.get(
        "local_root", 0)
    if isinstance(workload, MeshWorkload):
        metrics["mesh.relay.frames_combined"] = report.relay_frames_combined
        metrics["mesh.relay.sections_combined"] = (
            report.relay_sections_combined)
        metrics["mesh.cluster.root_ingress_frames"] = (
            frames.get("relay_root", 0) + frames.get("local_root", 0))
        metrics["mesh.cluster.bytes.local_relay"] = bytes_by_layer.get(
            "local_relay", 0)
        metrics["mesh.cluster.bytes.relay_root"] = bytes_by_layer.get(
            "relay_root", 0)
        per_shard = [0] * workload.n_shards
        for outcome in report.outcomes:
            per_shard[shard_of(
                outcome.window.start, workload.window_ms, workload.n_shards
            )] += 1
        metrics["mesh.routing.shard_window_skew"] = _per(
            max(per_shard), statistics.fmean(per_shard))


def _memory_rerun(run: WorkloadRun, metrics: dict, e2e_ns: float) -> None:
    """``flat-firehose`` again on the memory transport: what tcp costs."""
    workload = run.workload
    config = replace(workload.config, transport="memory")
    samples = []
    for _ in range(_REFERENCE_REPS):
        before = calibrate.measure_ms()
        rep = workload.run_with(config)
        factor = calibrate.speed_factor(before, calibrate.measure_ms())
        samples.append(rep.wall_s * factor * 1e9 / rep.events)
    metrics["runtime.transport.tcp_minus_memory.ns_per_event"] = (
        e2e_ns - statistics.median(samples))


def _in_situ(run: WorkloadRun, metrics: dict, untraced_wall_s: float) -> None:
    """One ``run_live`` with the repo's own tracing switched on."""
    workload = run.workload
    tracer = RecordingTracer()
    config = replace(
        workload.config, telemetry=TelemetryConfig(sampler_interval_s=0.0)
    )
    before = calibrate.measure_ms()
    start = time.perf_counter()
    run_live(config, workload.streams, tracer=tracer)
    wall = time.perf_counter() - start
    wall *= calibrate.speed_factor(before, calibrate.measure_ms())
    metrics["obs.live.tracing_overhead_fraction"] = (
        wall / untraced_wall_s - 1.0)
    busy = {name: 0.0 for name in LIVE_SPANS}
    count = {name: 0 for name in LIVE_SPANS}
    for span in tracer.spans:
        if span.name in busy:
            busy[span.name] += span.duration
            count[span.name] += 1
    for name in LIVE_SPANS:
        metrics[f"obs.live.{name}.busy_s"] = busy[name]
        metrics[f"obs.live.{name}.count"] = count[name]


def _simulator(run: WorkloadRun, metrics: dict) -> None:
    """Baseline wall rates and the simulator's deterministic counts."""
    workload = run.workload
    truth = window_truth(workload.streams, workload.window_ms, workload.q)
    baselines = SIM_SYSTEMS[1:]
    before = calibrate.measure_ms()
    for system in baselines:
        while len(workload.baseline_walls.get(system, ())) < _BASELINE_REPS:
            workload.run_baselines([system])
    factor = calibrate.speed_factor(before, calibrate.measure_ms())
    reports = {"dema": run.reps[0].report, **workload.baseline_reports}
    for system in baselines:
        metrics[f"baselines.{system}.wall_eps"] = workload.events / (
            statistics.median(workload.baseline_walls[system]) * factor)
    for system, report in reports.items():
        metrics[f"network.simulator.bytes_to_root.{system}"] = (
            report.network.bytes_into(0))
        metrics[f"network.simulator.sim_latency_p50_ms.{system}"] = (
            report.latency.p50 * 1000.0)
    metrics["network.simulator.byte_reduction_vs_scotty"] = (
        reports["dema"].network.reduction_vs(reports["scotty"].network))
    errors = [
        abs(outcome.value - truth[outcome.window.start, outcome.window.end])
        / abs(truth[outcome.window.start, outcome.window.end])
        for outcome in reports["tdigest"].outcomes
        if outcome.value is not None
    ]
    metrics["sketches.tdigest.accuracy"] = 1.0 - statistics.fmean(errors)


def run_traced(name: str, *, seed: int, seconds: float, scale: float = 1.0,
               reps: "int | None" = None,
               process_started: "float | None" = None,
               spans_out: "str | None" = None) -> dict:
    """The traced run of one workload; returns its result record.

    ``record["per_layer"]`` holds every per-layer metric that applies to
    the workload, by its declared name.
    """
    run = WorkloadRun(name, seed=seed, seconds=seconds, scale=scale,
                      reps=_REFERENCE_REPS if reps is None else reps,
                      process_started=process_started)
    run.setup()
    while run.want_more():
        run.rep()
    record = run.finish()
    workload = run.workload
    grade = Grade()
    metrics: dict = {}
    log = SpanLog(name)

    scaled_walls = [rep.wall_s * factor
                    for rep, factor in zip(run.reps, run.factors)]
    e2e_ns = statistics.median(scaled_walls) * 1e9 / workload.events
    metrics["bench.generator.generate.ns_per_event"] = (
        statistics.median(run.generate_s) * 1e9 / workload.events)
    if run.startup_ms:
        metrics["runtime.cluster.startup_ms"] = statistics.median(
            run.startup_ms)
    machine = record["machine"]
    samples = machine["calibration_ms"]["samples"]
    metrics["machine.calibration_ms"] = machine["calibration_ms"]["median"]
    metrics["machine.calibration_range_ms"] = max(samples) - min(samples)
    metrics["machine.raw_throughput_eps"] = (
        machine["raw_throughput_eps"]["median"])
    metrics["machine.raw_seal_to_result_p50_ms"] = (
        machine["raw_seal_to_result_p50_ms"]["median"])

    _counters(run, metrics)
    budget_ns = _replay(run, log, metrics, grade)
    if budget_ns is not None:
        metrics["runtime.cluster.unattributed.ns_per_event"] = (
            e2e_ns - budget_ns)
        metrics["runtime.cluster.budget_coverage"] = budget_ns / e2e_ns
        if isinstance(workload, MeshWorkload):
            metrics["mesh.cluster.driver_overhead.ns_per_event"] = (
                e2e_ns - budget_ns)
    if isinstance(workload, SimWorkload):
        _simulator(run, metrics)
    elif isinstance(workload, FlatWorkload):
        if not isinstance(workload, PacedWorkload):
            metrics["runtime.servers.seal_to_result_unpaced.p50_ms"] = (
                record["end_to_end"]["seal_to_result_p50_ms"]["value"])
        if not isinstance(workload, QueryWorkload):
            if workload.config.transport == "tcp" and not isinstance(
                workload, PacedWorkload
            ):
                _memory_rerun(run, metrics, e2e_ns)
            _in_situ(run, metrics, statistics.median(scaled_walls))

    if spans_out:
        log.write_jsonl(spans_out)
    record["total_ops"] += grade.total_ops
    record["failed_ops"] += grade.failed_ops
    record["failures"] += grade.notes
    record["per_layer"] = metrics
    record["spans"] = {"count": len(log.rows), "file": spans_out}
    return record
