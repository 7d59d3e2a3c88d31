"""Command-line interface for the Dema reproduction.

Usage::

    python -m repro info                 # package and system inventory
    python -m repro demo                 # 30-second guided demonstration
    python -m repro quantile --q 0.9 ... # one decentralized quantile
    python -m repro experiments fig5a    # regenerate paper figures
    python -m repro trace quickstart     # record a traced scenario
    python -m repro report run.jsonl     # per-phase latency/byte breakdown
    python -m repro live --rate 20000    # live asyncio cluster over TCP
    python -m repro query --queries 8    # live multi-query plane, graded
    python -m repro mesh --shards 4 --relay-fanin 8 --locals 100  # scale-out
    python -m repro fleet                # fleet-telemetry plane, scraped + graded
    python -m repro chaos --scenario crash-reconnect   # fault injection
    python -m repro top --port 9470      # watch a serving cluster live
    python -m repro top --mesh           # fleet view of a serving mesh
"""

from __future__ import annotations

import argparse
import random
import sys


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.baselines.base import SYSTEM_NAMES
    from repro.bench.workloads import EXPERIMENTS

    print(f"repro {repro.__version__} — Dema (EDBT 2025) reproduction")
    print()
    print("systems   :", ", ".join(SYSTEM_NAMES))
    print("experiments:")
    for name, spec in EXPERIMENTS.items():
        print(f"  {name:<24} {spec.figure:<16} {spec.title}")
    print()
    print("run `python -m repro demo` for a quick demonstration,")
    print("`python -m repro experiments --all` to regenerate every figure.")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import (
        DemaEngine,
        QuantileQuery,
        TopologyConfig,
        dema_quantile,
        exact_quantile,
        make_events,
    )
    from repro.bench.generator import GeneratorConfig, workload
    from repro.bench.reporting import format_bytes

    rng = random.Random(args.seed)
    print("1. In-memory: exact median over three nodes' data")
    windows = {
        node_id: make_events(
            [rng.gauss(20 * node_id, 5) for _ in range(2_000)],
            node_id=node_id,
        )
        for node_id in (1, 2, 3)
    }
    result = dema_quantile(windows, q=0.5, gamma=100)
    all_values = [e.value for events in windows.values() for e in events]
    assert result.value == exact_quantile(all_values, 0.5)
    print(f"   median = {result.value:.3f} (bit-exact), "
          f"{result.transfer_events} of {result.global_window_size} events moved")
    print()

    print("2. Simulated deployment: continuous medians, adaptive γ")
    query = QuantileQuery(q=0.5, gamma=2, adaptive=True)
    engine = DemaEngine(query, TopologyConfig(n_local_nodes=2))
    streams = workload(
        [1, 2],
        GeneratorConfig(event_rate=2_000.0, duration_s=4.0, seed=args.seed),
    )
    report = engine.run(streams)
    for outcome in report.outcomes:
        print(
            f"   window [{outcome.window.start / 1000:.0f}s,"
            f"{outcome.window.end / 1000:.0f}s): median={outcome.value:8.3f}  "
            f"γ={outcome.gamma_used:<5d} candidates={outcome.candidate_events}"
        )
    print(f"   network: {format_bytes(report.network.total_bytes)} "
          f"(raw forwarding would be "
          f"{format_bytes(report.events_ingested * 16)})")
    return 0


def _cmd_quantile(args: argparse.Namespace) -> int:
    from repro import dema_quantile, make_events

    rng = random.Random(args.seed)
    windows = {
        node_id: make_events(
            [rng.gauss(50.0, 15.0) for _ in range(args.events_per_node)],
            node_id=node_id,
        )
        for node_id in range(1, args.nodes + 1)
    }
    result = dema_quantile(windows, q=args.q, gamma=args.gamma)
    print(f"q={args.q} over {args.nodes} nodes × "
          f"{args.events_per_node} events (γ={args.gamma})")
    print(f"value            : {result.value:.6f}")
    print(f"rank             : {result.rank} / {result.global_window_size}")
    print(f"candidate slices : {result.candidate_slices}")
    print(f"events moved     : {result.transfer_events} "
          f"({result.transfer_events / result.global_window_size:.2%})")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench.sweep import SweepSpec, run_sweep

    def parse_value(raw: str):
        try:
            return int(raw)
        except ValueError:
            return float(raw)

    spec = SweepSpec(
        parameter=args.parameter,
        values=tuple(parse_value(raw) for raw in args.values.split(",")),
        metric=args.metric,
        systems=tuple(args.systems.split(",")),
        n_local_nodes=args.nodes,
        gamma=args.gamma,
        q=args.q,
        event_rate=args.event_rate,
    )
    result = run_sweep(spec)
    print(result.to_table())
    if args.csv is not None:
        with open(args.csv, "w") as handle:
            handle.write(result.to_csv())
        print(f"wrote {args.csv}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        trace_records,
        write_chrome_trace,
        write_jsonl,
        write_prometheus,
    )
    from repro.obs.report import format_report
    from repro.obs.scenarios import SCENARIOS, run_scenario

    if args.list:
        for name, (description, _) in SCENARIOS.items():
            print(f"{name:<12} {description}")
        return 0
    result = run_scenario(args.scenario, seed=args.seed)
    print(f"scenario {result.name}: {result.description}")
    output = args.output or f"{result.name}.trace.jsonl"
    n_records = write_jsonl(output, result.tracer)
    print(f"wrote {output} ({n_records} records)")
    if args.chrome is not None:
        n_events = write_chrome_trace(args.chrome, result.tracer)
        print(f"wrote {args.chrome} ({n_events} trace events; "
              "open in chrome://tracing or ui.perfetto.dev)")
    if args.metrics is not None:
        write_prometheus(args.metrics, result.tracer)
        print(f"wrote {args.metrics}")
    if args.report:
        print()
        print(format_report(trace_records(result.tracer)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.obs.export import read_jsonl
    from repro.obs.report import format_report

    try:
        records = read_jsonl(args.trace)
    except FileNotFoundError:
        print(f"repro report: trace file not found: {args.trace}",
              file=sys.stderr)
        return 2
    except IsADirectoryError:
        print(f"repro report: {args.trace} is a directory, not a trace file",
              file=sys.stderr)
        return 2
    except (ConfigurationError, UnicodeDecodeError) as exc:
        print(f"repro report: {args.trace} is not a valid JSONL trace: {exc}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro report: cannot read {args.trace}: {exc}",
              file=sys.stderr)
        return 2
    print(format_report(records))
    return 0


def _telemetry_from_args(args: argparse.Namespace):
    """Build a TelemetryConfig from the shared live/chaos CLI flags."""
    if args.telemetry_port is None and args.flight_recorder is None:
        return None
    from repro.obs.live.config import TelemetryConfig

    def announce(port: int) -> None:
        print(
            f"telemetry endpoint: http://127.0.0.1:{port}/metrics "
            f"(watch with: python -m repro top --port {port})",
            file=sys.stderr,
        )

    return TelemetryConfig(
        sample_rate=args.trace_sample,
        http_port=args.telemetry_port,
        flight_recorder_path=args.flight_recorder,
        announce=announce if args.telemetry_port is not None else None,
    )


def _print_telemetry(telemetry: dict) -> None:
    if not telemetry:
        return
    parts = [f"{telemetry.get('traced_live_spans', 0)} live spans traced"]
    if telemetry.get("http_port") is not None:
        parts.append(f"scraped on port {telemetry['http_port']}")
    if telemetry.get("flight_recorder"):
        state = "dumped" if telemetry.get("flight_recorder_dumped") else "armed"
        parts.append(f"flight recorder {state}: {telemetry['flight_recorder']}")
    print(f"telemetry: {', '.join(parts)}")


def _wire_line(report) -> str:
    from repro.bench.reporting import format_bytes

    layers = ", ".join(
        f"{layer} {format_bytes(count)}"
        for layer, count in sorted(report.bytes_by_layer.items())
    )
    return f"on the wire: {format_bytes(report.total_bytes)} ({layers})"


def _run_graded_cluster(
    args: argparse.Namespace,
    *,
    n_shards: int,
    relay_fanin: int,
    time_scale: float,
    rate_per_local: float,
    membership: tuple = (),
) -> int:
    """Run one live cluster, grade it against the oracle, print the report.

    ``repro mesh`` and ``repro live`` are this function; ``live`` is the
    flat topology (one shard, no relay tier) with an aggregate ``--rate``.
    """
    from repro.bench.generator import GeneratorConfig, workload
    from repro.bench.reporting import format_bytes
    from repro.core.query import QuantileQuery
    from repro.errors import ConfigurationError
    from repro.mesh import (
        MeshConfig,
        classify_outcomes,
        mesh_oracle,
        run_mesh,
    )

    joiners = [e.local_id for e in membership if e.kind == "join"]
    try:
        config = MeshConfig(
            n_locals=args.locals,
            streams_per_local=args.streams,
            n_shards=n_shards,
            relay_fanin=relay_fanin,
            query=QuantileQuery(q=args.q, gamma=args.gamma),
            transport=args.transport,
            time_scale=time_scale,
            membership=membership,
            telemetry=_telemetry_from_args(args),
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    streams = workload(
        list(range(1, args.locals + 1)) + joiners,
        GeneratorConfig(
            event_rate=rate_per_local,
            duration_s=args.duration,
            seed=args.seed,
        ),
    )
    report = run_mesh(config, streams)
    classes = classify_outcomes(mesh_oracle(streams, config), report.outcomes)

    tier = (
        f"relay fan-in {config.relay_fanin}" if config.relay_fanin
        else "flat (no relay tier)"
    )
    print(
        f"live cluster over {config.transport}: {config.n_shards} root "
        f"shard{'s' if config.n_shards != 1 else ''}, "
        f"{tier}, {config.n_locals} locals × "
        f"{config.streams_per_local} streams"
    )
    print(
        f"replayed {report.events_sent} events in "
        f"{report.wall_seconds:.3f}s wall "
        f"({report.events_per_second:,.0f} events/s)"
    )
    for window, outcome in sorted(report.outcome_by_window().items()):
        if outcome.value is None:
            continue
        print(
            f"  window [{window.start / 1000:.0f}s,"
            f"{window.end / 1000:.0f}s): "
            f"q{args.q:g}={outcome.value:10.4f}  "
            f"n={outcome.global_window_size:<7d} "
            f"candidates={outcome.candidate_events}"
        )
    if membership:
        print(
            f"membership: {len(joiners)} joins, "
            f"{len(membership) - len(joiners)} leaves; "
            f"members now {report.members}, "
            f"shard epochs {report.membership_epochs}"
        )
    stats = report.seal_to_result
    if stats.count:
        print(
            f"seal→result latency: p50 {stats.p50 * 1e3:.2f} ms  "
            f"p95 {stats.p95 * 1e3:.2f} ms  max {stats.max * 1e3:.2f} ms"
        )
    print(_wire_line(report))
    print(
        f"root ingress: {format_bytes(report.root_ingress_bytes)}"
        + (
            f" ({report.relay_frames_combined} relay-combined frames, "
            f"{report.relay_sections_combined} sections)"
            if config.relay_fanin
            else ""
        )
    )
    print(
        f"windows: {classes['recovered']} recovered, "
        f"{classes['degraded']} degraded, {classes['lost']} lost, "
        f"{classes['mismatch']} mismatched (of {report.windows})"
    )
    _print_telemetry(report.telemetry)
    if report.telemetry.get("fleet"):
        fleet = report.telemetry["fleet"]
        print(
            f"fleet: {fleet['frames']} telemetry frames "
            f"({fleet['bytes']} bytes), {fleet['digest_count']} digests "
            f"from {len(fleet['senders'])} nodes"
        )
    if classes["mismatch"]:
        print("MISMATCHED WINDOWS: values diverged at full completeness "
              "— protocol bug")
        return 1
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    if args.uvloop:
        # uvloop is an optional accelerator, never a requirement: when the
        # module is absent the run proceeds on stock asyncio unchanged.
        try:
            import uvloop
        except ImportError:
            print(
                "warning: --uvloop requested but uvloop is not installed; "
                "continuing on the default asyncio event loop",
                file=sys.stderr,
            )
        else:
            uvloop.install()
    return _run_graded_cluster(
        args,
        n_shards=1,
        relay_fanin=0,
        time_scale=0.0 if args.fast else args.time_scale,
        # --rate is the aggregate here: each local generates its share.
        rate_per_local=max(1.0, args.rate / max(1, args.locals)),
    )


def _cmd_mesh(args: argparse.Namespace) -> int:
    return _run_graded_cluster(
        args,
        n_shards=args.shards,
        relay_fanin=args.relay_fanin,
        time_scale=args.time_scale,
        rate_per_local=args.rate,
        membership=_parse_membership(args.join, args.leave),
    )


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.queries.runner import run_query_scenario

    try:
        report = run_query_scenario(
            n_queries=args.queries,
            n_keys=args.keys,
            n_locals=args.locals,
            streams_per_local=args.streams,
            event_rate=args.rate,
            duration_s=args.duration,
            transport=args.transport,
            time_scale=args.time_scale,
            churn=args.churn,
            seed=args.seed,
            gamma=args.gamma,
            window_ms=args.window_ms,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"multi-query plane over {args.transport}: "
        f"{report.n_registered} queries registered "
        f"({report.n_deregistered} deregistered mid-run), "
        f"{report.groups} shared-cut groups"
    )
    print(
        f"served {report.results_served} results "
        f"({report.queries_per_second:,.1f} results/s), "
        f"graded {report.results_graded} against the oracle"
    )
    print(
        f"identification cuts: {report.identification_cuts} "
        f"({report.duplicate_cuts} duplicated per (group, window))"
    )
    print(_wire_line(report.live))
    for nack in report.nacks:
        print(f"  nack: {nack}")
    for mismatch in report.mismatches:
        print(f"MISMATCH: {mismatch}")
    if report.duplicate_cuts:
        print("DUPLICATE CUTS: the shared-cut invariant was violated")
    if not report.ok:
        return 1
    print("all served results bit-identical to the single-query oracle")
    return 0


def _parse_membership(joins: list[str], leaves: list[str]):
    """Parse repeated ``LOCAL@MS`` membership flags into events."""
    from repro.mesh import MembershipEvent

    events = []
    for kind, specs in (("join", joins), ("leave", leaves)):
        for spec in specs:
            local_raw, _, at_raw = spec.partition("@")
            try:
                local_id, at_ms = int(local_raw), int(at_raw)
            except ValueError:
                raise SystemExit(
                    f"error: --{kind} expects LOCAL@MS "
                    f"(e.g. 5@2000), got {spec!r}"
                )
            events.append(
                MembershipEvent(at_ms=at_ms, local_id=local_id, kind=kind)
            )
    return tuple(sorted(events, key=lambda e: (e.at_ms, e.local_id)))


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.runner import run_chaos
    from repro.faults.scenarios import SCENARIOS

    if args.list:
        for name, scenario in SCENARIOS.items():
            print(f"{name:<16} {scenario.description}")
        return 0
    report = run_chaos(
        args.scenario,
        mode=args.mode,
        seed=args.seed,
        n_locals=args.locals,
        streams_per_local=args.streams,
        rate=args.rate,
        duration_s=args.duration,
        time_scale=args.time_scale,
        transport=args.transport,
        gamma=args.gamma,
        q=args.q,
        telemetry=_telemetry_from_args(args),
        shards=args.shards,
        relay_fanin=args.relay_fanin,
    )
    print(f"chaos scenario {report.scenario!r} on the {report.mode} "
          f"substrate (seed {report.seed})")
    print("fault events applied:")
    for line in report.applied:
        print(f"  {line}")
    if not report.applied:
        print("  (none)")
    print()
    for window in sorted(report.classes):
        print(f"  window [{window.start / 1000:.0f}s,"
              f"{window.end / 1000:.0f}s): {report.classes[window]}")
    print()
    print(f"windows  : {report.recovered} recovered, "
          f"{report.degraded} degraded, {report.lost} lost, "
          f"{report.mismatched} mismatched (of {report.windows})")
    print(f"tolerance: {report.reconnects} reconnects, "
          f"{report.heartbeat_misses} heartbeat misses, "
          f"{report.locals_declared_dead} locals declared dead")
    if report.shards > 1 or report.relay_fanin:
        print(f"failover : {report.shard_failovers} shard failovers, "
              f"{report.windows_adopted} windows adopted, "
              f"{report.relay_frames_replayed} relay frames replayed "
              f"({report.shards} shards, fan-in {report.relay_fanin})")
    if report.driver_reconnects:
        print(f"driver   : {report.driver_reconnects} reconnects, "
              "results replayed from the acked cursor")
    print(f"wall     : {report.wall_seconds:.2f}s")
    _print_telemetry(report.telemetry)
    if report.mismatched:
        print("MISMATCHED WINDOWS: values diverged at full completeness "
              "— protocol bug")
        return 1
    if report.lost:
        print("LOST WINDOWS: some windows were never answered")
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.live.top import run_top

    return run_top(
        args.host,
        args.port,
        interval_s=args.interval,
        once=args.once,
        mesh=args.mesh,
    )


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Fleet telemetry smoke: run a mesh, scrape /fleet mid-run, grade it.

    The CI gate: a telemetry-enabled mesh run whose ``/fleet`` endpoint
    is scraped *while the cluster serves*, asserting the scrape is valid
    JSON with a nonzero merged digest count, then grading the fleet's
    merged seal→result percentiles against the centrally-computed
    oracle, and finally bounding the digest-vs-raw byte cost at 10%.
    """
    import asyncio as _asyncio
    import queue as _queue

    from repro.bench.generator import GeneratorConfig, workload
    from repro.core.query import QuantileQuery
    from repro.mesh import MeshConfig, classify_outcomes, mesh_oracle, run_mesh
    from repro.obs.fleet import fleet_benchmark
    from repro.obs.live.config import TelemetryConfig
    from repro.obs.live.top import fetch_json, render_fleet

    ports: "_queue.Queue[int]" = _queue.Queue()
    config = MeshConfig(
        n_locals=args.locals,
        n_shards=args.shards,
        relay_fanin=args.relay_fanin,
        query=QuantileQuery(q=args.q, gamma=args.gamma),
        # Paced replay: an unpaced mesh run saturates the event loop and
        # starves the HTTP plane, so the mid-run scrape would always lose
        # the race.  ~duration * time_scale seconds of wall clock leaves
        # the loop mostly idle between batches.
        time_scale=args.time_scale,
        telemetry=TelemetryConfig(
            http_port=0, announce=ports.put, sampler_interval_s=0.02
        ),
        timeout_s=120.0,
    )
    streams = workload(
        list(range(1, args.locals + 1)),
        GeneratorConfig(
            event_rate=args.rate, duration_s=args.duration, seed=args.seed
        ),
    )
    scraped: dict = {}

    async def scrape_mid_run(ctx) -> None:
        port = ports.get(timeout=5.0)
        # Keep scraping until the collector holds merged digests (or the
        # run ends and cancels us) — the last successful scrape wins.
        while True:
            try:
                doc = await _asyncio.to_thread(
                    fetch_json, "127.0.0.1", port, "/fleet", 2.0
                )
                scraped.clear()
                scraped.update(doc)
                if doc.get("digest_count", 0) > 0:
                    return
            except Exception:
                pass
            await _asyncio.sleep(0.02)

    report = run_mesh(config, streams, disturb=scrape_mid_run)
    classes = classify_outcomes(mesh_oracle(streams, config), report.outcomes)
    final = report.telemetry["fleet"]
    mid = scraped or final
    print(
        f"fleet smoke: {config.n_locals} locals, {config.n_shards} shards, "
        f"relay fan-in {config.relay_fanin}"
    )
    print(
        f"  mid-run /fleet scrape: {mid['frames']} frames, "
        f"{mid['digest_count']} digests"
        + ("" if scraped else " (run outpaced the scraper; final view)")
    )
    print(render_fleet(final))
    failed = False
    if final["digest_count"] <= 0:
        print("SMOKE FAILED: no merged telemetry digests")
        failed = True
    if classes["mismatch"] or classes["lost"]:
        print(f"SMOKE FAILED: oracle divergence {classes}")
        failed = True
    merged = final["metrics"].get("seal_to_result_s", {})
    central = report.seal_to_result
    if central.count and merged.get("count"):
        # The shard digests are built from exactly the samples the
        # central LatencyStats aggregates, so the comparison is only
        # bounded by t-digest interpolation.
        for name, reference in (("p50", central.p50), ("p95", central.p95)):
            got = merged[name]
            bound = max(0.05 * reference, 1e-4)
            print(
                f"  seal→result {name}: fleet {got * 1e3:.3f} ms vs "
                f"central {reference * 1e3:.3f} ms"
            )
            if abs(got - reference) > bound:
                print(
                    f"SMOKE FAILED: fleet {name} diverges from the "
                    f"central oracle by more than {bound * 1e3:.3f} ms"
                )
                failed = True
    elif central.count:
        print("SMOKE FAILED: fleet view has no seal→result digest")
        failed = True
    curve = fleet_benchmark(seed=args.seed)["curve"]
    worst = max(point["digest_fraction_of_raw"] for point in curve)
    for point in curve:
        print(
            f"  {point['n_locals']:>4} locals: digest uplink "
            f"{point['digest_uplink_bytes']:>9} B vs raw "
            f"{point['raw_sample_bytes']:>11} B "
            f"({point['digest_fraction_of_raw']:.1%})"
        )
    if worst > 0.10:
        print(
            f"SMOKE FAILED: digest uplink costs {worst:.1%} of raw-sample "
            "shipping at some fleet size (bound: 10%)"
        )
        failed = True
    if failed:
        return 1
    print("fleet telemetry plane healthy; digests within the byte budget")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench import runner

    forwarded: list[str] = list(args.figures)
    if args.all:
        forwarded.append("--all")
    if args.quick:
        forwarded.append("--quick")
    return runner.main(forwarded)


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """Shared live-telemetry flags for the ``live`` and ``chaos`` commands."""
    parser.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="serve /metrics and /timeline on this port during the run "
             "(0 = ephemeral; the bound port is announced on stderr)",
    )
    parser.add_argument(
        "--flight-recorder", default=None, metavar="PATH",
        help="arm a flight recorder that dumps the last spans/events to "
             "PATH (JSONL) if the run crashes",
    )
    parser.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="RATE",
        help="head-based trace sampling rate in [0, 1] (default 1.0)",
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package and experiment inventory")

    demo = sub.add_parser("demo", help="guided demonstration")
    demo.add_argument("--seed", type=int, default=42)

    quantile = sub.add_parser("quantile", help="one decentralized quantile")
    quantile.add_argument("--q", type=float, default=0.5)
    quantile.add_argument("--gamma", type=int, default=100)
    quantile.add_argument("--nodes", type=int, default=3)
    quantile.add_argument("--events-per-node", type=int, default=10_000)
    quantile.add_argument("--seed", type=int, default=42)

    experiments = sub.add_parser(
        "experiments", help="regenerate paper figures"
    )
    experiments.add_argument("figures", nargs="*")
    experiments.add_argument("--all", action="store_true")
    experiments.add_argument("--quick", action="store_true")

    trace = sub.add_parser(
        "trace", help="run a named scenario under the recording tracer"
    )
    trace.add_argument(
        "scenario", nargs="?", default="quickstart",
        help="scenario name (see --list); default: quickstart",
    )
    trace.add_argument("--list", action="store_true",
                       help="list available scenarios and exit")
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument("-o", "--output", default=None, metavar="PATH",
                       help="JSONL output path (default <scenario>.trace.jsonl)")
    trace.add_argument("--chrome", default=None, metavar="PATH",
                       help="also write a Chrome trace_event JSON file")
    trace.add_argument("--metrics", default=None, metavar="PATH",
                       help="also write Prometheus-format metrics")
    trace.add_argument("--report", action="store_true",
                       help="print the per-phase breakdown after tracing")

    report = sub.add_parser(
        "report", help="per-phase latency/byte breakdown of a JSONL trace"
    )
    report.add_argument("trace", help="path to a .trace.jsonl file")

    live = sub.add_parser(
        "live", help="run a live asyncio cluster (real wire protocol)"
    )
    live.add_argument("--locals", "--n-locals", dest="locals",
                      type=int, default=2,
                      help="local (edge) node count")
    live.add_argument("--streams", "--streams-per-local", dest="streams",
                      type=int, default=2,
                      help="stream servers per local node")
    live.add_argument("--rate", type=float, default=20_000.0,
                      help="target aggregate events/second")
    live.add_argument("--duration", type=float, default=3.0,
                      help="workload length in event-time seconds")
    live.add_argument("--transport", default="tcp",
                      choices=["tcp", "memory"])
    live.add_argument("--time-scale", type=float, default=1.0,
                      help="wall seconds per event-time second (1.0 = "
                           "real time)")
    live.add_argument("--fast", action="store_true",
                      help="replay unpaced, as fast as backpressure allows")
    live.add_argument("--gamma", type=int, default=100)
    live.add_argument("--q", type=float, default=0.5)
    live.add_argument("--seed", type=int, default=42)
    live.add_argument("--uvloop", action="store_true",
                      help="install uvloop as the event-loop policy if "
                           "available (falls back to asyncio with a "
                           "warning when it is not)")
    _add_telemetry_flags(live)

    query = sub.add_parser(
        "query", help="live multi-query plane with runtime registration"
    )
    query.add_argument("--queries", type=int, default=8,
                       help="concurrent queries to register at runtime")
    query.add_argument("--keys", type=int, default=3,
                       help="distinct key selectors to cycle over")
    query.add_argument("--locals", type=int, default=3)
    query.add_argument("--streams", type=int, default=2,
                       help="stream servers per local node")
    query.add_argument("--rate", type=float, default=400.0,
                       help="events/second generated per local node")
    query.add_argument("--duration", type=float, default=4.0,
                       help="workload length in event-time seconds")
    query.add_argument("--transport", default="memory",
                       choices=["tcp", "memory"])
    query.add_argument("--time-scale", type=float, default=0.0,
                       help="wall seconds per event-time second "
                            "(0 = replay unpaced; churn needs > 0)")
    query.add_argument("--churn", action="store_true",
                       help="register joiners and deregister half the "
                            "queries mid-run (needs --time-scale > 0)")
    query.add_argument("--window-ms", type=int, default=1000,
                       help="window length in event-time milliseconds")
    query.add_argument("--gamma", type=int, default=32)
    query.add_argument("--seed", type=int, default=7)

    mesh = sub.add_parser(
        "mesh", help="scale-out mesh: sharded roots, relays, elastic "
                     "membership"
    )
    mesh.add_argument("--locals", "--n-locals", dest="locals",
                      type=int, default=8,
                      help="initial local (edge) node count")
    mesh.add_argument("--streams", "--streams-per-local", dest="streams",
                      type=int, default=1,
                      help="stream servers per local node")
    mesh.add_argument("--shards", type=int, default=2,
                      help="root shard count (window-partitioned)")
    mesh.add_argument("--relay-fanin", type=int, default=0,
                      help="children per relay (0 = no relay tier)")
    mesh.add_argument("--rate", type=float, default=200.0,
                      help="events/second generated per local node")
    mesh.add_argument("--duration", type=float, default=4.0,
                      help="workload length in event-time seconds")
    mesh.add_argument("--transport", default="memory",
                      choices=["tcp", "memory"])
    mesh.add_argument("--time-scale", type=float, default=0.0,
                      help="wall seconds per event-time second (0 = replay "
                           "unpaced; pace the run to watch it serve)")
    mesh.add_argument("--gamma", type=int, default=10_000)
    mesh.add_argument("--q", type=float, default=0.5)
    mesh.add_argument("--seed", type=int, default=42)
    mesh.add_argument("--join", action="append", default=[],
                      metavar="LOCAL@MS",
                      help="add local LOCAL at event-time MS (a window "
                           "boundary); repeatable")
    mesh.add_argument("--leave", action="append", default=[],
                      metavar="LOCAL@MS",
                      help="retire local LOCAL at event-time MS; repeatable")
    _add_telemetry_flags(mesh)

    fleet = sub.add_parser(
        "fleet", help="fleet-telemetry smoke: scrape /fleet mid-run and "
                      "grade the merged digests"
    )
    fleet.add_argument("--locals", "--n-locals", dest="locals",
                       type=int, default=16,
                       help="local (edge) node count")
    fleet.add_argument("--shards", type=int, default=2,
                       help="root shard count")
    fleet.add_argument("--relay-fanin", type=int, default=4,
                       help="children per relay (0 = no relay tier)")
    fleet.add_argument("--rate", type=float, default=300.0,
                       help="events/second generated per local node")
    fleet.add_argument("--duration", type=float, default=6.0,
                       help="workload length in event-time seconds")
    fleet.add_argument("--gamma", type=int, default=10_000)
    fleet.add_argument("--q", type=float, default=0.5)
    fleet.add_argument("--seed", type=int, default=42)
    fleet.add_argument("--time-scale", type=float, default=0.4,
                       help="wall seconds per event-time second; the run "
                            "must be paced so the mid-run /fleet scrape "
                            "sees a serving mesh (0 = unpaced)")

    chaos = sub.add_parser(
        "chaos", help="run a cluster under a named fault scenario"
    )
    chaos.add_argument("--scenario", default="crash-reconnect",
                       help="scenario name (see --list)")
    chaos.add_argument("--list", action="store_true",
                       help="list available scenarios and exit")
    chaos.add_argument("--mode", default="live", choices=["sim", "live"],
                       help="substrate: discrete-event sim or live asyncio")
    chaos.add_argument("--transport", default="memory",
                       choices=["tcp", "memory"],
                       help="live mode transport")
    chaos.add_argument("--locals", type=int, default=2)
    chaos.add_argument("--streams", type=int, default=2,
                       help="stream servers per local (live mode)")
    chaos.add_argument("--rate", type=float, default=300.0)
    chaos.add_argument("--duration", type=float, default=3.0)
    chaos.add_argument("--time-scale", type=float, default=0.3,
                       help="live mode: wall seconds per event-time second")
    chaos.add_argument("--gamma", type=int, default=64)
    chaos.add_argument("--q", type=float, default=0.5)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--shards", type=int, default=0,
                       help="live mode: root shard count (default 1; "
                            "2 for the kill-shard scenarios)")
    chaos.add_argument("--relay-fanin", type=int, default=0,
                       help="live mode: relay fan-in (0 = no relays; "
                            "kill-shard-with-relay defaults to 3)")
    _add_telemetry_flags(chaos)

    top = sub.add_parser(
        "top", help="attach to a serving cluster's telemetry endpoint"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=None,
                     help="telemetry endpoint port (omit to watch a "
                          "self-contained demo cluster)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh period in seconds")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit")
    top.add_argument("--mesh", action="store_true",
                     help="scrape /fleet and render the mesh-wide fleet "
                          "view instead of /summary")

    sweep = sub.add_parser("sweep", help="sweep a parameter over systems")
    sweep.add_argument("--parameter", required=True,
                       choices=["gamma", "n_local_nodes", "event_rate", "q",
                                "loss_rate"])
    sweep.add_argument("--values", required=True,
                       help="comma-separated, e.g. 2,20,200")
    sweep.add_argument("--metric", default="throughput",
                       choices=["throughput", "network_bytes", "latency_p50"])
    sweep.add_argument("--systems", default="dema",
                       help="comma-separated system names")
    sweep.add_argument("--nodes", type=int, default=2)
    sweep.add_argument("--gamma", type=int, default=100)
    sweep.add_argument("--q", type=float, default=0.5)
    sweep.add_argument("--event-rate", type=float, default=2_000.0)
    sweep.add_argument("--csv", default=None, metavar="PATH")

    args = parser.parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "demo": _cmd_demo,
        "quantile": _cmd_quantile,
        "experiments": _cmd_experiments,
        "sweep": _cmd_sweep,
        "trace": _cmd_trace,
        "report": _cmd_report,
        "live": _cmd_live,
        "query": _cmd_query,
        "mesh": _cmd_mesh,
        "fleet": _cmd_fleet,
        "chaos": _cmd_chaos,
        "top": _cmd_top,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
