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
from collections import Counter


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
    """Build a TelemetryConfig from the telemetry flags, if a command has them."""
    if getattr(args, "telemetry_port", None) is None and (
        getattr(args, "flight_recorder", None) is None
    ):
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
    if telemetry.get("fleet"):
        fleet = telemetry["fleet"]
        print(
            f"fleet: {fleet['frames']} telemetry frames "
            f"({fleet['bytes']} bytes), {fleet['digest_count']} digests "
            f"from {len(fleet['senders'])} nodes"
        )


def _wire_line(report) -> str:
    from repro.bench.reporting import format_bytes

    layers = ", ".join(
        f"{layer} {format_bytes(count)}"
        for layer, count in sorted(report.bytes_by_layer.items())
    )
    return f"on the wire: {format_bytes(report.total_bytes)} ({layers})"


def _print_graded(rows, counts, total, *, notes=(), wire=None,
                  label="windows: ") -> None:
    """The one report printer: ``(window, detail)`` lines, then ``notes``,
    the wire line and the recovered/degraded/lost/mismatched line."""
    for window, detail in rows:
        print(f"  window [{window.start / 1000:.0f}s,"
              f"{window.end / 1000:.0f}s): {detail}")
    for note in notes:
        print(note)
    if wire is not None:
        print(_wire_line(wire))
    print(f"{label}{counts['recovered']} recovered, "
          f"{counts['degraded']} degraded, {counts['lost']} lost, "
          f"{counts['mismatch']} mismatched (of {total})")


#: The topology/workload flag group: flag -> (dest, type, help).  Each
#: dest is a field of ClusterConfig, QuantileQuery or GeneratorConfig; a
#: command without the flag gets that type's default.
_CLUSTER_FLAGS = {
    "--locals": ("n_locals", int, "local (edge) node count"),
    "--streams": ("streams_per_local", int, "stream servers per local"),
    "--shards": ("n_shards", int, "root shard count"),
    "--relay-fanin": ("relay_fanin", int, "children per relay (0 = none)"),
    "--transport": ("transport", str, "memory or tcp (localhost)"),
    "--time-scale": ("time_scale", float,
                     "wall seconds per event-time second (0 = unpaced)"),
    "--rate": ("event_rate", float, "events/second per local node"),
    "--duration": ("duration_s", float, "event-time seconds of workload"),
    "--gamma": ("gamma", int, "slices per local window"),
    "--q": ("q", float, "the quantile"),
    "--seed": ("seed", int, "workload and fault-plan seed"),
}


def _add_cluster_flags(parser, *, aggregate_rate=False, **defaults) -> None:
    """Add the flags of :data:`_CLUSTER_FLAGS` whose dest has a default.

    With ``aggregate_rate``, ``--rate`` is the whole cluster's and each
    local generates its share.  A ``None`` default (``chaos``'s shards
    and fan-in) leaves the value to the scenario.
    """
    parser.set_defaults(aggregate_rate=aggregate_rate)
    for flag, (dest, kind, text) in _CLUSTER_FLAGS.items():
        if dest not in defaults:
            continue
        if dest == "event_rate" and aggregate_rate:
            text = "aggregate events/second, split over the locals"
        shown = "scenario's" if defaults[dest] is None else "%(default)s"
        parser.add_argument(
            flag, dest=dest, type=kind, default=defaults.pop(dest),
            choices=("memory", "tcp") if dest == "transport" else None,
            help=f"{text} (default: {shown})",
        )
    assert not defaults, f"not cluster flags: {sorted(defaults)}"


def _configs_from_args(args: argparse.Namespace):
    """The ``(ClusterConfig, GeneratorConfig)`` pair a live command names."""
    from dataclasses import fields

    from repro.bench.generator import GeneratorConfig
    from repro.core.query import QuantileQuery
    from repro.faults.scenarios import get_scenario
    from repro.mesh.config import ClusterConfig

    given = {}
    if args.command == "chaos":  # unset topology flags: the scenario's
        scenario = get_scenario(args.scenario)
        given.update(n_shards=scenario.n_shards,
                     relay_fanin=scenario.relay_fanin)
    for dest, _, _ in _CLUSTER_FLAGS.values():
        if getattr(args, dest, None) is not None:
            given[dest] = getattr(args, dest)

    def of(kind) -> dict:
        return {f.name: given[f.name] for f in fields(kind) if f.name in given}

    config = ClusterConfig(
        query=QuantileQuery(**of(QuantileQuery)),
        timeout_s=120.0,
        membership=_parse_membership(args),
        telemetry=_telemetry_from_args(args),
        **of(ClusterConfig),
    )
    if args.aggregate_rate:
        given["event_rate"] = max(1.0, given["event_rate"] / config.n_locals)
    return config, GeneratorConfig(**of(GeneratorConfig))


def _parse_membership(args: argparse.Namespace):
    """Parse repeated ``--join``/``--leave LOCAL@MS`` flags into events."""
    from repro.mesh import MembershipEvent

    events = []
    for kind in ("join", "leave"):
        for spec in getattr(args, kind, ()):
            local_raw, _, at_raw = spec.partition("@")
            try:
                local_id, at_ms = int(local_raw), int(at_raw)
            except ValueError:
                raise SystemExit(f"error: --{kind} expects LOCAL@MS "
                                 f"(e.g. 5@2000), got {spec!r}")
            events.append(MembershipEvent(at_ms, local_id, kind))
    return tuple(sorted(events, key=lambda e: (e.at_ms, e.local_id)))


def _run_cluster(config, generator, **run_kwargs):
    """Run one live cluster, grade it against the oracle, print the report.

    ``repro live``, ``mesh`` and ``fleet`` all run through here; returns
    the run report and its grade counts.
    """
    from repro.bench.generator import workload
    from repro.bench.reporting import format_bytes
    from repro.mesh import run_mesh
    from repro.mesh.cluster import served_windows
    from repro.testing import grade, oracle

    joiners = [e.local_id for e in config.membership if e.kind == "join"]
    streams = workload(list(range(1, config.n_locals + 1)) + joiners, generator)
    report = run_mesh(config, streams, **run_kwargs)
    events, starts = served_windows(streams, config)
    (truth,) = oracle(events, starts, config.query.window_length_ms, [config.query.q])
    counts = Counter(verdict for _, verdict, _ in grade(truth, report.outcomes))

    tier = (f"relay fan-in {config.relay_fanin}" if config.relay_fanin
            else "flat (no relay tier)")
    print(f"live cluster over {config.transport}: {config.n_shards} root "
          f"shard{'s' if config.n_shards != 1 else ''}, {tier}, "
          f"{config.n_locals} locals × {config.streams_per_local} streams")
    print(f"replayed {report.events_sent} events in "
          f"{report.wall_seconds:.3f}s wall "
          f"({report.events_per_second:,.0f} events/s)")
    notes = []
    if config.membership:
        notes.append(f"membership: {len(joiners)} joins, "
                     f"{len(config.membership) - len(joiners)} leaves; "
                     f"members now {report.members}, "
                     f"shard epochs {report.membership_epochs}")
    stats = report.seal_to_result
    if stats.count:
        notes.append(f"seal→result latency: p50 {stats.p50 * 1e3:.2f} ms  "
                     f"p95 {stats.p95 * 1e3:.2f} ms  "
                     f"max {stats.max * 1e3:.2f} ms")
    relayed = (f" ({report.relay_frames_combined} relay-combined frames, "
               f"{report.relay_sections_combined} sections)")
    notes.append(f"root ingress: {format_bytes(report.root_ingress_bytes)}"
                 + (relayed if config.relay_fanin else ""))
    rows = [
        (window, f"q{config.query.q:g}={outcome.value:10.4f}  "
                 f"n={outcome.global_window_size:<7d} "
                 f"candidates={outcome.candidate_events}")
        for window, outcome in sorted(report.outcome_by_window().items())
        if outcome.value is not None
    ]
    _print_graded(rows, counts, report.windows, notes=notes, wire=report)
    return report, counts


def _cmd_mesh(args: argparse.Namespace) -> int:
    report, counts = _run_cluster(*_configs_from_args(args))
    _print_telemetry(report.telemetry)
    if counts["mismatch"]:
        print("MISMATCHED WINDOWS: values diverged at full completeness "
              "— protocol bug")
        return 1
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.queries.runner import run_query_scenario

    config, generator = _configs_from_args(args)
    report = run_query_scenario(
        config, generator, n_queries=args.queries, n_keys=args.keys,
        window_ms=args.window_ms, churn=args.churn,
    )
    print(f"multi-query plane over {config.transport}: "
          f"{report.n_registered} queries registered "
          f"({report.n_deregistered} deregistered mid-run), "
          f"{report.groups} shared-cut groups")
    print(f"served {report.results_served} results "
          f"({report.queries_per_second:,.1f} results/s), "
          f"graded {report.results_graded} against the oracle")
    print(f"identification cuts: {report.identification_cuts} "
          f"({report.duplicate_cuts} duplicated per (selector, γ, window))")
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


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.runner import UnfiredFaultError, run_chaos
    from repro.faults.scenarios import SCENARIOS

    if args.list:
        for name, scenario in SCENARIOS.items():
            print(f"{name:<16} {scenario.description}")
        return 0
    config, generator = _configs_from_args(args)
    unfired = None
    try:
        report = run_chaos(args.scenario, config, generator)
    except UnfiredFaultError as exc:
        report, unfired = exc.report, exc
    print(f"chaos scenario {report.scenario!r} on the live cluster "
          f"(seed {report.seed})")
    print("fault events applied:")
    for line in report.applied or ["(none)"]:
        print(f"  {line}")
    print()
    _print_graded(sorted(report.classes.items()), report.class_counts,
                  report.windows, notes=[""], label="windows  : ")
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
    elif report.lost:
        print("LOST WINDOWS: some windows were never answered")
    elif unfired:
        print(f"UNFIRED FAULT: {unfired}")
        return 3
    return 1 if report.mismatched or report.lost else 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Fleet telemetry smoke: run a mesh, scrape /fleet mid-run, grade it.

    The CI gate: a telemetry-enabled mesh run whose ``/fleet`` endpoint
    is scraped *while the cluster serves* (so the run must be paced: an
    unpaced mesh starves the HTTP plane), asserting a nonzero merged
    digest count, then grading the fleet's merged seal→result
    percentiles against the central ones, and finally bounding the
    digest-vs-raw byte cost at 10%.
    """
    import asyncio
    import queue
    from dataclasses import replace

    from repro.obs.fleet import fleet_benchmark
    from repro.obs.live.config import TelemetryConfig
    from repro.obs.live.top import fetch_json, render_fleet

    ports: "queue.Queue[int]" = queue.Queue()
    config, generator = _configs_from_args(args)
    config = replace(config, telemetry=TelemetryConfig(
        http_port=0, announce=ports.put, sampler_interval_s=0.02))
    scraped: dict = {}

    async def scrape_mid_run(ctx) -> None:
        port = ports.get(timeout=5.0)
        # Keep scraping until the collector holds merged digests (or the
        # run ends and cancels us) — the last successful scrape wins.
        while not scraped.get("digest_count"):
            try:
                scraped.update(await asyncio.to_thread(
                    fetch_json, "127.0.0.1", port, "/fleet", 2.0))
            except Exception:
                pass
            await asyncio.sleep(0.02)

    report, counts = _run_cluster(config, generator, disturb=scrape_mid_run)
    final = report.telemetry["fleet"]
    mid = scraped or final
    print(f"  mid-run /fleet scrape: {mid['frames']} frames, "
          f"{mid['digest_count']} digests"
          + ("" if scraped else " (run outpaced the scraper; final view)"))
    print(render_fleet(final))
    failures = []
    if final["digest_count"] <= 0:
        failures.append("no merged telemetry digests")
    if counts["mismatch"] or counts["lost"]:
        failures.append(f"oracle divergence {counts}")
    merged = final["metrics"].get("seal_to_result_s", {})
    central = report.seal_to_result
    if central.count and not merged.get("count"):
        failures.append("fleet view has no seal→result digest")
    elif central.count:
        # The shard digests are built from exactly the samples the
        # central LatencyStats aggregates, so the comparison is only
        # bounded by t-digest interpolation.
        for name, reference in (("p50", central.p50), ("p95", central.p95)):
            got, bound = merged[name], max(0.05 * reference, 1e-4)
            print(f"  seal→result {name}: fleet {got * 1e3:.3f} ms vs "
                  f"central {reference * 1e3:.3f} ms")
            if abs(got - reference) > bound:
                failures.append(f"fleet {name} diverges from the central "
                                f"oracle by more than {bound * 1e3:.3f} ms")
    curve = fleet_benchmark(seed=args.seed)["curve"]
    for point in curve:
        print(f"  {point['n_locals']:>4} locals: digest uplink "
              f"{point['digest_uplink_bytes']:>9} B vs raw "
              f"{point['raw_sample_bytes']:>11} B "
              f"({point['digest_fraction_of_raw']:.1%})")
    worst = max(point["digest_fraction_of_raw"] for point in curve)
    if worst > 0.10:
        failures.append(f"digest uplink costs {worst:.1%} of raw-sample "
                        "shipping at some fleet size (bound: 10%)")
    for failure in failures:
        print(f"SMOKE FAILED: {failure}")
    if failures:
        return 1
    print("fleet telemetry plane healthy; digests within the byte budget")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.live.top import run_top

    return run_top(args.host, args.port, interval_s=args.interval,
                   once=args.once, mesh=args.mesh)


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench import runner

    forwarded: list[str] = list(args.figures)
    if args.all:
        forwarded.append("--all")
    if args.quick:
        forwarded.append("--quick")
    return runner.main(forwarded)


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """Shared live-telemetry flags for ``live``, ``mesh`` and ``chaos``."""
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


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        sub_parser = sub.add_parser(name, help=help)
        sub_parser.set_defaults(handler=handler)
        return sub_parser

    command("info", _cmd_info, "package and experiment inventory")

    demo = command("demo", _cmd_demo, "guided demonstration")
    demo.add_argument("--seed", type=int, default=42)

    quantile = command("quantile", _cmd_quantile, "one decentralized quantile")
    quantile.add_argument("--q", type=float, default=0.5)
    quantile.add_argument("--gamma", type=int, default=100)
    quantile.add_argument("--nodes", type=int, default=3)
    quantile.add_argument("--events-per-node", type=int, default=10_000)
    quantile.add_argument("--seed", type=int, default=42)

    experiments = command("experiments", _cmd_experiments,
                          "regenerate paper figures")
    experiments.add_argument("figures", nargs="*")
    experiments.add_argument("--all", action="store_true")
    experiments.add_argument("--quick", action="store_true")

    trace = command("trace", _cmd_trace,
                    "run a named scenario under the recording tracer")
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

    report = command("report", _cmd_report,
                     "per-phase latency/byte breakdown of a JSONL trace")
    report.add_argument("trace", help="path to a .trace.jsonl file")

    # The live commands: one topology/workload flag group, per-command
    # defaults (README.md, "Topology flags", tabulates them).
    live = command("live", _cmd_mesh,
                   "run a live asyncio cluster (real wire protocol)")
    _add_cluster_flags(
        live, aggregate_rate=True, n_locals=2, streams_per_local=2,
        transport="tcp", time_scale=1.0, event_rate=20_000.0,
        duration_s=3.0, gamma=100, q=0.5, seed=42,
    )
    _add_telemetry_flags(live)

    query = command("query", _cmd_query,
                    "live multi-query plane with runtime registration")
    _add_cluster_flags(
        query, n_locals=3, streams_per_local=2, transport="memory",
        time_scale=0.0, event_rate=400.0, duration_s=4.0, gamma=32, seed=7,
    )
    query.add_argument("--queries", type=int, default=8,
                       help="concurrent queries to register at runtime")
    query.add_argument("--keys", type=int, default=3,
                       help="distinct key selectors to cycle over")
    query.add_argument("--churn", action="store_true",
                       help="register joiners and deregister half the "
                            "queries mid-run (needs --time-scale > 0)")
    query.add_argument("--window-ms", type=int, default=1000,
                       help="window length in event-time milliseconds")

    mesh = command("mesh", _cmd_mesh,
                   "scale-out mesh: sharded roots, relays, elastic membership")
    _add_cluster_flags(
        mesh, n_locals=8, streams_per_local=1, n_shards=2, relay_fanin=0,
        transport="memory", time_scale=0.0, event_rate=200.0,
        duration_s=4.0, gamma=10_000, q=0.5, seed=42,
    )
    for kind, text in (("join", "add local LOCAL at event-time MS (a "
                                "window boundary)"),
                       ("leave", "retire local LOCAL at event-time MS")):
        mesh.add_argument(f"--{kind}", action="append", default=[],
                          metavar="LOCAL@MS", help=f"{text}; repeatable")
    _add_telemetry_flags(mesh)

    fleet = command("fleet", _cmd_fleet, "fleet-telemetry smoke: scrape "
                    "/fleet mid-run and grade the merged digests")
    _add_cluster_flags(
        fleet, n_locals=16, n_shards=2, relay_fanin=4, time_scale=0.4,
        event_rate=300.0, duration_s=6.0, gamma=10_000, q=0.5, seed=42,
    )

    chaos = command("chaos", _cmd_chaos,
                    "run a cluster under a named fault scenario (exit 1 on "
                    "a lost or mismatched window, 3 if the fault never fired)")
    _add_cluster_flags(
        chaos, aggregate_rate=True, n_locals=2, streams_per_local=2,
        n_shards=None, relay_fanin=None, transport="memory", time_scale=0.3,
        event_rate=300.0, duration_s=3.0, gamma=64, q=0.5, seed=7,
    )
    chaos.add_argument("--scenario", default="crash-reconnect",
                       help="scenario name (see --list)")
    chaos.add_argument("--list", action="store_true",
                       help="list available scenarios and exit")
    _add_telemetry_flags(chaos)

    top = command("top", _cmd_top,
                  "attach to a serving cluster's telemetry endpoint")
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

    sweep = command("sweep", _cmd_sweep, "sweep a parameter over systems")
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
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    A :class:`~repro.errors.ConfigurationError` from any command becomes
    one ``error: …`` line on stderr and exit status 2.
    """
    from repro.errors import ConfigurationError

    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
