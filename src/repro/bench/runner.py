"""Regenerates every figure of the paper's evaluation section.

Each ``exp_*`` function reproduces one figure and returns structured data;
``main`` runs a selection and prints the tables recorded in EXPERIMENTS.md.

Usage::

    python -m repro.bench.runner --all          # every experiment (slow)
    python -m repro.bench.runner fig5a fig7b    # a selection
    python -m repro.bench.runner --quick        # scaled-down smoke pass
"""

from __future__ import annotations

import argparse
import sys
from typing import Mapping

import numpy as np

from repro.network.metrics import LatencyStats
from repro.bench.accuracy import accuracy_vs_ground_truth
from repro.bench.charts import bar_chart, series_chart
from repro.bench.generator import GeneratorConfig, SensorStreamGenerator, workload
from repro.bench.harness import (
    ThroughputResult,
    capacity_estimate,
    measure_latency,
    run_workload,
    sustainable_throughput,
)
from repro.bench.reporting import (
    format_bytes,
    format_rate,
    format_seconds,
    format_table,
)
from repro.bench.workloads import BENCH_GAMMA, bench_topology, median_query
from repro.streaming.columns import EventColumns, concat_columns

# Hot-path module: experiment streams are built as columns; no per-event
# ``Event`` here (enforced by tests/test_hotpath_lint.py).

__all__ = [
    "exp_fig5a",
    "exp_fig5b",
    "exp_fig6a",
    "exp_fig6b",
    "exp_fig7a",
    "exp_fig7b",
    "exp_fig8a",
    "exp_fig8b",
    "exp_ablation_window_cut",
    "exp_ablation_adaptive_gamma",
    "exp_ablation_bandwidth",
    "main",
]

_FIG5_SYSTEMS = ("dema", "scotty", "desis", "tdigest")


def exp_fig5a(*, iterations: int = 8, seed: int = 42) -> dict[str, ThroughputResult]:
    """Figure 5a: maximum sustainable throughput, 1 root + 2 locals."""
    topology = bench_topology(2)
    query = median_query(BENCH_GAMMA)
    return {
        system: sustainable_throughput(
            system, query, topology, iterations=iterations, seed=seed
        )
        for system in _FIG5_SYSTEMS
    }


def exp_fig5b(
    throughputs: Mapping[str, ThroughputResult] | None = None,
    *,
    seed: int = 42,
) -> dict[str, LatencyStats]:
    """Figure 5b: latency under a common load every system sustains.

    The paper reports latency "under the same topology and conditions as the
    throughput experiment"; with identical inputs required for a fair
    latency comparison, the common rate is 90 % of the *slowest* system's
    sustainable rate.
    """
    topology = bench_topology(2)
    query = median_query(BENCH_GAMMA)
    if throughputs is None:
        throughputs = {
            system: capacity_estimate(system, query, topology, seed=seed)
            for system in _FIG5_SYSTEMS
        }
    common_rate = 0.9 * min(t.per_node_rate for t in throughputs.values())
    return {
        system: measure_latency(
            system, query, topology, common_rate, seed=seed
        )
        for system in _FIG5_SYSTEMS
    }


def _scaled_gamma(expected_global_window: float) -> int:
    """γ sized for the expected window via the paper's cost model.

    The paper's γ=10 000 is chosen for its ~10⁶-event windows; at other
    window sizes the comparable choice is the Section 3.3 optimum with a
    typical candidate count of a few slices.
    """
    from repro.core.adaptive import optimal_gamma

    return optimal_gamma(max(int(expected_global_window), 1), 4)


def exp_fig6a(
    *, per_node_rate: float = 50_000.0, n_windows: int = 3, seed: int = 42
) -> dict[str, dict[str, float]]:
    """Figure 6a: network utilization on a fixed event volume, 2 locals.

    Network cost is byte-exact and independent of CPU budgets, so this runs
    a larger volume than the throughput probes.  γ is set near the cost
    model's optimum for the window size (see :func:`_scaled_gamma`).
    """
    topology = bench_topology(2)
    query = median_query(_scaled_gamma(2 * per_node_rate))
    config = GeneratorConfig(
        event_rate=per_node_rate, duration_s=float(n_windows), seed=seed
    )
    streams = workload(range(1, 3), config)
    results: dict[str, dict[str, float]] = {}
    scotty_bytes: float | None = None
    for system in ("scotty", "desis", "dema", "tdigest"):
        report = run_workload(system, query, topology, streams)
        total = float(report.network.total_bytes)
        if system == "scotty":
            scotty_bytes = total
        assert scotty_bytes is not None
        results[system] = {
            "bytes": total,
            "reduction_vs_scotty": 1.0 - total / scotty_bytes,
        }
    return results


def exp_fig6b(
    *,
    node_counts: tuple[int, ...] = (2, 4, 6, 8),
    per_node_rate: float = 5_000.0,
    n_windows: int = 3,
    seed: int = 42,
) -> dict[str, dict[int, float]]:
    """Figure 6b: total network cost as local nodes are added."""
    results: dict[str, dict[int, float]] = {
        s: {} for s in ("scotty", "desis", "dema")
    }
    for n_nodes in node_counts:
        query = median_query(_scaled_gamma(n_nodes * per_node_rate))
        topology = bench_topology(n_nodes)
        config = GeneratorConfig(
            event_rate=per_node_rate, duration_s=float(n_windows), seed=seed
        )
        streams = workload(range(1, n_nodes + 1), config)
        for system in results:
            report = run_workload(system, query, topology, streams)
            results[system][n_nodes] = float(report.network.total_bytes)
    return results


def exp_fig7a(
    *,
    node_counts: tuple[int, ...] = (2, 4, 6, 8),
    seed: int = 42,
) -> dict[str, dict[int, float]]:
    """Figure 7a: aggregate throughput scalability with node count."""
    query = median_query(BENCH_GAMMA)
    results: dict[str, dict[int, float]] = {
        s: {} for s in ("dema", "desis", "scotty")
    }
    for n_nodes in node_counts:
        topology = bench_topology(n_nodes)
        for system in results:
            estimate = capacity_estimate(
                system, query, topology, seed=seed
            )
            results[system][n_nodes] = estimate.aggregate_rate
    return results


def exp_fig7b(
    *, per_node_rate: float = 3_000.0, n_windows: int = 8, seed: int = 42
) -> dict[str, float]:
    """Figure 7b: accuracy (1 − MPE) against Scotty's exact results."""
    topology = bench_topology(2)
    query = median_query(BENCH_GAMMA)
    config = GeneratorConfig(
        event_rate=per_node_rate, duration_s=float(n_windows), seed=seed
    )
    streams = workload(range(1, 3), config)
    truths_by_window = {
        record.window: record.value
        for record in run_workload("scotty", query, topology, streams).outcomes
        if record.value is not None
    }
    results: dict[str, float] = {"scotty": 1.0}
    for system in ("dema", "tdigest"):
        report = run_workload(system, query, topology, streams)
        estimates, truths = [], []
        for record in report.outcomes:
            truth = truths_by_window.get(record.window)
            if record.value is not None and truth is not None:
                estimates.append(record.value)
                truths.append(truth)
        results[system] = accuracy_vs_ground_truth(estimates, truths)
    return results


def exp_fig8a(
    *, quantiles: tuple[float, ...] = (0.25, 0.5, 0.75), iterations: int = 7,
    seed: int = 42,
) -> dict[float, ThroughputResult]:
    """Figure 8a: Dema throughput across quantile functions."""
    topology = bench_topology(2)
    return {
        q: sustainable_throughput(
            "dema",
            median_query(BENCH_GAMMA, q=q),
            topology,
            iterations=iterations,
            seed=seed,
        )
        for q in quantiles
    }


def exp_fig8b(
    *,
    gammas: tuple[int, ...] = (2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000),
    seed: int = 42,
) -> dict[str, dict[int, float]]:
    """Figure 8b: Dema throughput vs γ for three scale-rate configs, q=30%.

    Dema #1 runs both locals at scale rate 1, #2 at (1, 2) and #10 at
    (1, 10); skewed configs put the 30 % quantile on the denser side.
    """
    topology = bench_topology(2)
    configs = {
        "dema#1": {1: 1.0, 2: 1.0},
        "dema#2": {1: 1.0, 2: 2.0},
        "dema#10": {1: 1.0, 2: 10.0},
    }
    results: dict[str, dict[int, float]] = {}
    for label, scale_rates in configs.items():
        series: dict[int, float] = {}
        for gamma in gammas:
            estimate = capacity_estimate(
                "dema",
                median_query(gamma, q=0.3),
                topology,
                seed=seed,
                scale_rates=scale_rates,
            )
            series[gamma] = estimate.aggregate_rate
        results[label] = series
    return results


def exp_ablation_window_cut(
    *, per_node_rate: float = 5_000.0, n_windows: int = 4, seed: int = 42
) -> dict[str, float]:
    """Ablation A1: candidate events with and without window-cut pruning.

    Without pruning, the whole overlap unit containing the quantile rank is
    fetched; window-cut keeps only members whose rank bounds reach the rank.
    """
    from repro.core.identification import identify_frame
    from repro.core.slicing import slice_sorted_events
    from repro.core.sorted_window import SortedLocalWindow
    from repro.core.units import build_units

    config = GeneratorConfig(
        event_rate=per_node_rate, duration_s=float(n_windows), seed=seed
    )
    streams = workload(range(1, 3), config)
    per_window: dict = {}
    for node_id, events in streams.items():
        for start, rows in events.by_window(1000):
            per_window.setdefault(start, {})[node_id] = rows

    cut_total = 0
    unit_total = 0
    window_total = 0
    for window_events in per_window.values():
        sliced = {
            node_id: slice_sorted_events(
                SortedLocalWindow(events).seal(), BENCH_GAMMA, node_id
            )
            for node_id, events in window_events.items()
        }
        (plan,) = identify_frame([(
            {n: s.synopses for n, s in sliced.items()},
            {n: s.window_size for n, s in sliced.items()},
            (0.5,),
        )])
        cut_total += plan.candidate_events
        (rank,) = plan.ranks
        for unit in build_units(
            [row for s in sliced.values() for row in s.synopses]
        ):
            if unit.contains_rank(rank):
                unit_total += unit.size
        window_total += plan.global_window_size
    return {
        "candidate_events_with_cut": float(cut_total),
        "candidate_events_without_cut": float(unit_total),
        "total_events": float(window_total),
    }


def _drifting_streams(n_windows: int, seed: int) -> dict[int, EventColumns]:
    """Ablation A2's two streams: each one-second window generated at its
    own rate and shifted to its place, ``seq`` counting on across them."""
    streams: dict[int, EventColumns] = {}
    for node_id in (1, 2):
        windows = []
        seq = 0
        for window_index in range(n_windows):
            rate = int(1_500 * (1.0 + 0.8 * np.sin(window_index / 2.0)))
            generator = SensorStreamGenerator(GeneratorConfig(
                event_rate=rate, duration_s=1.0,
                seed=seed + window_index, replay_offset=node_id,
            ))
            values = generator.values(node_id)
            windows.append(EventColumns.from_arrays(
                values,
                generator.timestamps(node_id) + window_index * 1000,
                node_id,
                np.arange(seq, seq + len(values)),
            ))
            seq += len(values)
        streams[node_id] = concat_columns(windows)
    return streams


def exp_ablation_adaptive_gamma(
    *, n_windows: int = 10, seed: int = 42
) -> dict[str, float]:
    """Ablation A2: adaptive γ vs fixed extremes under a drifting rate."""
    topology = bench_topology(2)
    streams = _drifting_streams(n_windows, seed)
    results: dict[str, float] = {}
    for label, gamma, adaptive in (
        ("fixed γ=2", 2, False),
        ("fixed γ=50", 50, False),
        ("fixed γ=2000", 2000, False),
        ("adaptive", 50, True),
    ):
        query = median_query(gamma, adaptive=adaptive)
        report = run_workload("dema", query, topology, streams)
        results[label] = float(report.network.total_bytes)
    return results


def exp_ablation_bandwidth() -> dict[str, dict[str, float]]:
    """Ablation A3: latency under constrained (500 kbit/s) uplinks."""
    import importlib.util
    import os

    path = os.path.join(
        os.path.dirname(__file__), "..", "..", "..",
        "benchmarks", "bench_ablation_bandwidth.py",
    )
    path = os.path.normpath(path)
    if not os.path.exists(path):  # installed without the benchmarks tree
        def latencies(bps):
            query = median_query(gamma=100)
            topology = bench_topology(2, uplink_bandwidth_bps=bps)
            streams = workload(
                [1, 2],
                GeneratorConfig(event_rate=700.0, duration_s=6.0, seed=31),
            )
            return {
                system: run_workload(system, query, topology, streams).latency.p50
                for system in ("dema", "scotty", "desis", "tdigest")
            }

        return {
            "datacenter": latencies(25e9 / 8),
            "constrained": latencies(5e5 / 8),
        }
    spec = importlib.util.spec_from_file_location("bench_a3", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    results = module.run_experiment()
    return {
        "datacenter": results["datacenter"],
        "constrained": results["wifi"],
    }


def _print_ablation_bandwidth(results: dict[str, dict[str, float]]) -> None:
    datacenter, constrained = results["datacenter"], results["constrained"]
    rows = [
        [
            system,
            format_seconds(datacenter[system]),
            format_seconds(constrained[system]),
            f"{constrained[system] / datacenter[system]:.2f}x",
        ]
        for system in datacenter
    ]
    print(format_table(
        ["system", "25 Gbit/s p50", "500 kbit/s p50", "slowdown"], rows,
        title="Ablation A3 — latency under constrained uplinks",
    ))


def _print_fig5a(results: dict[str, ThroughputResult]) -> None:
    ordered = sorted(results.items(), key=lambda kv: -kv[1].aggregate_rate)
    rows = [
        [system, format_rate(r.per_node_rate), format_rate(r.aggregate_rate)]
        for system, r in ordered
    ]
    print(format_table(
        ["system", "per-node", "aggregate"], rows,
        title="Figure 5a — maximum sustainable throughput (2 local nodes)",
    ))
    print(bar_chart(
        [system for system, _ in ordered],
        [r.aggregate_rate for _, r in ordered],
        fmt=format_rate,
    ))


def _print_fig5b(results: dict[str, LatencyStats]) -> None:
    ordered = sorted(results.items(), key=lambda kv: kv[1].p50)
    rows = [
        [system, format_seconds(lat.p50), format_seconds(lat.p95)]
        for system, lat in ordered
    ]
    print(format_table(
        ["system", "latency p50", "latency p95"], rows,
        title="Figure 5b — latency at a common sustainable rate",
    ))
    print(bar_chart(
        [system for system, _ in ordered],
        [lat.p50 for _, lat in ordered],
        fmt=format_seconds,
    ))


def _print_fig6a(results: dict[str, dict[str, float]]) -> None:
    rows = [
        [
            system,
            format_bytes(data["bytes"]),
            f"{data['reduction_vs_scotty']:.1%}",
        ]
        for system, data in results.items()
    ]
    print(format_table(
        ["system", "network bytes", "reduction vs Scotty"], rows,
        title="Figure 6a — network utilization (fixed volume, 2 locals)",
    ))


def _print_series(
    title: str,
    results: dict[str, dict[int, float]],
    *,
    x_label: str,
    fmt=format_bytes,
) -> None:
    xs = sorted(next(iter(results.values())))
    headers = [x_label] + list(results)
    rows = [
        [str(x)] + [fmt(results[system][x]) for system in results]
        for x in xs
    ]
    print(format_table(headers, rows, title=title))
    print(series_chart(
        xs,
        {system: [results[system][x] for x in xs] for system in results},
        fmt=fmt,
    ))


def _print_fig7b(results: dict[str, float]) -> None:
    rows = [[system, f"{accuracy:.4%}"] for system, accuracy in results.items()]
    print(format_table(
        ["system", "accuracy (1-MPE)"], rows,
        title="Figure 7b — accuracy vs Scotty ground truth",
    ))


def _print_fig8a(results: dict[float, ThroughputResult]) -> None:
    rows = [
        [f"{q:.0%}", format_rate(r.aggregate_rate)]
        for q, r in sorted(results.items())
    ]
    print(format_table(
        ["quantile", "aggregate throughput"], rows,
        title="Figure 8a — Dema throughput across quantile functions",
    ))


def _print_ablation_window_cut(results: dict[str, float]) -> None:
    rows = [[key, f"{value:,.0f}"] for key, value in results.items()]
    print(format_table(
        ["metric", "events"], rows,
        title="Ablation A1 — window-cut pruning",
    ))


def _print_ablation_adaptive(results: dict[str, float]) -> None:
    rows = [[key, format_bytes(value)] for key, value in results.items()]
    print(format_table(
        ["policy", "network bytes"], rows,
        title="Ablation A2 — adaptive γ under drifting rates",
    ))


def _serialize(value):
    """Convert experiment results into JSON-compatible structures."""
    if isinstance(value, ThroughputResult):
        return {
            "system": value.system,
            "per_node_rate": value.per_node_rate,
            "aggregate_rate": value.aggregate_rate,
        }
    if isinstance(value, LatencyStats):
        return {"p50": value.p50, "p95": value.p95, "mean": value.mean}
    if isinstance(value, dict):
        return {str(key): _serialize(item) for key, item in value.items()}
    return value


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; prints the tables recorded in EXPERIMENTS.md."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*", help="fig5a fig5b ... or empty")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument(
        "--quick", action="store_true",
        help="scaled-down pass (fewer iterations, smaller volumes)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the measured series to a JSON file",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="run one traced Dema deployment under the benchmark workload "
        "and write a Chrome trace_event file to PATH",
    )
    args = parser.parse_args(argv)
    collected: dict = {}

    if args.trace is not None:
        from repro.obs import RecordingTracer
        from repro.obs.export import write_chrome_trace

        tracer = RecordingTracer()
        run_workload(
            "dema",
            median_query(BENCH_GAMMA),
            bench_topology(2),
            workload(
                [1, 2],
                GeneratorConfig(event_rate=2_000.0, duration_s=4.0, seed=42),
            ),
            tracer=tracer,
        )
        n_events = write_chrome_trace(args.trace, tracer)
        print(f"wrote {args.trace} ({n_events} trace events)")
        if not (args.all or args.quick or args.experiments):
            return 0

    selected = set(args.experiments)
    if args.all or (not selected and not args.quick):
        selected = {
            "fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b",
            "fig8a", "fig8b", "ablation_window_cut",
            "ablation_adaptive_gamma", "ablation_bandwidth",
        }
    if args.quick and not selected:
        selected = {"fig5a", "fig6a", "fig7b"}

    iterations = 5 if args.quick else 8
    fig5a_results = None
    if "fig5a" in selected:
        fig5a_results = exp_fig5a(iterations=iterations)
        collected["fig5a"] = fig5a_results
        _print_fig5a(fig5a_results)
        print()
    if "fig5b" in selected:
        results = exp_fig5b(fig5a_results)
        collected["fig5b"] = results
        _print_fig5b(results)
        print()
    if "fig6a" in selected:
        rate = 10_000.0 if args.quick else 50_000.0
        results = exp_fig6a(per_node_rate=rate)
        collected["fig6a"] = results
        _print_fig6a(results)
        print()
    if "fig6b" in selected:
        results = exp_fig6b()
        collected["fig6b"] = results
        _print_series(
            "Figure 6b — network cost vs local node count",
            results, x_label="nodes",
        )
        print()
    if "fig7a" in selected:
        results = exp_fig7a()
        collected["fig7a"] = results
        _print_series(
            "Figure 7a — aggregate throughput vs local node count",
            results, x_label="nodes", fmt=format_rate,
        )
        print()
    if "fig7b" in selected:
        results = exp_fig7b()
        collected["fig7b"] = results
        _print_fig7b(results)
        print()
    if "fig8a" in selected:
        results = exp_fig8a(iterations=5 if args.quick else 7)
        collected["fig8a"] = results
        _print_fig8a(results)
        print()
    if "fig8b" in selected:
        results = exp_fig8b()
        collected["fig8b"] = results
        _print_series(
            "Figure 8b — Dema throughput vs γ (q=30%)",
            results, x_label="gamma", fmt=format_rate,
        )
        print()
    if "ablation_window_cut" in selected:
        results = exp_ablation_window_cut()
        collected["ablation_window_cut"] = results
        _print_ablation_window_cut(results)
        print()
    if "ablation_adaptive_gamma" in selected:
        results = exp_ablation_adaptive_gamma()
        collected["ablation_adaptive_gamma"] = results
        _print_ablation_adaptive(results)
        print()
    if "ablation_bandwidth" in selected:
        results = exp_ablation_bandwidth()
        collected["ablation_bandwidth"] = results
        _print_ablation_bandwidth(results)
        print()
    if args.json is not None:
        import json

        with open(args.json, "w") as handle:
            json.dump(_serialize(collected), handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
