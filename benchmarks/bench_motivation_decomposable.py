"""Motivation benchmark — the gap Dema fills (paper §1/§2.2).

For decomposable functions (sum), the state of the art ships a
constant-size partial per node per window.  For non-decomposable functions
(median), that option does not exist: before Dema, exact computation meant
shipping every event (Scotty/Desis).  This benchmark measures the gap and
where Dema lands in it.
"""

from repro.baselines.base import build_system
from repro.baselines.partial import build_partial_system
from repro.bench.generator import GeneratorConfig, workload
from repro.bench.reporting import format_bytes, format_table
from repro.bench.workloads import bench_topology, median_query


def run_experiment():
    streams = workload(
        [1, 2], GeneratorConfig(event_rate=10_000.0, duration_s=3.0, seed=41)
    )
    topology = bench_topology(2)
    results = {}
    results["sum (partial agg)"] = float(
        build_partial_system("sum", topology).run(streams).network.total_bytes
    )
    query = median_query(200)
    for label, system in (
        ("median (Dema)", "dema"),
        ("median (Desis)", "desis"),
        ("median (Scotty)", "scotty"),
    ):
        report = build_system(system, query, topology).run(streams)
        results[label] = float(report.network.total_bytes)
    return results


def test_motivation_decomposable_gap(benchmark, once):
    results = once(benchmark, run_experiment)

    rows = [
        [label, format_bytes(value)] for label, value in results.items()
    ]
    print()
    print(format_table(
        ["aggregation", "network bytes"], rows,
        title="Motivation — decomposable vs non-decomposable network cost",
    ))
    benchmark.extra_info.update(results)

    partial = results["sum (partial agg)"]
    dema = results["median (Dema)"]
    scotty = results["median (Scotty)"]
    desis = results["median (Desis)"]
    # Decomposable partials are near-free; raw-event median is the ceiling;
    # Dema closes most of the gap while staying exact.
    assert partial < 0.02 * scotty
    assert dema < 0.10 * scotty
    # Desis ships every event too, as its 8-byte value (Scotty: 20 bytes).
    assert abs(desis - 0.4 * scotty) < 0.02 * scotty
    assert partial < dema
