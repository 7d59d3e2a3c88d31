"""Extension benchmark — concurrent query sharing.

Measures the network cost of serving N same-window quantile queries from
one shared deployment versus N independent deployments.  The shared run
ships synopses once per window and fetches the union of candidate slices,
so its cost grows far slower than linearly in the query count.
"""

from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.bench.generator import GeneratorConfig, workload
from repro.bench.reporting import format_bytes, format_table
from repro.bench.workloads import bench_topology

#: Spread quantiles: only the synopsis transfer is shared (candidate
#: slices are disjoint across ranks).
SPREAD = (0.1, 0.25, 0.5, 0.75, 0.9)

#: Tight quantiles: the ranks fall in the same slices, so candidate
#: fetches are shared as well.
TIGHT = (0.49, 0.495, 0.5, 0.505, 0.51)


def _compare(quantiles, streams):
    queries = [
        QuantileQuery(q=q, window_length_ms=1000, gamma=120)
        for q in quantiles
    ]
    shared_engine = DemaEngine(queries, bench_topology(2))
    shared = shared_engine.run(streams)
    separate_bytes = 0
    for query in queries:
        engine = DemaEngine(query, bench_topology(2))
        separate_bytes += engine.run(streams).network.total_bytes
    return shared, float(separate_bytes)


def run_experiment():
    streams = workload(
        [1, 2], GeneratorConfig(event_rate=3_000.0, duration_s=3.0, seed=17)
    )
    spread_shared, spread_separate = _compare(SPREAD, streams)
    tight_shared, tight_separate = _compare(TIGHT, streams)

    median_query = QuantileQuery(q=0.5, window_length_ms=1000, gamma=120)
    truth_engine = DemaEngine(median_query, bench_topology(2))
    truth = {o.window: o.value for o in truth_engine.run(streams).outcomes}
    median_outcomes = spread_shared.outcomes_for(SPREAD.index(0.5))
    agreement = all(
        outcome.value == truth[outcome.window] for outcome in median_outcomes
    )
    return {
        "spread_shared_bytes": float(spread_shared.network.total_bytes),
        "spread_separate_bytes": spread_separate,
        "tight_shared_bytes": float(tight_shared.network.total_bytes),
        "tight_separate_bytes": tight_separate,
        "median_agrees": agreement,
    }


def test_concurrent_query_sharing(benchmark, once):
    results = once(benchmark, run_experiment)

    rows = [
        ["5 spread q's, shared", format_bytes(results["spread_shared_bytes"])],
        ["5 spread q's, separate", format_bytes(results["spread_separate_bytes"])],
        ["5 tight q's, shared", format_bytes(results["tight_shared_bytes"])],
        ["5 tight q's, separate", format_bytes(results["tight_separate_bytes"])],
    ]
    print()
    print(format_table(
        ["configuration", "network bytes"], rows,
        title="Extension — concurrent query sharing",
    ))
    benchmark.extra_info.update(
        {k: v for k, v in results.items() if k != "median_agrees"}
    )

    assert results["median_agrees"]
    # Spread quantiles share at least the synopsis traffic...
    assert results["spread_shared_bytes"] < 0.85 * results["spread_separate_bytes"]
    # ...tight quantiles share candidates too.
    assert results["tight_shared_bytes"] < 0.45 * results["tight_separate_bytes"]
