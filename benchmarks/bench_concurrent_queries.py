"""Extension benchmark — concurrent query sharing.

Measures the network cost of serving N same-window quantile queries from
one live query plane versus N planes serving one query each.  The shared
plane ships synopses once per window and fetches the union of candidate
slices, so its cost grows far slower than linearly in the query count.

A run's plane bytes are its bytes above the stream tier minus those of a
driverless run of the same cluster over the same streams: every run also
serves the cluster's configured query, and that traffic is paid once
whatever the plane does.  On the memory transport the counts are
deterministic.
"""

from repro.core.query import QuantileQuery
from repro.bench.generator import GeneratorConfig, workload
from repro.bench.reporting import format_bytes, format_table
from repro.mesh.config import ClusterConfig
from repro.queries.runner import run_query_scenario
from repro.queries.spec import QuerySpec
from repro.runtime.cluster import run_live

#: Spread quantiles: only the synopsis transfer is shared (candidate
#: slices are disjoint across ranks).
SPREAD = (0.1, 0.25, 0.5, 0.75, 0.9)

#: Tight quantiles: the ranks fall in the same slices, so candidate
#: fetches are shared as well.
TIGHT = (0.49, 0.495, 0.5, 0.505, 0.51)

CONFIG = ClusterConfig(
    n_locals=2,
    query=QuantileQuery(q=0.5, window_length_ms=1000, gamma=120),
    transport="memory",
    time_scale=0.0,
)
GENERATOR = GeneratorConfig(event_rate=3_000.0, duration_s=3.0, seed=17)


def _wire_bytes(report):
    """Bytes on every link above the stream tier, both directions."""
    return sum(
        count for layer, count in report.bytes_by_layer.items()
        if layer != "stream_local"
    )


def _plane(quantiles, baseline):
    """One plane serving ``quantiles``: its plane bytes and the report."""
    specs = [
        QuerySpec(q=q, selector="all", length_ms=1000, gamma=120)
        for q in quantiles
    ]
    report = run_query_scenario(CONFIG, GENERATOR, specs=specs)
    assert report.ok, report.mismatches
    return _wire_bytes(report.live) - baseline, report


def _compare(quantiles, baseline):
    shared, report = _plane(quantiles, baseline)
    separate = sum(_plane((q,), baseline)[0] for q in quantiles)
    return float(shared), float(separate), report


def run_experiment():
    streams = workload([1, 2], GENERATOR)
    truth_run = run_live(CONFIG, streams)
    baseline = _wire_bytes(truth_run)
    spread_shared, spread_separate, spread = _compare(SPREAD, baseline)
    tight_shared, tight_separate, _ = _compare(TIGHT, baseline)

    # The plane's median query answers every window as the configured
    # median query does.
    truth = {o.window.start: o.value for o in truth_run.outcomes}
    median_results = spread.live.queries["results"][SPREAD.index(0.5) + 1]
    agreement = len(median_results) == len(truth) and all(
        result.value == truth[result.window.start] for result in median_results
    )
    return {
        "spread_shared_bytes": spread_shared,
        "spread_separate_bytes": spread_separate,
        "tight_shared_bytes": tight_shared,
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
        ["configuration", "plane bytes"], rows,
        title="Extension — concurrent query sharing",
    ))
    benchmark.extra_info.update(
        {k: v for k, v in results.items() if k != "median_agrees"}
    )

    assert results["median_agrees"]
    # Spread quantiles share the synopsis traffic (measured 47,953 of
    # 59,385 B, 0.807)...
    spread = results["spread_shared_bytes"] / results["spread_separate_bytes"]
    assert 0.80 < spread < 0.82
    # ...tight quantiles share candidates too (16,009 of 59,385 B, 0.270).
    tight = results["tight_shared_bytes"] / results["tight_separate_bytes"]
    assert 0.26 < tight < 0.28
