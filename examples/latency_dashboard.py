"""Latency dashboard: box-plot quantiles from one shared identification pass.

A typical observability dashboard wants p25/p50/p75/p95/p99 of request
latencies collected on many edge gateways.  The multi-quantile extension
answers all five exactly while shipping the synopses once and fetching the
*union* of the candidate slices, and a sliding query on the live query
plane refreshes the dashboard more often than the window length.

Run with::

    python examples/latency_dashboard.py
"""

import random

from repro import dema_quantile, dema_quantiles, make_events
from repro.bench.generator import GeneratorConfig
from repro.core import QuantileQuery
from repro.mesh.config import ClusterConfig
from repro.queries.runner import run_query_scenario
from repro.queries.spec import QuerySpec

QS = (0.25, 0.5, 0.75, 0.95, 0.99)


def shared_identification() -> None:
    rng = random.Random(404)
    gateways = {
        gateway_id: [rng.lognormvariate(2.5, 0.7) for _ in range(20_000)]
        for gateway_id in (1, 2, 3, 4)
    }
    windows = {
        gateway_id: make_events(values, node_id=gateway_id)
        for gateway_id, values in gateways.items()
    }

    result = dema_quantiles(windows, QS, gamma=400)
    print("Request-latency dashboard (ms), 4 gateways, 80k samples")
    print("-" * 56)
    for q in QS:
        print(f"  p{q * 100:4.0f}  {result.values[q]:9.2f}")
    individual = sum(
        dema_quantile(windows, q=q, gamma=400).transfer_events for q in QS
    )
    print("-" * 56)
    print(f"events moved (shared pass)      : {result.transfer_events:,}")
    print(f"events moved (5 separate passes): {individual:,}")
    print(f"saving from sharing             : "
          f"{1 - result.transfer_events / individual:.1%}")
    print()


def sliding_refresh() -> None:
    spec = QuerySpec(
        kind="sliding", length_ms=1000, step_ms=250, q=0.95, gamma=100
    )
    print("Sliding refresh: p95 over 1000 ms windows every 250 ms (γ=100), "
          "on the live query plane")
    report = run_query_scenario(
        ClusterConfig(n_locals=2, query=QuantileQuery(gamma=100)),
        GeneratorConfig(event_rate=2_000.0, duration_s=3.0, seed=6),
        specs=[spec],
    )
    assert report.ok, report.mismatches
    results = sorted(
        report.live.queries["results"][1], key=lambda result: result.window
    )
    print(f"{'window':>16}  {'p95':>8}")
    for result in results[:8]:
        window = (
            f"[{result.window.start / 1000:.2f}s,"
            f"{result.window.end / 1000:.2f}s)"
        )
        print(f"{window:>16}  {result.value:8.2f}")
    print(f"... {len(results)} overlapping windows total, each graded "
          "exact over its full 1-second span.")


if __name__ == "__main__":
    shared_identification()
    sliding_refresh()
