"""Figure 6a — network utilization on a fixed event volume (2 locals).

Paper claim: Dema reduces network cost by up to 99 % versus Scotty/Desis
(the reduction approaches that bound as windows grow — see EXPERIMENTS.md);
Desis ships as much as Scotty; Tdigest ships least of all.  The paper's
Desis ships whole tuples; this one ships each event's 8-byte value, 40 % of
Scotty's 20-byte tuples.
"""

from repro.bench.runner import exp_fig6a
from repro.bench.reporting import format_bytes, format_table


def test_fig6a_network_utilization(benchmark, once):
    results = once(benchmark, exp_fig6a, per_node_rate=20_000.0, n_windows=3)

    rows = [
        [system, format_bytes(data["bytes"]),
         f"{data['reduction_vs_scotty']:.1%}"]
        for system, data in results.items()
    ]
    print()
    print(format_table(
        ["system", "bytes", "reduction vs Scotty"], rows,
        title="Figure 6a — network utilization",
    ))
    benchmark.extra_info["network_bytes"] = {
        system: data["bytes"] for system, data in results.items()
    }

    assert results["dema"]["reduction_vs_scotty"] > 0.93
    assert abs(results["desis"]["reduction_vs_scotty"] - 0.6) < 0.02
    assert results["tdigest"]["bytes"] < results["dema"]["bytes"]
