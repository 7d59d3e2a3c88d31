"""Figure 7a — throughput scalability with local node count.

Paper claim: Dema's throughput grows close to linearly with node count
(slightly sublinear from growing overlaps/candidates); Desis gains little
and bottlenecks at the root; Scotty is flat.
"""

from repro.bench.runner import exp_fig7a
from repro.bench.reporting import format_rate, format_table


def test_fig7a_scalability(benchmark, once):
    node_counts = (2, 4, 6, 8)
    results = once(benchmark, exp_fig7a, node_counts=node_counts)

    headers = ["nodes"] + list(results)
    rows = [
        [str(n)] + [format_rate(results[s][n]) for s in results]
        for n in node_counts
    ]
    print()
    print(format_table(
        headers, rows, title="Figure 7a — aggregate throughput vs nodes"
    ))
    benchmark.extra_info["aggregate_by_nodes"] = {
        system: dict(series) for system, series in results.items()
    }

    dema = results["dema"]
    # Near-linear: quadrupling nodes at least triples aggregate throughput…
    assert dema[8] > 3.0 * dema[2]
    # …but not super-linear.
    assert dema[8] <= 4.4 * dema[2]
    # Desis bottlenecks at the root: almost no gain from more nodes.
    desis = results["desis"]
    assert desis[8] < 1.4 * desis[2]
    # Scotty is flat.
    scotty = results["scotty"]
    assert scotty[8] < 1.3 * scotty[2]
    # Dema dominates wherever Desis' root binds; at two locals a
    # value-shipping Desis is local-bound like Dema and about 3 % ahead.
    assert dema[2] < desis[2] < 1.05 * dema[2]
    for n in node_counts[1:]:
        assert dema[n] > desis[n] > scotty[n]
    assert desis[2] > scotty[2]
