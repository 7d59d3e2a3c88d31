"""Figure 8b — Dema throughput vs γ under three scale-rate configs (q=30 %).

Paper claims: throughput is low at tiny γ (everything ships as synopses and
is processed twice), peaks at a mid-range γ, and degrades for very large γ
(huge candidate slices); Dema #1 is at least as fast as the skewed #2/#10
configurations but the differences are minor thanks to window-cut pruning.

A candidate ships as its 8-byte value here, so at two locals even γ = 5000's
candidates no longer saturate the root: the large-γ arm is shallow (about
−2 % from the peak, −51 % when candidates shipped 20-byte events), and it
flattens beyond γ = 5000 (−2.8 % at γ = 10,000 to 50,000), because a slice
that large already holds a local's whole window.
"""

from repro.bench.runner import exp_fig8b
from repro.bench.reporting import format_rate, format_table


def test_fig8b_gamma_sweep(benchmark, once):
    gammas = (2, 5, 20, 50, 200, 1000, 5000)
    results = once(benchmark, exp_fig8b, gammas=gammas)

    headers = ["gamma"] + list(results)
    rows = [
        [str(g)] + [format_rate(results[label][g]) for label in results]
        for g in gammas
    ]
    print()
    print(format_table(
        headers, rows, title="Figure 8b — Dema throughput vs γ (q=30%)"
    ))
    benchmark.extra_info["aggregate_by_gamma"] = {
        label: dict(series) for label, series in results.items()
    }

    for label, series in results.items():
        best = max(series.values())
        # Inverted U: the tiny-γ extreme far below the peak; the large-γ
        # arm still falls past γ = 1000 and ends about 2 % below the peak.
        assert series[2] < 0.5 * best, label
        assert series[5000] < series[1000], label
        assert series[5000] < 0.99 * best, label
        # The peak is at an interior γ.
        assert max(series, key=series.get) not in (2, 5000), label
    # Differences between scale configs are minor at every γ (window-cut
    # keeps the candidate set small even under skew).
    for gamma in gammas:
        rates = [series[gamma] for series in results.values()]
        assert max(rates) < 1.25 * min(rates)
