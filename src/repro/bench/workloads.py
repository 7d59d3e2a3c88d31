"""Named experiment configurations: one per paper figure plus ablations.

Scaling note (documented in DESIGN.md §2).  The paper runs on a 9-node Xeon
cluster at millions of events per second with γ = 10 000 and local windows of
~10⁶ events, i.e. roughly 100 slices per local window.  A pure-Python
discrete-event simulation cannot push 10⁶ events per window, so every
experiment here scales *both* the CPU budgets and γ down together, keeping
the ratios that drive the figures — slices per window (l/γ ≈ 100), the
relative per-event costs of the systems, and the identical-hardware root
(the paper's cluster nodes are identical machines).  Absolute events/second
are therefore smaller than the paper's; the reproduced quantities are the
*relations* between systems, which is what EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.topology import TopologyConfig
from repro.core.query import QuantileQuery

__all__ = ["bench_topology", "ExperimentSpec", "EXPERIMENTS", "BENCH_OPS"]

#: CPU budget (abstract ops/second) of every simulated cluster node.  The
#: paper's cluster uses identical machines for root and locals.
BENCH_OPS = 1.0e5

#: Slice factor used by the fixed-γ experiments.  Chosen so that local
#: windows at sustainable rates hold l/γ ≈ 100 slices, the same ratio the
#: paper's γ=10 000 produces at its ~10⁶-event windows.
BENCH_GAMMA = 100


def bench_topology(
    n_local_nodes: int,
    *,
    ops_per_second: float = BENCH_OPS,
    uplink_bandwidth_bps: float = 25e9 / 8,
) -> TopologyConfig:
    """Topology with identical node budgets, as in the paper's cluster."""
    return TopologyConfig(
        n_local_nodes=n_local_nodes,
        streams_per_local=0,
        root_ops_per_second=ops_per_second,
        local_ops_per_second=ops_per_second,
        stream_ops_per_second=ops_per_second,
        uplink_bandwidth_bps=uplink_bandwidth_bps,
        downlink_bandwidth_bps=uplink_bandwidth_bps,
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one reproduced figure.

    Attributes:
        experiment_id: Short id matching DESIGN.md's per-experiment index.
        figure: Paper figure the experiment reproduces.
        title: Human-readable description.
        systems: Systems compared in this experiment.
        n_local_nodes: Local node counts (one entry → fixed topology).
        q: Quantiles evaluated (usually just the median).
        gammas: Slice factors swept (one entry → fixed γ).
        scale_rate_configs: Named per-node scale-rate maps.
        notes: Scaling substitutions relevant to this experiment.
    """

    experiment_id: str
    figure: str
    title: str
    systems: tuple[str, ...]
    n_local_nodes: tuple[int, ...] = (2,)
    q: tuple[float, ...] = (0.5,)
    gammas: tuple[int, ...] = (BENCH_GAMMA,)
    scale_rate_configs: dict = field(default_factory=dict)
    notes: str = ""


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "fig5a": ExperimentSpec(
        experiment_id="E1",
        figure="Figure 5a",
        title="Maximum sustainable throughput, 1 root + 2 locals, median",
        systems=("dema", "scotty", "desis", "tdigest"),
        notes="γ scaled with window size (see module docstring).",
    ),
    "fig5b": ExperimentSpec(
        experiment_id="E2",
        figure="Figure 5b",
        title="Latency at each system's sustainable rate",
        systems=("dema", "scotty", "desis", "tdigest"),
    ),
    "fig6a": ExperimentSpec(
        experiment_id="E3",
        figure="Figure 6a",
        title="Network utilization, 2 locals, fixed event volume",
        systems=("dema", "scotty", "desis", "tdigest"),
        notes="Event volume scaled down from 100M/node; byte ratios are "
        "volume-independent.",
    ),
    "fig6b": ExperimentSpec(
        experiment_id="E4",
        figure="Figure 6b",
        title="Network cost as local nodes are added",
        systems=("dema", "scotty", "desis"),
        n_local_nodes=(2, 4, 6, 8),
    ),
    "fig7a": ExperimentSpec(
        experiment_id="E5",
        figure="Figure 7a",
        title="Throughput scalability with local node count",
        systems=("dema", "scotty", "desis"),
        n_local_nodes=(2, 4, 6, 8),
    ),
    "fig7b": ExperimentSpec(
        experiment_id="E6",
        figure="Figure 7b",
        title="Accuracy (1 - MPE) vs Scotty ground truth",
        systems=("dema", "tdigest"),
    ),
    "fig8a": ExperimentSpec(
        experiment_id="E7",
        figure="Figure 8a",
        title="Dema throughput across quantile functions",
        systems=("dema",),
        q=(0.25, 0.5, 0.75),
    ),
    "fig8b": ExperimentSpec(
        experiment_id="E8",
        figure="Figure 8b",
        title="Dema throughput vs γ under skewed scale rates (30% quantile)",
        systems=("dema",),
        q=(0.3,),
        gammas=(2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000),
        scale_rate_configs={
            "dema#1": {1: 1.0, 2: 1.0},
            "dema#2": {1: 1.0, 2: 2.0},
            "dema#10": {1: 1.0, 2: 10.0},
        },
    ),
    "ablation_window_cut": ExperimentSpec(
        experiment_id="A1",
        figure="ablation (ours)",
        title="Candidate events with window-cut pruning vs whole-unit fetch",
        systems=("dema",),
    ),
    "ablation_adaptive_gamma": ExperimentSpec(
        experiment_id="A2",
        figure="ablation (ours)",
        title="Adaptive γ vs fixed γ under drifting event rates",
        systems=("dema",),
    ),
}


def median_query(gamma: int = BENCH_GAMMA, *, q: float = 0.5,
                 adaptive: bool = False) -> QuantileQuery:
    """One-second tumbling-window quantile query, the paper's default."""
    return QuantileQuery(
        q=q, window_length_ms=1000, gamma=gamma, adaptive=adaptive
    )
