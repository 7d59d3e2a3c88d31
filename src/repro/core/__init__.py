"""Dema: the paper's contribution.

Decentralized window aggregation for non-decomposable quantile functions.
Local nodes keep their windows incrementally sorted, cut them into γ-sized
slices and ship only *synopses* (first event, last event, count) to the root.
The root runs the window-cut algorithm to identify the few candidate slices
that can contain the requested quantile rank, fetches exactly those slices'
values, and selects the answer — bit-exact, at a fraction of the network cost of
centralized aggregation.

Entry points, all identifying through one
:func:`~repro.core.identification.identify_frame` sweep per frame of
windows (one window, for the in-memory entry points):

* :func:`repro.core.engine.dema_quantile` / ``dema_quantiles`` — pure
  in-memory algorithm (no simulator), the easiest way to use or study Dema;
* :class:`repro.core.engine.DemaEngine` — one query deployed on the
  simulated network.
"""

from repro.core.synopsis import SliceSynopsis
from repro.core.sorted_window import SortedLocalWindow
from repro.core.slicing import SlicedWindow, slice_sorted_events
from repro.core.units import SliceKind, SliceUnit, build_units, classify_slice
from repro.core.window_cut import CutResult, rank_bound_candidates, window_cut
from repro.core.identification import IdentificationResult, identify
from repro.core.calculation import calculate_quantile
from repro.core.adaptive import (
    AdaptiveGammaController,
    optimal_gamma,
    transfer_cost,
)
from repro.core.reliability import ReliabilityConfig
from repro.core.query import QuantileQuery
from repro.core.local_node import DemaLocalNode
from repro.core.root_node import DemaRootNode
from repro.core.engine import (
    DemaEngine,
    MultiQuantileResult,
    dema_quantile,
    dema_quantiles,
)

__all__ = [
    "SliceSynopsis",
    "SortedLocalWindow",
    "SlicedWindow",
    "slice_sorted_events",
    "SliceKind",
    "SliceUnit",
    "build_units",
    "classify_slice",
    "CutResult",
    "rank_bound_candidates",
    "window_cut",
    "IdentificationResult",
    "identify",
    "calculate_quantile",
    "AdaptiveGammaController",
    "optimal_gamma",
    "transfer_cost",
    "MultiQuantileResult",
    "dema_quantiles",
    "ReliabilityConfig",
    "QuantileQuery",
    "DemaLocalNode",
    "DemaRootNode",
    "DemaEngine",
    "dema_quantile",
]
