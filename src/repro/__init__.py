"""Dema: efficient decentralized aggregation for non-decomposable quantiles.

A from-scratch Python reproduction of the EDBT 2025 paper.  The package is
organized as:

* :mod:`repro.core` — Dema itself: slice synopses, the window-cut algorithm,
  identification and calculation steps, adaptive slice factor, and both a
  pure in-memory API (:func:`repro.core.dema_quantile`) and a simulated
  deployment (:class:`repro.core.DemaEngine`).
* :mod:`repro.streaming` — SPE substrate: events, window types, columnar
  event batches, the sum and exact-quantile aggregation functions.
* :mod:`repro.network` — deterministic discrete-event network simulator that
  stands in for the paper's 9-node cluster.
* :mod:`repro.sketches` — the t-digest, implemented from scratch.
* :mod:`repro.baselines` — Scotty, Desis, t-digest and partial-aggregation
  systems on the same simulated topology.
* :mod:`repro.bench` — workload generator, measurement harness, and the
  runner that regenerates every figure of the evaluation section.
* :mod:`repro.obs` — observability: span tracer on the simulated clock,
  metrics registry, JSONL / Chrome-trace / Prometheus exporters.
* :mod:`repro.queries` — live multi-query plane: runtime registration
  over the wire, sliding windows with shared pane slices, shared-cut
  execution across queries.

Quick start::

    from repro import dema_quantile, make_events

    windows = {
        1: make_events([3.0, 1.0, 4.0, 1.0, 5.0], node_id=1),
        2: make_events([9.0, 2.0, 6.0, 5.0, 3.0], node_id=2),
    }
    result = dema_quantile(windows, q=0.5, gamma=2)
    print(result.value, result.transfer_events)
"""

from repro.errors import ReproError
from repro.streaming.events import Event, make_events
from repro.streaming.windows import SlidingWindows, TumblingWindows
from repro.streaming.aggregates import exact_quantile, get_function, quantile_rank
from repro.core.engine import DemaEngine, DemaResult, MultiQuantileResult
from repro.core.engine import dema_quantile, dema_quantiles
from repro.core.reliability import ReliabilityConfig
from repro.core.query import QuantileQuery
from repro.core.adaptive import AdaptiveGammaController, optimal_gamma
from repro.network.topology import TopologyConfig
from repro.queries.spec import QuerySpec
from repro.obs.events import MessageTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NOOP_TRACER, RecordingTracer, Span, Tracer
from repro.sketches.tdigest import TDigest
from repro.baselines.base import SYSTEM_NAMES, build_system

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "Event",
    "make_events",
    "TumblingWindows",
    "SlidingWindows",
    "exact_quantile",
    "quantile_rank",
    "get_function",
    "dema_quantile",
    "dema_quantiles",
    "DemaResult",
    "MultiQuantileResult",
    "DemaEngine",
    "ReliabilityConfig",
    "QuantileQuery",
    "AdaptiveGammaController",
    "optimal_gamma",
    "TopologyConfig",
    "QuerySpec",
    "MessageTrace",
    "MetricsRegistry",
    "NOOP_TRACER",
    "RecordingTracer",
    "Span",
    "Tracer",
    "TDigest",
    "build_system",
    "SYSTEM_NAMES",
    "__version__",
]
