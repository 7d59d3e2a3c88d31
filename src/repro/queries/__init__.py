"""The live multi-query plane.

A query-plane subsystem spanning core and runtime: clients register
:class:`QuerySpec` continuous quantile queries **at runtime, over the
wire**, against a running live cluster; queries sharing a (key selector,
γ) execute as one group — one synopsis transfer and one identification
cut per (key, window) regardless of how many quantiles and window shapes
ride it — and overlapping sliding windows reuse sorted pane runs instead
of re-sorting every pane per slide.

Layers:

* :mod:`repro.queries.spec` — query specs, key selectors, validation.
* :mod:`repro.queries.slide` — columnar pane store + sliding windows
  over sealed pane runs (shared-slice sliding windows).
* :mod:`repro.queries.registry` — root-side query/group bookkeeping.
* :mod:`repro.queries.local` — the local node's plane, on a DemaLocalNode.
* :mod:`repro.queries.root` — the root node's plane, on a DemaRootNode.
* :mod:`repro.queries.client` — the dialing client (driver role).
* :mod:`repro.queries.oracle` — its names for :mod:`repro.testing`'s oracle and grader.
* :mod:`repro.queries.runner` — live scenarios with churn and grading.
"""

from repro.queries.spec import QuerySpec, parse_selector
from repro.queries.client import QueryClient
from repro.queries.runner import QueryScenarioReport, run_query_scenario

__all__ = [
    "QuerySpec",
    "parse_selector",
    "QueryClient",
    "QueryScenarioReport",
    "run_query_scenario",
]
