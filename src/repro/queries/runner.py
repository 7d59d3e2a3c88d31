"""Live multi-query scenarios: churn, grading and the shared-cut invariant.

:func:`run_query_scenario` boots a full live cluster with the query
plane attached, drives it with one :class:`~repro.queries.client.QueryClient`
— registering a mixed batch of tumbling and sliding queries over several
key selectors *before* the replay, optionally churning (joining and
deregistering queries) mid-run — then grades **every served result**
bit-identically against the centralized oracle and asserts the
shared-cut invariant from the trace: exactly one
``query_identification`` span per (selector, γ, window) — what a cut
depends on — no matter how many queries, of how many window shapes,
ride it.
"""

from __future__ import annotations

import asyncio
import math
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.bench.generator import GeneratorConfig, workload
from repro.errors import ConfigurationError, QueryError
from repro.obs.tracer import RecordingTracer, Tracer
from repro.queries.client import QueryClient
from repro.queries.oracle import oracle_results
from repro.queries.spec import QuerySpec
from repro.faults.scenarios import build_plan
from repro.mesh.config import ClusterConfig
from repro.runtime.cluster import ClusterReport, QueryDriverContext, run_live
from repro.streaming.columns import concat_columns
from repro.testing import grade

__all__ = ["QueryScenarioReport", "build_specs", "run_query_scenario"]

#: Driver client node id — far above any local/stream id the cluster uses.
DRIVER_CLIENT_ID = 9001

#: Quantiles cycled over the generated specs (mixed extremes and medians).
_QS = (0.5, 0.9, 0.25, 0.99, 0.75, 0.1, 0.95, 1.0)


@dataclass
class QueryScenarioReport:
    """Outcome of one graded multi-query scenario."""

    n_queries: int
    n_registered: int
    n_deregistered: int
    groups: int
    results_served: int
    results_graded: int
    #: The grader's notes on (query, window) pairs not recovered, and counts.
    mismatches: list[str]
    classes: dict[str, int]
    identification_cuts: int
    #: (selector, γ, window) triples with more than one identification
    #: span — the shared-cut invariant demands this stays 0.
    duplicate_cuts: int
    horizons: dict[int, int]
    wall_seconds: float
    live: ClusterReport
    nacks: list[str] = field(default_factory=list)
    #: Driver connections re-established mid-run (durable sessions only).
    driver_reconnects: int = 0

    @property
    def ok(self) -> bool:
        """No grading mismatch and the shared-cut invariant held."""
        return not self.mismatches and self.duplicate_cuts == 0

    @property
    def queries_per_second(self) -> float:
        """Per-query results served per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.results_served / self.wall_seconds


def build_specs(
    n_queries: int, n_keys: int, *, window_ms: int, gamma: int
) -> list[QuerySpec]:
    """A mixed batch: cycled quantiles × selectors, tumbling ∥ sliding.

    Selectors cycle through ``all`` plus ``mod`` partitions (``n_keys``
    distinct keys); every odd spec is sliding with a half-window step, so
    consecutive windows overlap and exercise the shared-slice path.
    """
    if n_keys < 1:
        raise ConfigurationError("need at least one key selector")
    keys = ["all"] + [
        f"mod:{max(2, n_keys)}:{k % max(2, n_keys)}"
        for k in range(1, n_keys)
    ]
    specs = []
    for index in range(n_queries):
        sliding = index % 2 == 1
        specs.append(
            QuerySpec(
                q=_QS[index % len(_QS)],
                selector=keys[index % len(keys)],
                kind="sliding" if sliding else "tumbling",
                length_ms=window_ms,
                step_ms=window_ms // 2 if sliding else None,
                gamma=gamma,
            )
        )
    return specs


def run_query_scenario(
    config: ClusterConfig,
    generator: GeneratorConfig,
    *,
    n_queries: int = 8,
    n_keys: int = 3,
    window_ms: int = 1000,
    churn: bool = False,
    specs: "list[QuerySpec] | None" = None,
    driver_drop: bool = False,
    tracer: Tracer | None = None,
) -> QueryScenarioReport:
    """Run one live multi-query scenario and grade it end to end.

    ``config`` is the cluster the plane rides on (its ``query.gamma`` is
    every generated spec's γ, its ``timeout_s`` also bounds the driver's
    waits) and ``generator`` each local's workload.

    With ``churn`` (requires ``config.time_scale > 0`` so there *is* a
    mid-run) the driver additionally registers two late joiners — one
    into an already-active window shape, one forcing a fresh group — and
    deregisters every other initial query while the streams are still
    flowing.

    With ``driver_drop`` the cluster runs durable queries under the
    seeded ``driver-drop`` fault plan: mid-run the cluster severs the
    driver's connection, and the client redials with its resume cursor;
    grading then proves every result still arrived exactly once (the
    duplicate check in :func:`~repro.testing.grade` makes
    "at most once" explicit, completeness makes it "at least once").

    ``specs`` overrides the generated batch (the tests use this to run
    each query alone as the cost baseline for serving them together).
    """
    time_scale = config.time_scale
    duration_s = generator.duration_s
    gamma = config.query.gamma
    timeout_s = math.inf if config.timeout_s is None else config.timeout_s
    if churn and time_scale <= 0:
        raise ConfigurationError(
            "churn needs time_scale > 0 — registering and deregistering "
            "mid-run is meaningless at replay-as-fast-as-possible"
        )
    if driver_drop and time_scale <= 0:
        raise ConfigurationError(
            "driver_drop needs time_scale > 0 — at replay-as-fast-as-"
            "possible the run finishes before the connection can drop "
            "mid-stream"
        )
    if tracer is None:
        tracer = RecordingTracer()
    if specs is None:
        specs = build_specs(
            n_queries, n_keys, window_ms=window_ms, gamma=gamma
        )
    n_queries = len(specs)
    streams = workload(list(range(1, config.n_locals + 1)), generator)
    if driver_drop:
        config = replace(
            config,
            durable_queries=True,
            faults=build_plan(
                "driver-drop", seed=generator.seed, horizon_s=duration_s,
                n_locals=config.n_locals,
            ),
        )

    initial = {index + 1: spec for index, spec in enumerate(specs)}
    dropped: list[int] = []
    joiners: dict[int, QuerySpec] = {}
    nacks: list[str] = []
    survivors_expect: dict[int, int] = {}
    grid_end_box: dict[str, int] = {}
    reconnects_box: dict[str, int] = {"reconnects": 0}

    async def driver(context: QueryDriverContext) -> dict:
        grid_end_box["grid_end"] = context.grid_end
        expected_total = 0

        async def held_dial():
            # Hold the redial shut until the root has produced the
            # *entire* run — everything after the drop lands only in the
            # retained per-client log, so the resume must replay that
            # tail from the acked cursor.
            while context.plane_results() < expected_total:
                await asyncio.sleep(0.01)
            return await context.dial(DRIVER_CLIENT_ID)

        client = QueryClient(
            await context.dial(DRIVER_CLIENT_ID),
            DRIVER_CLIENT_ID,
            dial=held_dial if driver_drop else None,
        )
        await client.start()
        try:
            for query_id, spec in initial.items():
                await client.register(query_id, spec)
            expected_total = sum(
                len(
                    spec.window_starts(
                        client.horizons[query_id], context.grid_end
                    )
                )
                for query_id, spec in initial.items()
            )
            context.start_replay()
            if driver_drop:
                # The fault plan severs this connection mid-run.
                await client.wait_for(
                    lambda c: c.reconnects >= 1, timeout=timeout_s
                )
            if churn:
                # Churn once the run is demonstrably mid-protocol (at
                # least one result served): every other initial query
                # leaves; two joiners arrive — one sharing spec 1's key
                # and window shape (an active shape, so it starts at the
                # shape's next unidentified window), one with a fresh key
                # (a full activation round mid-stream).
                await asyncio.sleep(0.4 * duration_s * time_scale)
                await client.wait_for(
                    lambda c: any(c.results.values()), timeout=timeout_s
                )
                first = initial[1]
                join_active = QuerySpec(
                    q=0.33,
                    selector=first.selector,
                    kind=first.kind,
                    length_ms=first.length_ms,
                    step_ms=first.step_ms,
                    gamma=first.gamma,
                )
                join_fresh = QuerySpec(
                    q=0.66,
                    selector="node:1",
                    kind="sliding",
                    length_ms=window_ms,
                    step_ms=window_ms // 2,
                    gamma=gamma,
                )
                for query_id, spec in (
                    (n_queries + 1, join_active),
                    (n_queries + 2, join_fresh),
                ):
                    try:
                        await client.register(query_id, spec)
                        joiners[query_id] = spec
                    except QueryError as exc:
                        nacks.append(f"join {query_id}: {exc}")
                for query_id in list(initial)[::2]:
                    await client.deregister(query_id)
                    dropped.append(query_id)
            # Completion: every surviving query must have a result for
            # every window from its accepted horizon to the grid end.
            surviving = [q for q in initial if q not in dropped]
            surviving += list(joiners)
            for query_id in surviving:
                spec = initial.get(query_id) or joiners[query_id]
                survivors_expect[query_id] = len(
                    spec.window_starts(
                        client.horizons[query_id], context.grid_end
                    )
                )
            await client.wait_for(
                lambda c: all(
                    len(c.results.get(query_id, ()))
                    >= survivors_expect[query_id]
                    for query_id in surviving
                ),
                timeout=timeout_s,
            )
            reconnects_box["reconnects"] = client.reconnects
            return {
                "results": {
                    query_id: list(messages)
                    for query_id, messages in client.results.items()
                },
                "horizons": dict(client.horizons),
            }
        finally:
            await client.close()

    report = run_live(config, streams, tracer=tracer, driver=driver)

    served = report.queries.get("results", {})
    horizons = report.queries.get("horizons", {})
    grid_end = grid_end_box["grid_end"]
    all_events = concat_columns(list(streams.values()))
    all_specs = dict(initial)
    all_specs.update(joiners)
    mismatches: list[str] = []
    classes = Counter()
    graded = 0
    for query_id, spec in all_specs.items():
        horizon = horizons.get(query_id)
        if horizon is None:
            mismatches.append(f"query {query_id}: never acknowledged")
            classes["mismatch"] += 1
            continue
        results = served.get(query_id, [])
        graded += len(results)
        expected = oracle_results(
            all_events, spec, start_from=horizon, horizon_end=grid_end
        )
        for _, verdict, note in grade(expected, results, label=f"query {query_id}",
                                      complete=query_id not in dropped):
            classes[verdict] += 1
            if verdict != "recovered":
                mismatches.append(note)

    # Shared-cut invariant from the trace: one identification span per
    # (selector, γ, window), whatever the queries and window shapes riding
    # it — the key is resolved from the span's queries, not its group id.
    cut_spans: dict[tuple, int] = {}
    if isinstance(tracer, RecordingTracer):
        for span in tracer.spans:
            if span.name != "query_identification":
                continue
            first = int(str(span.attrs["query_ids"]).split(",")[0])
            key = (*all_specs[first].group_key, span.window)
            cut_spans[key] = cut_spans.get(key, 0) + 1
    duplicate_cuts = sum(1 for count in cut_spans.values() if count > 1)

    return QueryScenarioReport(
        n_queries=len(all_specs),
        n_registered=len(all_specs),
        n_deregistered=len(dropped),
        groups=len({spec.group_key for spec in all_specs.values()}),
        results_served=sum(len(r) for r in served.values()),
        results_graded=graded,
        mismatches=mismatches,
        classes=dict(classes),
        identification_cuts=sum(cut_spans.values()),
        duplicate_cuts=duplicate_cuts,
        horizons=dict(horizons),
        wall_seconds=report.wall_seconds,
        live=report,
        nacks=nacks,
        driver_reconnects=reconnects_box["reconnects"],
    )
