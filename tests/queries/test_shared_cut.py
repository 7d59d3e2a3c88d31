"""Shared-cut execution: one sweep, N queries, per-query-identical plans.

The root resolves every query of a (key, window) group from one
identification pass.  The amortization is only legal because the shared
pass is *observationally identical* to running each query alone — these
tests pin that equivalence at both layers (one ``cut_frame`` sweep for
every rank vs a sweep per rank, one ``identify_frame`` plan for every
quantile vs ``identify`` per quantile) and check the fetch plan is the
exact union of the per-query plans.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.calculation import calculate_quantile
from repro.core.identification import identify, identify_frame
from repro.core.slicing import slice_sorted_events
from repro.streaming.aggregates import quantile_rank
from repro.streaming.columns import EventColumns, select_frame
from repro.streaming.events import event_key, make_events
from tests.property.test_window_cut_properties import sweep


def sliced_nodes(seed, n_nodes=3, per_node=120, gamma=7):
    rng = random.Random(seed)
    nodes = {}
    for node_id in range(1, n_nodes + 1):
        values = [rng.gauss(25.0 * node_id, 30.0) for _ in range(per_node)]
        events = sorted(make_events(values, node_id=node_id), key=event_key)
        nodes[node_id] = slice_sorted_events(
            EventColumns.from_events(events).values, gamma, node_id
        )
    return nodes


def shared_plan(nodes, qs):
    """The one plan ``identify_frame`` makes for every quantile."""
    (plan,) = identify_frame([(
        {n: s.synopses for n, s in nodes.items()},
        {n: s.window_size for n, s in nodes.items()},
        qs,
    )])
    return plan


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    qs=st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        min_size=1, max_size=6,
    ),
)
def test_a_shared_sweep_cuts_each_rank_as_a_sweep_alone(seed, qs):
    nodes = sliced_nodes(seed)
    synopses = [s for sliced in nodes.values() for s in sliced.synopses]
    total = sum(sliced.window_size for sliced in nodes.values())
    ranks = sorted({quantile_rank(q, total) for q in qs})
    shared = sweep(synopses, ranks)
    assert set(shared) == set(ranks)
    for rank in ranks:
        assert sweep(synopses, [rank]) == {rank: shared[rank]}


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    qs=st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        min_size=1, max_size=5,
    ),
)
def test_a_shared_plan_matches_identify_per_query(seed, qs):
    nodes = sliced_nodes(seed)
    batches = {n: s.synopses for n, s in nodes.items()}
    sizes = {n: s.window_size for n, s in nodes.items()}
    plan = shared_plan(nodes, qs)
    ids = list(plan.candidates)
    union: dict[int, set[int]] = {}
    for q, rank, (runs, local_rank) in zip(qs, plan.ranks, plan.picks):
        single = identify(batches, sizes, q)
        assert rank == single.rank
        picked = ids if runs is None else [
            slice_id for slice_id, taken in zip(ids, runs) if taken
        ]
        assert picked == [s.slice_id for s in single.cut.candidates]
        assert rank - local_rank == single.cut.n_below
        for node_id, indices in single.requests.items():
            union.setdefault(node_id, set()).update(indices)
    # The shared fetch plan is exactly the union of the solo plans: a
    # slice two quantiles both need is requested once, nothing extra.
    assert plan.requests == {
        node_id: tuple(sorted(indices))
        for node_id, indices in sorted(union.items())
    }


def test_shared_calculation_matches_solo_answers():
    # End to end over the core: answer every quantile from the ONE shared
    # fetch, and compare against running the whole protocol per query.
    nodes = sliced_nodes(seed=99)
    batches = {n: s.synopses for n, s in nodes.items()}
    sizes = {n: s.window_size for n, s in nodes.items()}
    qs = [0.1, 0.25, 0.5, 0.9, 0.99, 1.0]
    plan = shared_plan(nodes, qs)
    shared_runs = [nodes[n].run_for(i) for n, i in plan.candidates]
    shared = next(select_frame([(shared_runs, plan.picks)]))
    for q, shared_value in zip(qs, shared):
        solo = identify(batches, sizes, q)
        solo_runs = [
            nodes[node_id].run_for(index)
            for node_id, indices in sorted(solo.requests.items())
            for index in indices
        ]
        assert shared_value == calculate_quantile(solo.cut, solo_runs).value


def test_candidate_events_dedupes_across_cuts():
    nodes = sliced_nodes(seed=4)
    batches = {n: s.synopses for n, s in nodes.items()}
    sizes = {n: s.window_size for n, s in nodes.items()}
    # Two almost-equal quantiles share their candidate slices almost
    # entirely; the union accounting must not double charge them.
    qs = [0.5, 0.5000001]
    plan = shared_plan(nodes, qs)
    cuts = [identify(batches, sizes, q).cut for q in qs]
    assert plan.candidate_events == sum(
        nodes[n].synopses[i].count
        for n, i in set().union(*(cut.candidate_ids for cut in cuts))
    )
    assert plan.candidate_events < sum(cut.candidate_events for cut in cuts)
