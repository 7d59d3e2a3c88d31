"""Shared-cut execution: one sweep, N queries, per-query-identical plans.

The root resolves every query of a (key, window) group from one
identification pass.  The amortization is only legal because the shared
pass is *observationally identical* to running each query alone — these
tests pin that equivalence at both layers (``window_cut_multi`` vs
``window_cut``, ``identify_multi`` vs ``identify``) and check the fetch
plan is the exact union of the per-query plans.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.calculation import calculate_quantile
from repro.core.identification import identify, identify_multi
from repro.core.slicing import slice_sorted_events
from repro.core.window_cut import window_cut, window_cut_multi
from repro.streaming.aggregates import quantile_rank
from repro.streaming.columns import EventColumns
from repro.streaming.events import event_key, make_events


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


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    qs=st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        min_size=1, max_size=6,
    ),
)
def test_window_cut_multi_matches_per_rank_window_cut(seed, qs):
    nodes = sliced_nodes(seed)
    synopses = [s for sliced in nodes.values() for s in sliced.synopses]
    total = sum(sliced.window_size for sliced in nodes.values())
    ranks = sorted({quantile_rank(q, total) for q in qs})
    multi = window_cut_multi(synopses, ranks, global_window_size=total)
    assert set(multi) == set(ranks)
    for rank in ranks:
        single = window_cut(synopses, rank, global_window_size=total)
        shared = multi[rank]
        assert shared.candidates == single.candidates
        assert shared.n_below == single.n_below
        assert shared.kinds == single.kinds


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    qs=st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        min_size=1, max_size=5,
    ),
)
def test_identify_multi_matches_identify_per_query(seed, qs):
    nodes = sliced_nodes(seed)
    batches = {n: s.synopses for n, s in nodes.items()}
    sizes = {n: s.window_size for n, s in nodes.items()}
    multi = identify_multi(batches, sizes, qs)
    union: dict[int, set[int]] = {}
    for q in multi.qs:
        single = identify(batches, sizes, q)
        assert multi.cuts[q].candidates == single.cut.candidates
        assert multi.cuts[q].n_below == single.cut.n_below
        for node_id, indices in single.requests.items():
            union.setdefault(node_id, set()).update(indices)
    # The shared fetch plan is exactly the union of the solo plans: a
    # slice two quantiles both need is requested once, nothing extra.
    assert multi.requests == {
        node_id: tuple(sorted(indices))
        for node_id, indices in union.items()
    }


def test_shared_calculation_matches_solo_answers():
    # End to end over the core: answer every quantile from the ONE shared
    # fetch, and compare against running the whole protocol per query.
    nodes = sliced_nodes(seed=99)
    batches = {n: s.synopses for n, s in nodes.items()}
    sizes = {n: s.window_size for n, s in nodes.items()}
    qs = [0.1, 0.25, 0.5, 0.9, 0.99, 1.0]
    multi = identify_multi(batches, sizes, qs)
    shared_runs = {
        (node_id, index): nodes[node_id].run_for(index)
        for node_id, indices in multi.requests.items()
        for index in indices
    }
    for q in qs:
        solo = identify(batches, sizes, q)
        solo_runs = [
            nodes[node_id].run_for(index)
            for node_id, indices in sorted(solo.requests.items())
            for index in indices
        ]
        wanted = sorted(s.slice_id for s in multi.cuts[q].candidates)
        shared_value = calculate_quantile(
            multi.cuts[q], [shared_runs[key] for key in wanted],
        ).value
        assert shared_value == calculate_quantile(solo.cut, solo_runs).value


def test_candidate_events_dedupes_across_cuts():
    nodes = sliced_nodes(seed=4)
    batches = {n: s.synopses for n, s in nodes.items()}
    sizes = {n: s.window_size for n, s in nodes.items()}
    # Two almost-equal quantiles share their candidate slices almost
    # entirely; the union accounting must not double charge them.
    multi = identify_multi(batches, sizes, [0.5, 0.5000001])
    per_cut = sum(c.candidate_events for c in multi.cuts.values())
    assert multi.candidate_events <= per_cut
