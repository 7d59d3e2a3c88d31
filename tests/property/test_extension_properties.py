"""Property tests for the extension subsystems.

Covers multi-quantile sharing, per-node γ optimality, lossy-channel
accounting and query grouping.
"""

from hypothesis import given, settings, strategies as st

from repro.core.adaptive import NodeGammaController, optimal_gamma, transfer_cost
from repro.core.query import group_queries
from repro.core.engine import dema_quantile
from repro.core import dema_quantiles
from repro.core.query import QuantileQuery
from repro.streaming.aggregates import exact_quantile
from repro.streaming.events import make_events

bounded_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def multi_quantile_cases(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=3))
    windows = {}
    for node_id in range(1, n_nodes + 1):
        values = draw(
            st.lists(bounded_floats, min_size=0, max_size=60)
        )
        windows[node_id] = make_events(values, node_id=node_id)
    if not any(windows.values()):
        windows[1] = make_events([draw(bounded_floats)], node_id=1)
    qs = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=1,
            max_size=5,
        )
    )
    gamma = draw(st.integers(min_value=2, max_value=50))
    return windows, qs, gamma


@given(multi_quantile_cases())
@settings(max_examples=150, deadline=None)
def test_multi_quantile_agrees_with_singles_and_oracle(case):
    windows, qs, gamma = case
    result = dema_quantiles(windows, qs, gamma)
    all_values = [e.value for events in windows.values() for e in events]
    for q in set(qs):
        assert result.values[q] == exact_quantile(all_values, q)
        single = dema_quantile(windows, q=q, gamma=gamma)
        assert result.values[q] == single.value
        # The union fetch is never larger than any single query's dataset
        # and never smaller than the largest single candidate set.
        assert result.candidate_events >= single.candidate_events
    assert result.candidate_events <= result.global_window_size


@given(
    st.dictionaries(
        keys=st.integers(min_value=1, max_value=8),
        values=st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=0, max_value=50),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=200, deadline=None)
def test_per_node_gamma_is_per_node_optimal(observations):
    controller = NodeGammaController(10)
    sizes = {node: size for node, (size, _) in observations.items()}
    candidates = {node: m for node, (_, m) in observations.items()}
    updated = controller.observe(sizes, candidates)
    for node_id, gamma in updated.items():
        effective_m = max(candidates.get(node_id, 0), 1)
        expected = optimal_gamma(sizes[node_id], effective_m)
        assert gamma == expected
        # Integer optimality of the per-node cost.
        for neighbour in (gamma - 1, gamma + 1):
            if 2 <= neighbour <= max(sizes[node_id], 2):
                assert transfer_cost(
                    gamma, sizes[node_id], effective_m
                ) <= transfer_cost(neighbour, sizes[node_id], effective_m)


@given(
    st.floats(min_value=0.0, max_value=0.9),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=150, deadline=None)
def test_lossy_channel_conservation(loss_rate, seed, n_messages):
    from repro.network.channels import Channel
    from repro.network.messages import Message
    from repro.streaming.windows import Window

    channel = Channel(
        1, 0, bandwidth_bps=1e6, latency_s=0.0,
        loss_rate=loss_rate, loss_seed=seed,
    )
    delivered = 0
    for i in range(n_messages):
        outcome = channel.transmit(
            Message(sender=1, window=Window(0, 1)), now=float(i)
        )
        if outcome is not None:
            delivered += 1
    stats = channel.stats
    assert stats.messages == n_messages
    assert delivered + stats.dropped == n_messages
    assert stats.bytes == n_messages * 32  # lost bytes still sent


@given(
    st.lists(
        st.tuples(
            st.sampled_from([500, 1000, 2000]),            # length
            st.sampled_from([None, 250, 500, 1000]),       # step
            st.sampled_from([10, 50, 100]),                # gamma
            st.floats(min_value=0.05, max_value=1.0),      # q
        ),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=150, deadline=None)
def test_query_grouping_partitions(specs):
    queries = []
    for length, step, gamma, q in specs:
        if step is not None and step > length:
            step = length
        queries.append(
            QuantileQuery(
                q=q, window_length_ms=length, window_step_ms=step, gamma=gamma
            )
        )
    groups = group_queries(queries)
    seen = [index for group in groups for index, _ in group.queries]
    assert sorted(seen) == list(range(len(queries)))
    for group in groups:
        shapes = {
            (query.window_length_ms, query.window_step_ms, query.gamma)
            for _, query in group.queries
        }
        assert len(shapes) == 1
    shapes_across = [group.shape for group in groups]
    assert len(shapes_across) == len(set(shapes_across))
