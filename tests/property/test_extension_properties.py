"""Property tests for the extension subsystems.

Covers multi-quantile sharing and lossy-channel accounting.
"""

from hypothesis import given, settings, strategies as st

from repro.core.engine import dema_quantile
from repro.core import dema_quantiles
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
