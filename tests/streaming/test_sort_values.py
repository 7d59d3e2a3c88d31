"""The one window sort: a window's chunks in, its sorted value column out.

:func:`sort_values` must give, bit for bit, the value column of the rows
taken in full-key ``(value, node_id, seq)`` order — ``np.lexsort``, a
stable sort, so exact twins keep arrival order — whatever the values and
however the window arrived in chunks.  ``-0.0`` and ``0.0`` are the one
pair of equal values with different bits, so the draws mix them across
node ids, as a Scotty root's window of several locals holds them.

A NaN has no rank.  Wherever a window is first ordered — a local's window,
a query-plane window, Scotty's root window — it is refused with a
``CodecError`` naming its row, sign bit or not, alone or in a later chunk.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.scotty import ScottyRootNode
from repro.core.local_node import DemaLocalNode
from repro.core.query import QuantileQuery
from repro.errors import CodecError
from repro.network.messages import EventBatchMessage, WatermarkMessage
from repro.network.simulator import Simulator
from repro.queries.slide import PaneStore, SlidingRunAggregator
from repro.streaming.columns import EventColumns, sort_values
from repro.streaming.windows import Window

_TINY = float(np.nextafter(0.0, 1.0))

#: Value shapes, each a strategy for one value.
_SHAPES = {
    "integer": st.integers(-50, 50).map(float),
    "one decimal": st.integers(-500, 500).map(lambda v: round(v / 10, 1)),
    "signed zeros": st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    "extremes": st.sampled_from([
        float("inf"), float("-inf"), 0.0, -0.0, _TINY, -_TINY,
        2.2250738585072014e-308, -1e-310, 1e-320,
    ]),
    "any": st.floats(allow_nan=False, width=64),
}


@st.composite
def windows(draw):
    """A window as 0–20 chunks of rows ``(value, node_id, seq)``; seqs may
    repeat within a node, so whole keys may collide."""
    shape = draw(st.sampled_from(sorted(_SHAPES)))
    values = st.one_of(_SHAPES[shape], _SHAPES["signed zeros"])
    chunks = []
    for _ in range(draw(st.integers(0, 20))):
        rows = draw(st.lists(
            st.tuples(values, st.integers(1, 4), st.integers(0, 30)),
            max_size=40,
        ))
        n = len(rows)
        chunks.append(EventColumns.from_arrays(
            np.array([r[0] for r in rows], dtype="<f8"),
            np.zeros(n, dtype="<u4"),
            np.array([r[1] for r in rows], dtype="<u4"),
            np.array([r[2] for r in rows], dtype="<u4"),
        ))
    return chunks


def _key_order_bits(chunks):
    """The reference: every row's value, in ``np.lexsort`` full-key order."""
    if not chunks:
        return []
    values = np.concatenate([c.values for c in chunks])
    node_ids = np.concatenate([c.node_ids for c in chunks])
    seqs = np.concatenate([c.seqs for c in chunks])
    order = np.lexsort((seqs, node_ids, values))
    return values[order].view("<u8").tolist()


@settings(max_examples=400, deadline=None)
@given(windows())
def test_sorted_column_is_the_full_key_order_bit_for_bit(chunks):
    sealed = sort_values(chunks)
    assert sealed.dtype == np.float64 and not sealed.flags.writeable
    assert sealed.view("<u8").tolist() == _key_order_bits(chunks)


def test_large_zero_blocks_keep_the_key_order():
    # Thousands of rows: the size numpy's SIMD kernel sorts with min/max,
    # which may hand back one zero's bits for both of a -0.0/0.0 pair.
    rng = np.random.default_rng(7)
    n = 20_000
    values = np.round(rng.normal(0.0, 3.0, n))
    values[rng.random(n) < 0.3] = -0.0
    batch = EventColumns.from_arrays(
        values, np.zeros(n), rng.integers(1, 5, n), np.arange(n)
    )
    chunks = [batch[at:at + 4096] for at in range(0, n, 4096)]
    assert sort_values(chunks).view("<u8").tolist() == _key_order_bits(chunks)


# -- NaN refusal, wherever a window is first ordered -------------------------

_SIGN_NAN = float(np.copysign(np.nan, -1))
assert np.signbit(_SIGN_NAN)

#: ``(name, chunks of (value, node_id, seq) rows, the row the error names)``.
NAN_CASES = [
    ("sign-bit", [[(1.0, 3, 0), (_SIGN_NAN, 3, 7), (2.0, 3, 1)]], "3 seq 7"),
    ("only-row", [[(float("nan"), 2, 4)]], "2 seq 4"),
    (
        "later-chunk",
        [[(1.0, 1, 0), (5.0, 1, 1)], [(2.0, 1, 2)], [(float("nan"), 1, 3)]],
        "1 seq 3",
    ),
]


def _batches(rows_per_chunk, timestamp=100):
    return [
        EventColumns.from_arrays(
            np.array([r[0] for r in rows], dtype="<f8"),
            np.full(len(rows), timestamp),
            np.array([r[1] for r in rows], dtype="<u4"),
            np.array([r[2] for r in rows], dtype="<u4"),
        )
        for rows in rows_per_chunk
    ]


def _local_window(batches):
    node = DemaLocalNode(
        batches[0].node_ids[0], root_id=0, ops_per_second=1e9,
        query=QuantileQuery(q=0.5, window_length_ms=1000, gamma=2),
    )
    for batch in batches:
        node.ingest(batch, 0.1)
    node.on_window_complete(Window(0, 1000), 1.0)


def _query_plane_window(batches):
    store = PaneStore(500)
    for batch in batches:
        store.add(batch)
    aggregator = SlidingRunAggregator()
    aggregator.push(0, store.sealed_pane(0))
    aggregator.push(500, store.sealed_pane(500))
    aggregator.query()


def _scotty_root_window(batches):
    simulator = Simulator()
    local_ids = sorted({int(b.node_ids[0]) for b in batches})
    root = ScottyRootNode(
        0, local_ids=local_ids, ops_per_second=1e9,
        query=QuantileQuery(q=0.5, window_length_ms=1000),
    )
    simulator.add_node(root)
    window = Window(0, 1000)
    for batch in batches:
        root.on_message(EventBatchMessage(
            sender=int(batch.node_ids[0]), window=window, events=batch,
        ), 0.1)
    for local_id in local_ids:
        root.on_message(WatermarkMessage(
            sender=local_id, window=window, watermark_time=1000,
        ), 1.0)


@pytest.mark.parametrize(
    "window", [_local_window, _query_plane_window, _scotty_root_window],
    ids=["local", "query-plane", "scotty-root"],
)
@pytest.mark.parametrize(
    "rows, named", [case[1:] for case in NAN_CASES],
    ids=[case[0] for case in NAN_CASES],
)
def test_a_nan_is_refused_naming_its_row(window, rows, named):
    with pytest.raises(CodecError, match=f"node {named} has a NaN value"):
        window(_batches(rows))

