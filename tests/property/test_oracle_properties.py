"""Property: the one oracle is ``sorted(events, key=event_key)[k - 1]``.

For any events, window starts (tumbling or sliding, empty windows
included), key selector and membership schedule, :func:`repro.testing.oracle`
returns per window and quantile the reference's value (bit for bit), the
window's size and the rank ``k = ceil(q * size)``.  The reference filters
event objects one at a time with ``Selector.matches`` and each local's
eligibility range, and sorts each window's events by ``event_key``.  A
NaN has no rank: the oracle refuses any input holding one.

Values come from a pool of both zeros, ±1 and ±inf, so most windows are
ties the value alone cannot rank, or from the whole float line without
NaN; each is re-packed into a fresh float object, as wire decode produces
them.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError

from repro.queries.spec import parse_selector
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event, event_key
from repro.streaming.windows import Window
from repro.testing import oracle

_F64 = struct.Struct("<d")

_POOL = [0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf")]

_values = st.one_of(
    st.sampled_from(_POOL),
    st.floats(allow_nan=False, allow_infinity=True, width=64),
).map(lambda v: _F64.unpack(_F64.pack(v))[0])

_selectors = st.one_of(
    st.just("all"),
    st.integers(min_value=0, max_value=4).map(lambda n: f"node:{n}"),
    st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.integers(min_value=0, max_value=m - 1).map(
            lambda r: f"mod:{m}:{r}"
        )
    ),
)


@st.composite
def events(draw):
    """Up to 40 events of nodes 1-3 over 0-3,000 ms; sequence numbers
    repeat, so whole keys can collide (twins differing in sign)."""
    return [
        Event(
            value=draw(_values),
            timestamp=draw(st.integers(min_value=0, max_value=3000)),
            node_id=draw(st.integers(min_value=1, max_value=3)),
            seq=draw(st.integers(min_value=0, max_value=5)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=40)))
    ]


@st.composite
def memberships(draw):
    """Per node, ``None`` (member throughout) or an eligibility range."""
    ranges = {}
    for node_id in (1, 2, 3):
        if draw(st.booleans()):
            lo = draw(st.integers(min_value=0, max_value=3000))
            ranges[node_id] = (lo, draw(st.integers(lo, 3500)))
    return ranges


def _bits(answer):
    value, size, rank = answer
    return (None if value is None else _F64.pack(value), size, rank)


@settings(max_examples=300, deadline=None)
@given(
    drawn=events(),
    length=st.sampled_from([500, 1000]),
    step_divisor=st.sampled_from([1, 2, 3]),
    selector=_selectors,
    membership=memberships(),
    qs=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        min_size=1, max_size=3,
    ),
)
def test_oracle_equals_the_sorted_reference(
    drawn, length, step_divisor, selector, membership, qs
):
    columns = EventColumns.from_events(drawn)
    step = length // step_divisor
    # From a window ending inside the first millisecond to past the last
    # event: the ends of the grid hold empty windows.
    starts = range(-length + step, 3000 + length, step)
    parsed = parse_selector(selector)

    def eligible(event):
        lo, hi = membership.get(event.node_id, (0, math.inf))
        return parsed.matches(event) and lo <= event.timestamp < hi

    # The caller's masks: the selector's columnar one, and each node's
    # eligibility range.
    timestamps, node_ids = columns.timestamps, columns.node_ids
    mask = np.ones(len(columns), dtype=bool)
    for node_id, (lo, hi) in membership.items():
        mask &= (node_ids != node_id) | ((lo <= timestamps) & (timestamps < hi))
    selected = parsed.mask(columns)
    if selected is not None:
        mask &= selected
    truth = oracle(columns, starts, length, qs, mask=mask)

    reference = {}
    for start in starts:
        inside = [
            event for event in columns
            if eligible(event) and start <= event.timestamp < start + length
        ]
        ordered = sorted(inside, key=event_key)
        reference[start] = tuple(
            (ordered[k - 1].value, len(inside), k) if inside else (None, 0, 0)
            for k in (math.ceil(q * len(inside)) for q in qs)
        )
    assert len(truth) == len(qs)
    for index, table in enumerate(truth):
        assert list(table) == [Window(s, s + length) for s in starts]
        assert [_bits(answer) for answer in table.values()] == [
            _bits(answers[index]) for answers in reference.values()
        ]


@settings(max_examples=100, deadline=None)
@given(drawn=events(), row=st.integers(min_value=0), masked=st.booleans())
def test_oracle_refuses_a_nan(drawn, row, masked):
    """Any NaN in the input, even in a row the mask drops, is refused and
    named: no window holding one has an answer."""
    drawn = [*drawn, Event(float("nan"), 0, 1, 0)]
    row %= len(drawn)
    drawn.insert(row, drawn.pop())
    mask = [index != row for index in range(len(drawn))] if masked else None
    with pytest.raises(ConfigurationError, match=f"event row {row} has a NaN"):
        oracle(EventColumns.from_events(drawn), [0], 1000, [0.5], mask=mask)
