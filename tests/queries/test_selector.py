"""One selector grammar, two evaluators: ``mask`` ≡ row-wise ``matches``."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.queries.spec import parse_selector
from repro.streaming.columns import EventColumns

U32_MAX = 2**32 - 1


@st.composite
def selectors(draw):
    form = draw(st.sampled_from(["all", "node", "mod"]))
    if form == "all":
        return "all"
    if form == "node":
        # Small ids hit the batch, the rest are absent from it — including
        # ids no u32 column can hold.
        return f"node:{draw(st.integers(0, 6) | st.integers(0, 2**40))}"
    modulus = draw(
        st.integers(1, 8) | st.integers(1, U32_MAX) | st.integers(1, 2**70)
    )
    residue = draw(st.integers(0, min(modulus - 1, 7)) |
                   st.integers(0, modulus - 1))
    return f"mod:{modulus}:{residue}"


@st.composite
def batches(draw):
    n = draw(st.integers(0, 40))
    u32 = st.integers(0, 12) | st.integers(0, U32_MAX)
    return EventColumns.from_arrays(
        np.zeros(n),
        np.zeros(n, dtype="<u4"),
        np.array(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)),
                 dtype="<u4"),
        np.array(draw(st.lists(u32, min_size=n, max_size=n)), dtype="<u4"),
    )


@settings(max_examples=300, deadline=None)
@given(selector=selectors(), batch=batches())
def test_mask_equals_row_wise_matches(selector, batch):
    parsed = parse_selector(selector)
    expected = [parsed.matches(event) for event in batch]
    mask = parsed.mask(batch)
    if mask is None:  # "every row", with no mask to apply
        assert selector == "all" and all(expected)
    else:
        assert mask.dtype == bool and mask.tolist() == expected
        assert list(batch[mask]) == [
            event for event, hit in zip(batch, expected) if hit
        ]


def test_modulus_one_selects_every_row_and_absent_node_none():
    batch = EventColumns.from_arrays(
        np.zeros(5), np.zeros(5, dtype="<u4"), 2, [0, 1, 2, 3, U32_MAX]
    )
    assert parse_selector("mod:1:0").mask(batch).all()
    assert not parse_selector("node:9").mask(batch).any()
    assert parse_selector("node:2").mask(batch).all()
    assert parse_selector("all").mask(batch) is None
