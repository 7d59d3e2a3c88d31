"""QuerySpec validation, selector grammar and window arithmetic."""

import math

import pytest

from repro.errors import QueryError
from repro.queries.spec import QuerySpec, parse_selector
from repro.streaming.events import Event


def event(seq=0, node_id=1):
    return Event(value=1.0, timestamp=0, node_id=node_id, seq=seq)


class TestValidation:
    def test_nan_q_rejected(self):
        with pytest.raises(QueryError, match="NaN"):
            QuerySpec(q=float("nan"))

    @pytest.mark.parametrize("q", [0.0, -0.5, 1.0001, float("inf")])
    def test_q_outside_unit_interval_rejected(self, q):
        with pytest.raises(QueryError, match="quantile q"):
            QuerySpec(q=q)

    def test_q_one_is_the_maximum_and_legal(self):
        assert QuerySpec(q=1.0).q == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError, match="window kind"):
            QuerySpec(kind="hopping")

    @pytest.mark.parametrize("length_ms", [0, -1000])
    def test_nonpositive_length_rejected(self, length_ms):
        with pytest.raises(QueryError, match="length"):
            QuerySpec(length_ms=length_ms)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(QueryError, match="step"):
            QuerySpec(kind="sliding", length_ms=1000, step_ms=0)

    def test_tumbling_step_must_equal_length(self):
        with pytest.raises(QueryError, match="tumbling"):
            QuerySpec(kind="tumbling", length_ms=1000, step_ms=500)

    def test_tumbling_with_matching_explicit_step_allowed(self):
        spec = QuerySpec(kind="tumbling", length_ms=1000, step_ms=1000)
        assert spec.step == 1000

    def test_gap_steps_are_legal_sliding(self):
        # step > length: windows with gaps between them.
        spec = QuerySpec(kind="sliding", length_ms=500, step_ms=2000)
        assert spec.step == 2000
        assert not spec.is_sliding  # no overlap
        assert spec.pane_ms == math.gcd(500, 2000)

    def test_session_kind_is_representable(self):
        # The live plane nacks sessions at registration, but the spec
        # itself (and the wire) must carry them.
        assert QuerySpec(kind="session").kind == "session"

    def test_small_gamma_rejected(self):
        with pytest.raises(QueryError, match="gamma"):
            QuerySpec(gamma=1)

    def test_negative_freshness_rejected(self):
        with pytest.raises(QueryError, match="freshness"):
            QuerySpec(freshness_ms=-1)

    @pytest.mark.parametrize(
        "selector",
        ["", "everything", "node:", "node:x", "node:-1", "mod:0:0",
         "mod:3:3", "mod:3:-1", "mod:a:b", "mod:3", "κλειδί"],
    )
    def test_bad_selectors_rejected(self, selector):
        with pytest.raises(QueryError):
            QuerySpec(selector=selector)


class TestSelectors:
    def test_all_matches_everything(self):
        assert parse_selector("all").matches(event(seq=123, node_id=9))

    def test_node_selector(self):
        predicate = parse_selector("node:2").matches
        assert predicate(event(node_id=2))
        assert not predicate(event(node_id=3))

    def test_mod_selector(self):
        predicate = parse_selector("mod:3:1").matches
        assert [predicate(event(seq=s)) for s in range(6)] == [
            False, True, False, False, True, False,
        ]


class TestWindowArithmetic:
    def test_step_resolves_to_length_for_tumbling(self):
        assert QuerySpec(length_ms=700).step == 700

    def test_is_sliding_only_with_overlap(self):
        assert QuerySpec(kind="sliding", length_ms=1000, step_ms=500).is_sliding
        assert not QuerySpec(
            kind="sliding", length_ms=1000, step_ms=1000
        ).is_sliding

    def test_pane_is_gcd_of_length_and_step(self):
        spec = QuerySpec(kind="sliding", length_ms=1000, step_ms=600)
        assert spec.pane_ms == 200

    def test_shape_groups_equal_execution(self):
        a = QuerySpec(q=0.5, kind="sliding", length_ms=1000, step_ms=500)
        b = QuerySpec(q=0.99, kind="sliding", length_ms=1000, step_ms=500)
        assert a.group_key == b.group_key  # q is NOT part of the key
        assert a.window_shape == b.window_shape == (1000, 500)
        c = QuerySpec(q=0.5, kind="sliding", length_ms=1000, step_ms=250)
        # Another window shape over the same key shares the group.
        assert a.group_key == c.group_key
        assert a.window_shape != c.window_shape
        # A tumbling query is the sliding shape whose step is its length.
        tumbling = QuerySpec(length_ms=1000)
        assert tumbling.window_shape == QuerySpec(
            kind="sliding", length_ms=1000, step_ms=1000
        ).window_shape
        assert a.group_key != QuerySpec(selector="mod:2:1").group_key
        assert a.group_key != QuerySpec(gamma=32).group_key

    def test_window_starts_align_to_step_grid(self):
        spec = QuerySpec(kind="sliding", length_ms=1000, step_ms=500)
        # start_from 700 ceil-aligns to 1000; windows must end <= 3000.
        assert spec.window_starts(700, 3000) == [1000, 1500, 2000]

    def test_window_starts_empty_when_no_window_fits(self):
        spec = QuerySpec(length_ms=1000)
        assert spec.window_starts(0, 999) == []

    def test_describe_mentions_the_shape(self):
        text = QuerySpec(
            q=0.9, kind="sliding", length_ms=1000, step_ms=250
        ).describe()
        assert "0.9" in text and "every 250 ms" in text
