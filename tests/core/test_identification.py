"""Tests for the identification step."""

import pytest

from repro.errors import IdentificationError
from repro.core.identification import identify
from repro.core.slicing import slice_sorted_events
from repro.streaming.columns import EventColumns
from repro.streaming.events import event_key, make_events


def sliced(values, node_id, gamma=5):
    events = sorted(make_events(values, node_id=node_id), key=event_key)
    return slice_sorted_events(
        EventColumns.from_events(events).values, gamma, node_id
    )


class TestIdentify:
    def test_fetch_plan_covers_candidates(self):
        a = sliced(range(0, 100), node_id=1)
        b = sliced(range(100, 160), node_id=2)
        result = identify(
            {1: a.synopses, 2: b.synopses},
            {1: a.window_size, 2: b.window_size},
            q=0.5,
        )
        assert result.global_window_size == 160
        assert result.rank == 80
        requested = {
            (node, index)
            for node, indices in result.requests.items()
            for index in indices
        }
        assert requested == result.cut.candidate_ids

    def test_median_of_disjoint_nodes_targets_one_node(self):
        a = sliced(range(0, 100), node_id=1)
        b = sliced(range(1000, 1100), node_id=2)
        result = identify(
            {1: a.synopses, 2: b.synopses},
            {1: 100, 2: 100},
            q=0.25,
        )
        assert set(result.requests) == {1}

    def test_empty_local_window_allowed(self):
        a = sliced(range(10), node_id=1)
        result = identify(
            {1: a.synopses, 2: ()},
            {1: 10, 2: 0},
            q=0.5,
        )
        assert result.global_window_size == 10

    def test_all_empty_rejected(self):
        with pytest.raises(IdentificationError):
            identify({1: (), 2: ()}, {1: 0, 2: 0}, q=0.5)

    def test_node_set_mismatch_rejected(self):
        a = sliced(range(10), node_id=1)
        with pytest.raises(IdentificationError):
            identify({1: a.synopses}, {1: 10, 2: 0}, q=0.5)

    def test_size_mismatch_rejected(self):
        a = sliced(range(10), node_id=1)
        with pytest.raises(IdentificationError):
            identify({1: a.synopses}, {1: 11}, q=0.5)

    def test_requests_sorted_by_index(self):
        a = sliced([5.0, 5.0, 5.0, 5.0, 5.0, 5.0] * 4, node_id=1, gamma=2)
        result = identify({1: a.synopses}, {1: a.window_size}, q=0.5)
        for indices in result.requests.values():
            assert list(indices) == sorted(indices)

    def test_fetch_order_is_candidate_order(self):
        # Overlapping nodes handed in out of id order: the sweep meets node
        # 3's slices first, yet the candidates and the order the requests
        # iterate in are both (node_id, slice_index) — the order the
        # calculation step stacks the runs in.
        nodes = {
            3: sliced([x / 3 for x in range(60)], node_id=3),
            1: sliced([x / 2 + 1 for x in range(60)], node_id=1),
            2: sliced([x / 4 + 2 for x in range(60)], node_id=2),
        }
        result = identify(
            {n: s.synopses for n, s in nodes.items()},
            {n: s.window_size for n, s in nodes.items()},
            q=0.5,
        )
        ids = [s.slice_id for s in result.cut.candidates]
        assert len({node for node, _ in ids}) == 3
        assert ids == sorted(ids)
        fetched = [
            (node, index)
            for node, indices in result.requests.items()
            for index in indices
        ]
        assert fetched == ids

    def test_candidate_events_exposed(self):
        a = sliced(range(20), node_id=1, gamma=4)
        result = identify({1: a.synopses}, {1: 20}, q=0.5)
        assert result.candidate_events == result.cut.candidate_events

    @pytest.mark.parametrize("q", [0.01, 0.25, 0.5, 0.75, 1.0])
    def test_rank_follows_paper_definition(self, q):
        import math

        a = sliced(range(97), node_id=1)
        result = identify({1: a.synopses}, {1: 97}, q=q)
        assert result.rank == math.ceil(q * 97)
