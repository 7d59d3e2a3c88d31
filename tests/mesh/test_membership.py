"""Tests for the root node's elastic membership table."""

import random

from repro.core.query import QuantileQuery
from repro.core.root_node import DemaRootNode
from repro.streaming.windows import Window

W0 = Window(0, 1_000)
W2 = Window(2_000, 3_000)
W3 = Window(3_000, 4_000)


def root(local_ids=(1, 2)) -> DemaRootNode:
    return DemaRootNode(0, local_ids=local_ids, query=QuantileQuery())


class TestJoin:
    def test_join_is_eligible_from_its_first_window(self):
        node = root()
        assert node.add_local(5, first_window_start=2_000)
        assert 5 not in node._eligible_locals(W0)
        assert 5 in node._eligible_locals(W2)
        assert node.current_members == (1, 2, 5)

    def test_join_bumps_epoch_once(self):
        node = root()
        assert node.membership_epoch == 0
        node.add_local(5, 2_000)
        assert node.membership_epoch == 1
        # Re-announcing the same join is idempotent.
        assert not node.add_local(5, 2_000)
        assert node.membership_epoch == 1

    def test_founders_have_no_eligibility_restriction(self):
        node = root()
        assert node._eligible_locals(W0) == (1, 2)
        assert node._eligible_locals(W3) == (1, 2)


class TestLeave:
    def test_leaver_serves_windows_before_the_boundary(self):
        node = root()
        assert node.remove_local(2, effective_from=3_000, now=0.0)
        assert 2 in node._eligible_locals(W2)
        assert 2 not in node._eligible_locals(W3)
        assert node.current_members == (1,)

    def test_leave_bumps_epoch_once(self):
        node = root()
        node.remove_local(2, 3_000, now=0.0)
        assert node.membership_epoch == 1
        assert not node.remove_local(2, 3_000, now=0.0)
        assert node.membership_epoch == 1

    def test_unknown_leaver_is_a_no_op(self):
        node = root()
        assert not node.remove_local(99, 3_000, now=0.0)
        assert node.membership_epoch == 0

    def test_rejoin_after_leave_reopens_eligibility(self):
        node = root()
        node.remove_local(2, 1_000, now=0.0)
        assert 2 not in node._eligible_locals(W2)
        node.add_local(2, 2_000)
        assert 2 in node._eligible_locals(W2)
        assert node.current_members == (1, 2)
        assert node.membership_epoch == 2


class TestEligibleCache:
    def test_the_cached_answer_is_the_rule_through_joins_leaves_and_deaths(self):
        """Each arriving section asks for a window's eligible locals; the
        root answers from a cache per window start, which every join and
        leave must invalidate (a death is not membership)."""
        rng = random.Random(7)
        node = root(local_ids=(1, 2, 3))
        windows = [Window(start, start + 1_000) for start in range(0, 8_000, 1_000)]
        for step in range(300):
            kind = rng.choice(["join", "leave", "dead", "alive", "ask"])
            local = rng.randint(1, 6)
            start = rng.randrange(0, 8_000, 1_000)
            if kind == "join":
                node.add_local(local, start)
            elif kind == "leave":
                node.remove_local(local, start, now=float(step))
            elif kind == "dead":
                node.mark_dead(local, now=float(step))
            elif kind == "alive":
                node.mark_alive(local)
            for window in rng.sample(windows, 3):
                assert node._eligible_locals(window) == node._members_for(window)
