"""Tests for the public verification utilities."""

import math
from types import SimpleNamespace

import pytest

from repro.errors import HarnessError
from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.network.topology import TopologyConfig
from repro.streaming.events import make_events
from repro.streaming.windows import Window
from repro.testing import grade, oracle, verify_outcomes
from repro.bench.generator import GeneratorConfig, workload
from tests.event_objects import event_objects


QUERY = QuantileQuery(q=0.5, gamma=30)


def run_dema(streams):
    engine = DemaEngine(QUERY, TopologyConfig(n_local_nodes=len(streams)))
    return engine.run(streams)


class TestGroundTruth:
    def test_matches_manual_computation(self):
        events = make_events([3.0, 1.0, 2.0], node_id=1, timestamp_step=1)
        truth = oracle(events, [0, 1000], 1000, [0.5, 1.0])
        assert truth == [
            {Window(0, 1000): (2.0, 3, 2), Window(1000, 2000): (None, 0, 0)},
            {Window(0, 1000): (3.0, 3, 3), Window(1000, 2000): (None, 0, 0)},
        ]

    def test_sliding_windows_covered(self):
        events = make_events(range(10), node_id=1, timestamp_step=100)
        truth = oracle(events, range(-500, 1000, 500), 1000, [0.5])
        assert truth == [{
            Window(-500, 500): (2.0, 5, 3),
            Window(0, 1000): (4.0, 10, 5),
            Window(500, 1500): (7.0, 5, 3),
        }]

    def test_mask_selects_rows_before_ranking(self):
        events = make_events([5.0, 1.0, 4.0, 2.0], node_id=1)
        truth = oracle(events, [0], 1000, [1.0], mask=[True, False, True, False])
        assert truth == [{Window(0, 1000): (5.0, 2, 2)}]


class TestVerifyOutcomes:
    def test_exact_run_verifies(self):
        streams = event_objects(workload(
            [1, 2], GeneratorConfig(event_rate=500, duration_s=2.0, seed=3)
        ))
        report = run_dema(streams)
        verification = verify_outcomes(report.outcomes, streams, QUERY)
        assert verification.is_exact
        assert verification.checked == len(report.outcomes)
        assert "exact on all" in verification.summary()

    def test_mismatch_detected(self):
        class Fake:
            window = Window(0, 1000)
            value = 123.456

        streams = {1: make_events([1.0, 2.0], node_id=1, timestamp_step=1)}
        verification = verify_outcomes([Fake()], streams, QUERY)
        assert not verification.is_exact
        assert len(verification.mismatches) == 1
        assert "mismatched" in verification.summary()

    def test_missing_window_detected(self):
        streams = {1: make_events([1.0], node_id=1)}
        verification = verify_outcomes([], streams, QUERY)
        assert not verification.is_exact
        assert verification.missing_windows == [Window(0, 1000)]

    def test_missing_windows_can_be_ignored(self):
        # Two windows; only the first is answered.
        streams = {1: make_events([1.0, 2.0], node_id=1, timestamp_step=1000)}
        answered = SimpleNamespace(window=Window(0, 1000), value=1.0)
        verification = verify_outcomes(
            [answered], streams, QUERY, require_all_windows=False
        )
        assert verification.is_exact
        assert verification.missing_windows == []

    def test_invented_window_rejected(self):
        class Fake:
            window = Window(99_000, 100_000)
            value = 1.0

        streams = {1: make_events([1.0], node_id=1)}
        with pytest.raises(HarnessError):
            verify_outcomes([Fake()], streams, QUERY)

    def test_none_values_skipped(self):
        class Empty:
            window = Window(0, 1000)
            value = None

        streams = {1: make_events([1.0], node_id=1)}
        verification = verify_outcomes(
            [Empty()], streams, QUERY, require_all_windows=False
        )
        assert verification.checked == 0
        assert not verification.is_exact
        assert verification.summary() == "nothing checked: no outcome had a value"


class TestSignedZero:
    """``-0.0 == 0.0``, so only the bits tell which zero sits at a rank:
    event-key order puts local 1's ``+0.0`` first, and an oracle that
    partitions values alone, or a grader that compares with ``==``, lets
    the wrong sign through."""

    STREAMS = {
        1: make_events([0.0] * 4, node_id=1),
        2: make_events([0.0, 0.0, 0.0, 0.0, -0.0], node_id=2),
    }
    SHARED = QuantileQuery(q=0.1, gamma=2)
    WINDOW = Window(0, 1000)

    def truth(self):
        events = [e for share in self.STREAMS.values() for e in share]
        (truth,) = oracle(events, [0], 1000, [0.1])
        return truth

    def test_oracle_takes_the_positive_zero(self):
        value, size, rank = self.truth()[self.WINDOW]
        assert (math.copysign(1.0, value), size, rank) == (1.0, 9, 1)

    def test_dema_answer_grades_recovered(self):
        engine = DemaEngine(self.SHARED, TopologyConfig(n_local_nodes=2))
        outcomes = engine.run(self.STREAMS).outcomes
        assert [g for _, g, _ in grade(self.truth(), outcomes)] == ["recovered"]

    def test_negative_zero_answer_grades_mismatch(self):
        answer = SimpleNamespace(
            window=self.WINDOW, value=-0.0, global_window_size=9
        )
        ((window, verdict, note),) = grade(self.truth(), [answer])
        assert (window, verdict) == (self.WINDOW, "mismatch")
        assert note == "run window Window(start=0, end=1000): value -0.0 != oracle 0.0"


class TestGrade:
    TRUTH = {Window(0, 1000): (2.0, 3, 2), Window(1000, 2000): (5.0, 1, 1)}

    @staticmethod
    def answer(start, value, **fields):
        return SimpleNamespace(
            window=Window(start, start + 1000), value=value, **fields
        )

    def test_every_class(self):
        graded = grade(self.TRUTH, [
            self.answer(0, 2.0, global_window_size=3, rank=2),
            self.answer(0, 2.0),
            self.answer(1000, 5.0, completeness=0.5),
            self.answer(5000, 1.0),
            self.answer(6000, None),
        ])
        assert [(w.start, g) for w, g, _ in graded] == [
            (0, "recovered"),
            (0, "mismatch"),
            (1000, "degraded"),
            (5000, "mismatch"),
        ]
        assert graded[1][2] == (
            "run: duplicate result for window Window(start=0, end=1000)"
        )
        assert graded[3][2].startswith("run: unexpected result")

    def test_missing_windows_are_lost_only_when_complete(self):
        answers = [self.answer(0, 2.0)]
        assert [(w.start, g) for w, g, _ in grade(self.TRUTH, answers)] == [
            (0, "recovered"), (1000, "lost"),
        ]
        assert len(grade(self.TRUTH, answers, complete=False)) == 1

    def test_size_rank_and_missing_value(self):
        graded = grade(self.TRUTH, [
            self.answer(0, 2.0, global_window_size=4),
            self.answer(1000, None, global_window_size=0),
        ], label="query 7")
        assert [(g, note) for _, g, note in graded] == [
            ("mismatch",
             "query 7 window Window(start=0, end=1000): size 4 != oracle 3"),
            ("lost",
             "query 7 window Window(start=1000, end=2000): no value "
             "(expected size 1)"),
        ]

    def test_empty_window_compares_size_and_rank_only(self):
        truth = {Window(0, 1000): (None, 0, 0)}
        ok = self.answer(0, 0.0, global_window_size=0, rank=0)
        bad = self.answer(0, 0.0, global_window_size=0, rank=1)
        assert grade(truth, [ok])[0][1] == "recovered"
        assert grade(truth, [bad])[0][1] == "mismatch"
