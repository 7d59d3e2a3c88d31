"""The oracle must be able to fail: planted errors are caught."""

from dataclasses import dataclass

import numpy as np

from perfbench.oracle import grade_windows, window_truth


@dataclass
class _Window:
    start: int
    end: int


@dataclass
class _Outcome:
    window: _Window
    value: float
    completeness: float = 1.0


class _Stream:
    def __init__(self, values, timestamps):
        self.values = np.asarray(values, dtype=np.float64)
        self.timestamps = np.asarray(timestamps, dtype=np.int64)


def _streams():
    rng = np.random.default_rng(11)
    return {
        node: _Stream(rng.normal(40, 6, 400), np.sort(rng.integers(0, 3000, 400)))
        for node in (1, 2, 3)
    }


def _answers(truth):
    return [_Outcome(_Window(*key), value) for key, value in truth.items()]


def test_truth_is_rank_ceil_qn_of_the_sorted_window():
    streams = _streams()
    truth = window_truth(streams, 1000, 0.5)
    assert sorted(truth) == [(0, 1000), (1000, 2000), (2000, 3000)]
    values = np.concatenate([s.values for s in streams.values()])
    stamps = np.concatenate([s.timestamps for s in streams.values()])
    inside = sorted(values[(stamps >= 1000) & (stamps < 2000)])
    rank = -(-len(inside) // 2)  # ceil(0.5 * n)
    assert truth[1000, 2000] == inside[rank - 1]


def test_exact_answers_pass():
    truth = window_truth(_streams(), 1000, 0.5)
    grade = grade_windows(truth, _answers(truth), label="t")
    assert (grade.total_ops, grade.failed_ops) == (3, 0)


def test_off_by_one_rank_is_rejected():
    streams = _streams()
    truth = window_truth(streams, 1000, 0.5)
    values = np.concatenate([s.values for s in streams.values()])
    stamps = np.concatenate([s.timestamps for s in streams.values()])
    inside = sorted(values[(stamps >= 0) & (stamps < 1000)])
    rank = -(-len(inside) // 2)
    answers = _answers(truth)
    answers[0].value = inside[rank]  # the next rank up: one bit pattern off
    grade = grade_windows(truth, answers, label="t")
    assert grade.failed_ops == 1
    assert "(0, 1000)" in grade.notes[0]


def test_last_bit_difference_is_rejected():
    truth = window_truth(_streams(), 1000, 0.5)
    answers = _answers(truth)
    answers[1].value = float(np.nextafter(answers[1].value, np.inf))
    assert grade_windows(truth, answers, label="t").failed_ops == 1


def test_missing_window_is_rejected():
    truth = window_truth(_streams(), 1000, 0.5)
    grade = grade_windows(truth, _answers(truth)[:-1], label="t")
    assert grade.failed_ops == 1
    assert "missing" in grade.notes[0]


def test_degraded_window_is_rejected():
    truth = window_truth(_streams(), 1000, 0.5)
    answers = _answers(truth)
    answers[2].completeness = 0.75
    grade = grade_windows(truth, answers, label="t")
    assert grade.failed_ops == 1
    assert "degraded" in grade.notes[0]
