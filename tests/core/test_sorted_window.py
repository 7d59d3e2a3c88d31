"""Tests for the incrementally sorted local window."""

import random

import pytest

from repro.errors import SliceError
from repro.core.sorted_window import SortedLocalWindow
from repro.streaming.columns import EMPTY_EVENTS, EventColumns
from repro.streaming.events import event_key, make_events


def columns(values, **kwargs):
    return EventColumns.from_events(make_events(values, **kwargs))


class TestInsertion:
    def test_events_come_out_sorted(self):
        window = SortedLocalWindow()
        window.add_all(columns([5, 1, 4, 2, 3]))
        assert [e.value for e in window.seal()] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_large_random_insert_matches_sorted(self):
        rng = random.Random(3)
        values = [rng.random() for _ in range(5000)]
        window = SortedLocalWindow()
        events = make_events(values)
        window.add_all(EventColumns.from_events(events))
        assert window.seal() == sorted(events, key=event_key)

    def test_duplicates_ordered_by_key(self):
        window = SortedLocalWindow()
        window.add_all(columns([2.0, 2.0, 2.0]))
        sealed = window.seal()
        assert [e.seq for e in sealed] == [0, 1, 2]

    def test_constructor_seed_events(self):
        window = SortedLocalWindow(columns([3, 1, 2]))
        assert [e.value for e in window.sorted_events()] == [1.0, 2.0, 3.0]

    def test_len_counts_buffered_and_merged(self):
        window = SortedLocalWindow()
        window.add_all(columns(range(60)))
        window.sorted_events()
        window.add_all(columns(range(40), start_seq=60))
        assert len(window) == 100

    @pytest.mark.parametrize("feed", ["columnar"])
    def test_len_is_constant_time_bookkeeping(self, feed):
        # len() is a running count, not a walk over the chunk list: it
        # must still be exact after every add_all and across a mid-window
        # compaction.  (The parameter keeps the recorded test id.)
        window = SortedLocalWindow()
        total = 0
        for index, size in enumerate([5, 0, 17, 1, 64, 3, 9, 30]):
            window.add_all(columns(
                [float((index * 7 + k) % 11) for k in range(size)],
                start_seq=total,
            ))
            total += size
            assert len(window) == total
            if index == 4:
                assert len(window.sorted_events()) == total
                assert len(window) == total
        assert len(window.seal()) == total == len(window)

    def test_iteration_is_sorted(self):
        window = SortedLocalWindow()
        window.add_all(columns([3, 1, 2]))
        assert [e.value for e in window] == [1.0, 2.0, 3.0]


class TestSealing:
    def test_seal_is_idempotent(self):
        window = SortedLocalWindow()
        window.add_all(columns([2, 1]))
        first = window.seal()
        second = window.seal()
        assert first == second

    def test_add_after_seal_rejected(self):
        window = SortedLocalWindow()
        window.seal()
        with pytest.raises(SliceError):
            window.add_all(columns([1.0]))

    def test_is_sealed_flag(self):
        window = SortedLocalWindow()
        assert not window.is_sealed
        window.seal()
        assert window.is_sealed

    def test_empty_seal(self):
        sealed = SortedLocalWindow().seal()
        assert sealed is EMPTY_EVENTS and len(sealed) == 0

    def test_snapshot_does_not_seal(self):
        window = SortedLocalWindow()
        window.add_all(columns([1.0]))
        window.sorted_events()
        window.add_all(columns([2.0], start_seq=10))
        assert len(window) == 2


class TestLazyBufferEquivalence:
    def test_interleaved_adds_and_snapshots_stay_sorted(self):
        # Snapshots force a compaction mid-stream; later batches must
        # merge into the existing run — observably identical to one big
        # sort, whether they interleave with it or land wholly above it.
        rng = random.Random(21)
        values = [rng.random() * 100 for _ in range(5_000)]
        window = SortedLocalWindow()
        reference = []
        for lo in range(0, len(values), 640):
            chunk = make_events(values[lo:lo + 640], start_seq=lo)
            window.add_all(EventColumns.from_events(chunk))
            reference.extend(chunk)
            assert window.sorted_events() == sorted(reference, key=event_key)
        tail = make_events([1_000.0 + i for i in range(64)], start_seq=10_000)
        window.add_all(EventColumns.from_events(tail))
        reference.extend(tail)
        assert window.seal() == sorted(reference, key=event_key)


class TestSnapshotSemantics:
    """``sorted_events()`` is a zero-copy snapshot.

    Mid-window cuts call it once per synopsis refresh; an O(n) defensive
    copy per call made repeated cuts quadratic, which is exactly what
    the snapshot contract removed.
    """

    def test_repeated_snapshots_do_not_copy(self):
        window = SortedLocalWindow()
        window.add_all(columns([3, 1, 2]))
        first = window.sorted_events()
        assert window.sorted_events() is first

    def test_seal_returns_the_same_run(self):
        window = SortedLocalWindow()
        window.add_all(columns([3, 1, 2]))
        snapshot = window.sorted_events()
        assert window.seal() is snapshot

    def test_snapshot_refreshes_after_inserts(self):
        window = SortedLocalWindow()
        window.add_all(columns([3.0, 1.0]))
        before = window.sorted_events()
        window.add_all(columns([2.0], start_seq=2))
        after = window.sorted_events()
        assert [e.value for e in before] == [1.0, 3.0]
        assert [e.value for e in after] == [1.0, 2.0, 3.0]

    def test_columnar_snapshot_is_the_run(self):
        window = SortedLocalWindow()
        window.add_all(columns([3, 1, 2]))
        snapshot = window.sorted_events()
        assert isinstance(snapshot, EventColumns)
        assert window.sorted_events() is snapshot
        assert [e.value for e in snapshot] == [1.0, 2.0, 3.0]
