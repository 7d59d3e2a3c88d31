"""Tests for the sorted local window: a sealed window is its sorted value
column, bit for bit the values of ``sorted(events, key=event_key)``."""

import random
import struct

import numpy as np
import pytest

from repro.errors import SliceError
from repro.core.sorted_window import SortedLocalWindow
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event, event_key, make_events


def columns(values, **kwargs):
    return EventColumns.from_events(make_events(values, **kwargs))


def value_bits(values):
    """Each value's bits, so ``-0.0`` and ``0.0`` stay apart."""
    return [struct.pack("<d", value) for value in values]


def key_sorted_bits(events):
    """The reference: the values of a Python sort by the full event key."""
    return value_bits(e.value for e in sorted(events, key=event_key))


class TestInsertion:
    def test_events_come_out_sorted(self):
        window = SortedLocalWindow()
        window.add_all(columns([5, 1, 4, 2, 3]))
        assert window.seal().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_large_random_insert_matches_sorted(self):
        # Many chunks that interleave in value, then a tail that lands
        # wholly above them: one sort of everything either way.
        rng = random.Random(3)
        events = make_events([rng.random() for _ in range(5000)])
        events += make_events(
            [1_000.0 + i for i in range(64)], start_seq=10_000
        )
        window = SortedLocalWindow()
        for lo in range(0, len(events), 640):
            window.add_all(EventColumns.from_events(events[lo:lo + 640]))
        assert value_bits(window.seal()) == key_sorted_bits(events)

    def test_duplicates_ordered_by_key(self):
        # Equal values differ in bits only as -0.0 and 0.0: those come out
        # in (node_id, seq) order, across chunks and nodes.
        events = [
            Event(value=0.0, timestamp=0, node_id=2, seq=0),
            Event(value=-0.0, timestamp=0, node_id=1, seq=5),
            Event(value=2.0, timestamp=0, node_id=1, seq=1),
            Event(value=0.0, timestamp=0, node_id=1, seq=3),
            Event(value=-0.0, timestamp=0, node_id=2, seq=1),
        ]
        window = SortedLocalWindow()
        window.add_all(EventColumns.from_events(events[:2]))
        window.add_all(EventColumns.from_events(events[2:]))
        sealed = window.seal()
        assert value_bits(sealed) == key_sorted_bits(events)
        assert value_bits(sealed) == value_bits([0.0, -0.0, 0.0, -0.0, 2.0])

    def test_constructor_seed_events(self):
        window = SortedLocalWindow(columns([3, 1, 2]))
        assert window.seal().tolist() == [1.0, 2.0, 3.0]

    def test_len_counts_buffered_and_merged(self):
        window = SortedLocalWindow()
        window.add_all(columns(range(60)))
        window.add_all(columns(range(40), start_seq=60))
        assert len(window) == 100
        assert len(window.seal()) == 100 == len(window)

    @pytest.mark.parametrize("feed", ["columnar"])
    def test_len_is_constant_time_bookkeeping(self, feed):
        # len() is a running count, not a walk over the chunk list: it
        # must be exact after every add_all and after the seal.  (The
        # parameter keeps the recorded test id.)
        window = SortedLocalWindow()
        total = 0
        for index, size in enumerate([5, 0, 17, 1, 64, 3, 9, 30]):
            window.add_all(columns(
                [float((index * 7 + k) % 11) for k in range(size)],
                start_seq=total,
            ))
            total += size
            assert len(window) == total
        assert len(window.seal()) == total == len(window)


class TestSealing:
    def test_seal_is_idempotent(self):
        window = SortedLocalWindow()
        window.add_all(columns([2, 1]))
        first = window.seal()
        second = window.seal()
        assert value_bits(first) == value_bits(second)

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
        assert sealed.dtype == np.float64 and len(sealed) == 0


class TestSnapshotSemantics:
    """The sealed column is sorted once and cached: the local node slices
    it, Desis ships it and Scotty ranks it without a copy."""

    def test_seal_returns_the_same_run(self):
        window = SortedLocalWindow()
        window.add_all(columns([3, 1, 2]))
        assert window.seal() is window.seal()

    def test_columnar_snapshot_is_the_run(self):
        window = SortedLocalWindow()
        window.add_all(columns([3, 1, 2]))
        sealed = window.seal()
        assert isinstance(sealed, np.ndarray)
        assert sealed.dtype == np.float64
        assert not sealed.flags.writeable
        assert sealed.tolist() == [1.0, 2.0, 3.0]
