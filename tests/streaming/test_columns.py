"""Unit tests for the columnar event-batch type."""

import math
import random
import struct

import numpy as np
import pytest

from repro.errors import CodecError
from repro.runtime import wire
from repro.streaming import columns
from repro.streaming.columns import EventColumns, concat_columns, sort_values
from repro.streaming.events import Event, event_key, make_events


@pytest.fixture(params=["numpy"])
def backend(request):
    """The one representation; the parameter keeps the recorded test ids."""
    return request.param


def _pack(events):
    return b"".join(
        wire.EVENT.pack(e.value, e.timestamp, e.node_id, e.seq)
        for e in events
    )


EVENTS = (
    Event(value=3.5, timestamp=10, node_id=1, seq=0),
    Event(value=-1.25, timestamp=11, node_id=2, seq=7),
    Event(value=3.5, timestamp=9, node_id=1, seq=1),
    Event(value=0.0, timestamp=12, node_id=3, seq=2),
)


class TestConstruction:
    def test_from_wire_roundtrip(self, backend):
        cols = EventColumns.from_wire(_pack(EVENTS))
        assert len(cols) == len(EVENTS)
        assert tuple(cols) == EVENTS
        assert cols.to_wire() == _pack(EVENTS)

    def test_from_events_matches_from_wire(self, backend):
        assert EventColumns.from_events(EVENTS) == EventColumns.from_wire(
            _pack(EVENTS)
        )

    def test_empty(self, backend):
        cols = EventColumns.from_wire(b"")
        assert len(cols) == 0
        assert tuple(cols) == ()
        assert cols.to_wire() == b""

    def test_stride_mismatch_rejected(self, backend):
        with pytest.raises(CodecError, match="stride"):
            EventColumns.from_wire(_pack(EVENTS)[:-3])

    def test_count_mismatch_rejected(self, backend):
        with pytest.raises(CodecError, match="announced"):
            EventColumns.from_wire(_pack(EVENTS), count=3)

    def test_count_match_accepted(self, backend):
        cols = EventColumns.from_wire(_pack(EVENTS), count=len(EVENTS))
        assert len(cols) == len(EVENTS)

    def test_nan_bits_survive_roundtrip(self, backend):
        # A non-default NaN payload must come back bit for bit.
        raw = struct.pack(
            "<dIII", struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0],
            5, 1, 0,
        )
        cols = EventColumns.from_wire(raw)
        assert cols.to_wire() == raw
        assert math.isnan(cols[0].value)


def _nan(payload):
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8 << 48 | payload))[0]


class TestFromEvents:
    """``from_events`` fills one column per pass; its bytes are the row-wise
    ``struct`` packing, and nothing out of range wraps."""

    EDGE = (
        Event(value=0.0, timestamp=0, node_id=0, seq=0),
        Event(value=-0.0, timestamp=1, node_id=1, seq=2**32 - 1),
        Event(value=math.inf, timestamp=2**32 - 1, node_id=2, seq=1),
        Event(value=-math.inf, timestamp=5, node_id=2**32 - 1, seq=2),
        Event(value=_nan(1), timestamp=6, node_id=3, seq=3),
        Event(value=-_nan(0xBEEF), timestamp=7, node_id=3, seq=4),
        Event(value=5e-324, timestamp=8, node_id=3, seq=5),
        Event(value=7, timestamp=9, node_id=3, seq=6),  # an int value
    )

    @pytest.mark.parametrize("container", [tuple, list, iter])
    def test_bytes_equal_row_wise_struct_packing(self, container):
        cols = EventColumns.from_events(container(self.EDGE))
        assert cols.to_wire() == _pack(self.EDGE)
        assert len(cols) == len(self.EDGE)

    def test_empty(self):
        assert EventColumns.from_events([]).to_wire() == b""

    @pytest.mark.parametrize("field", ["timestamp", "node_id", "seq"])
    @pytest.mark.parametrize("bad", [-1, 2**32, 2**63, -(2**63) - 1])
    def test_out_of_range_integers_raise_instead_of_wrapping(self, field, bad):
        fields = dict(value=1.0, timestamp=1, node_id=1, seq=1)
        fields[field] = bad
        with pytest.raises(OverflowError):
            EventColumns.from_events([EVENTS[0], Event(**fields)])

    @pytest.mark.parametrize("bad", ["x", None, [1.0]])
    def test_non_numeric_value_raises(self, bad):
        event = Event(value=bad, timestamp=1, node_id=1, seq=1)
        with pytest.raises((TypeError, ValueError)):
            EventColumns.from_events([event])

    @pytest.mark.parametrize("bad", ["x", None])
    def test_non_numeric_integer_field_raises(self, bad):
        event = Event(value=1.0, timestamp=bad, node_id=1, seq=1)
        with pytest.raises((TypeError, ValueError)):
            EventColumns.from_events([event])

    def test_as_event_columns_passes_columns_through(self):
        cols = EventColumns.from_events(EVENTS)
        assert columns.as_event_columns(cols) is cols
        assert columns.as_event_columns(list(EVENTS)).to_wire() == _pack(EVENTS)


class TestByTumblingWindow:
    def _batch(self, stamps):
        return EventColumns.from_events(
            Event(value=float(i), timestamp=ts, node_id=1, seq=i)
            for i, ts in enumerate(stamps)
        )

    def test_one_window_hands_the_batch_back(self):
        batch = self._batch([1000, 1500, 1999])
        assert batch.by_window(1000) == [(1000, batch)]
        assert batch.by_window(1000)[0][1] is batch
        assert self._batch([]).by_window(1000) == []

    def test_windows_come_in_first_appearance_order(self):
        batch = self._batch([2100, 300, 2200, 1500, 301])
        split = batch.by_window(1000)
        assert [start for start, _ in split] == [2000, 0, 1000]
        assert [[e.seq for e in rows] for _, rows in split] == [
            [0, 2], [1, 4], [3]
        ]

    def test_starts_near_the_u32_edge_do_not_wrap(self):
        top = 2**32 - 1
        split = self._batch([top - 1000, top]).by_window(1000)
        assert [start for start, _ in split] == [
            (top - 1000) // 1000 * 1000, top // 1000 * 1000
        ]
        assert split[-1][0] + 1000 > 2**32


class TestSequenceProtocol:
    def test_indexing_materializes_pure_python_types(self, backend):
        cols = EventColumns.from_events(EVENTS)
        event = cols[1]
        assert event == EVENTS[1]
        assert type(event.value) is float
        assert type(event.timestamp) is int
        assert type(event.node_id) is int
        assert type(event.seq) is int
        assert cols[-1] == EVENTS[-1]

    def test_slicing_returns_columns(self, backend):
        cols = EventColumns.from_events(EVENTS)
        assert isinstance(cols[1:3], EventColumns)
        assert tuple(cols[1:3]) == EVENTS[1:3]
        assert tuple(cols[::2]) == EVENTS[::2]
        assert tuple(cols[1::2]) == EVENTS[1::2]
        # Every multi-stream replay ships strided views: each must pack
        # to the bytes of its own events, records copied whole.
        for batch, events in (
            (cols[1:3], EVENTS[1:3]),
            (cols[::2], EVENTS[::2]),
            (cols[1::3], EVENTS[1::3]),
            (cols[::-1], EVENTS[::-1]),
            (
                concat_columns([cols[::2], cols[1::3], cols[::-1]]),
                EVENTS[::2] + EVENTS[1::3] + EVENTS[::-1],
            ),
        ):
            assert batch.to_wire() == _pack(events)
            assert b"".join([batch.wire_records()]) == _pack(events)

    def test_equality_against_event_sequences(self, backend):
        cols = EventColumns.from_events(EVENTS)
        assert cols == EVENTS
        assert EVENTS == cols
        assert cols == list(EVENTS)
        assert cols != EVENTS[:-1]
        assert cols != EVENTS[:-1] + (Event(99.0, 1, 1, 99),)
        assert hash(cols) == hash(EVENTS)

    def test_keys_and_timestamps(self, backend):
        cols = EventColumns.from_events(EVENTS)
        assert cols.timestamp_at(2) == 9
        assert cols.min_timestamp() == 9
        assert cols.max_timestamp() == 12
        assert not cols.timestamps_sorted()
        assert EventColumns.from_events(
            sorted(EVENTS, key=lambda e: e.timestamp)
        ).timestamps_sorted()


def _events(values, *, nodes=(1,), seqs=None):
    """Events in arrival order: distinct timestamps, ``nodes`` cycled,
    ``seq`` the arrival index unless given (repeats make exact twins)."""
    return [
        Event(
            value=value, timestamp=index, node_id=nodes[index % len(nodes)],
            seq=index if seqs is None else seqs[index],
        )
        for index, value in enumerate(values)
    ]


def _input_classes():
    rng = random.Random(5)
    inf = float("inf")
    pool = [0.5, 1.5, 2.5]
    return {
        "continuous": _events([rng.random() for _ in range(200)]),
        "value_pool": _events(
            [rng.choice(pool) for _ in range(200)], nodes=(3, 1, 2)
        ),
        "rare_ties": _events(
            [rng.random() for _ in range(180)] + [0.25] * 3 + [0.75] * 2,
            nodes=(2, 1),
        ),
        "signed_zeros": _events(
            [rng.choice([0.0, -0.0]) for _ in range(30)]
            + [rng.random() - 0.5 for _ in range(170)],
            nodes=(2, 1),
        ),
        "infinities": _events(
            [rng.choice([inf, -inf]) for _ in range(20)]
            + [rng.random() for _ in range(180)],
            nodes=(1, 2),
        ),
        # Keys collide outright, timestamps tell the twins apart.
        "exact_twins": _events(
            [rng.choice(pool) for _ in range(40)]
            + [rng.random() for _ in range(160)],
            seqs=[rng.randrange(4) for _ in range(200)],
        ),
    }


#: What a window's values can look like, by name — each held against the
#: object path byte for byte.
INPUT_CLASSES = _input_classes()


def _value_bits(values):
    return np.asarray(values, dtype=np.float64).view("<u8").tolist()


def _key_sorted_bits(events):
    """The reference: the values of a Python sort by the full event key."""
    return _value_bits([e.value for e in sorted(events, key=event_key)])


class TestMergeRuns:
    """:func:`sort_values` merges a window's chunks — raw batches, or
    batches that are themselves sorted runs — into one value column."""

    def test_sorts_like_object_path(self, backend):
        merged = sort_values([EventColumns.from_events(EVENTS)])
        assert _value_bits(merged) == _key_sorted_bits(EVENTS)

    def test_merges_into_run(self, backend):
        base = sorted(EVENTS, key=event_key)
        extra = make_events([2.0, -5.0], node_id=9, start_timestamp=20)
        merged = sort_values([
            EventColumns.from_events(base), EventColumns.from_events(extra)
        ])
        assert _value_bits(merged) == _key_sorted_bits(list(EVENTS) + extra)

    def test_nan_in_a_batch_is_refused_naming_its_row(self, backend):
        # A NaN has no rank; numpy sorts it last, and the sort names its
        # row (a wire-fed NaN is refused where it is first ordered).
        events = [
            Event(value=2.0, timestamp=0, node_id=1, seq=0),
            Event(value=float("nan"), timestamp=1, node_id=4, seq=9),
            Event(value=1.0, timestamp=2, node_id=1, seq=2),
        ]
        with pytest.raises(CodecError, match="node 4 seq 9 has a NaN value"):
            sort_values([EventColumns.from_events(events)])

    def test_nan_merged_into_a_run_is_refused(self, backend):
        run = EventColumns.from_events(make_events([1.0, 3.0], node_id=1))
        pending = EventColumns.from_events([
            Event(value=2.0, timestamp=3, node_id=2, seq=0),
            Event(value=-_nan(0xBEEF), timestamp=4, node_id=2, seq=1),
        ])
        with pytest.raises(CodecError, match="node 2 seq 1 has a NaN value"):
            sort_values([run, pending])

    def test_duplicate_keys_stable(self, backend):
        # node_id/seq pairs make keys strict in production; exact-duplicate
        # keys keep arrival order, which shows only on a signed zero.
        zero = Event(value=0.0, timestamp=0, node_id=1, seq=0)
        negative = Event(value=-0.0, timestamp=1, node_id=1, seq=0)
        for events in ([zero, negative], [negative, zero]):
            chunks = [EventColumns.from_events([event]) for event in events]
            assert _value_bits(sort_values(chunks)) == _value_bits(
                [event.value for event in events]
            )

    @pytest.mark.parametrize("name", sorted(INPUT_CLASSES))
    def test_input_class_sorts_like_object_path(self, backend, name):
        events = INPUT_CLASSES[name]
        merged = sort_values([EventColumns.from_events(events)])
        assert _value_bits(merged) == _key_sorted_bits(events)

    @pytest.mark.parametrize("name", sorted(INPUT_CLASSES))
    def test_input_class_merges_into_sorted_run(self, backend, name):
        events = INPUT_CLASSES[name]
        head, tail = sorted(events[:70], key=event_key), events[70:]
        merged = sort_values([
            EventColumns.from_events(head), EventColumns.from_events(tail)
        ])
        # Twins: the run's before the tail's, each side in arrival order.
        assert _value_bits(merged) == _key_sorted_bits(head + tail)

    @pytest.mark.parametrize(
        "decimals, rare_ties", [(3, True), (0, False)]
    )
    def test_large_windows_on_both_sides_of_the_tie_limit(
        self, backend, decimals, rare_ties
    ):
        # Hypothesis-sized windows never reach SIMD-sized inputs with real
        # ties; these hold fewer and more than one tied neighbour pair in
        # four rows, with both signs of zero among them.
        n = 16_384
        rng = np.random.default_rng(42)
        values = np.round(rng.normal(0.0, 20.0, n), decimals)
        values[rng.integers(0, n, 64)] = -0.0
        values[rng.integers(0, n, 64)] = 0.0
        cols = EventColumns.from_arrays(
            values, np.arange(n), rng.integers(1, 4, n)
        )
        ties = n - len(np.unique(values))
        assert 0 < ties
        assert (ties * 4 <= n) == rare_ties
        expected = np.lexsort((cols.seqs, cols.node_ids, cols.values))
        chunks = [cols[at:at + 4096] for at in range(0, n, 4096)]
        assert _value_bits(sort_values(chunks)) == _value_bits(
            cols.values[expected]
        )

    def test_nan_values_order_last(self, backend):
        # The kernel's own NaN rule, which sort_values reads off the last
        # sorted value: every NaN sorts last, whatever its sign bit.
        for n in (6, 4096):
            values = np.random.default_rng(n).normal(size=n)
            values[[1, n // 2]] = [np.copysign(np.nan, -1), np.nan]
            ordered = np.sort(values)
            assert np.isnan(ordered[-2:]).all()
            assert not np.isnan(ordered[:-2]).any()

    def test_empty(self, backend):
        empty = EventColumns.from_wire(b"")
        for chunks in ([], [empty], [empty, empty]):
            sealed = sort_values(chunks)
            assert sealed.dtype == np.float64 and len(sealed) == 0


class TestConcat:
    def test_concat_orders_chunks(self, backend):
        a = EventColumns.from_events(EVENTS[:2])
        b = EventColumns.from_events(EVENTS[2:])
        assert tuple(concat_columns([a, b])) == EVENTS
        assert concat_columns([a]) is a
        assert len(concat_columns([])) == 0
