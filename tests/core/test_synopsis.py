"""Tests for slice synopses."""

from collections import Counter
from itertools import pairwise

import numpy as _np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IdentificationError, SliceError
from repro.core.window_cut import cut_frame, rank_bound_candidates
from repro.core.synopsis import (
    SliceSynopsis,
    SynopsisColumns,
    as_synopsis_columns,
    concat_synopses,
)


def synopsis(first, last, count=10, node_id=1, index=0, total=1):
    return SliceSynopsis(
        first_key=(float(first), node_id, 0),
        last_key=(float(last), node_id, count - 1),
        count=count,
        node_id=node_id,
        slice_index=index,
        n_slices=total,
    )


class TestValidation:
    def test_valid_synopsis(self):
        s = synopsis(1.0, 5.0)
        assert s.count == 10

    def test_zero_count_rejected(self):
        with pytest.raises(SliceError):
            synopsis(1.0, 5.0, count=0)

    def test_inverted_keys_rejected(self):
        with pytest.raises(SliceError):
            synopsis(5.0, 1.0)

    def test_nan_key_rejected(self):
        # A NaN is neither at nor below its partner: the row refuses it,
        # as the batch's ``validated`` does.
        for first, last in ((float("nan"), 5.0), (1.0, float("nan"))):
            with pytest.raises(SliceError, match="or a key is NaN"):
                synopsis(first, last)

    def test_index_out_of_range_rejected(self):
        with pytest.raises(SliceError):
            synopsis(1.0, 5.0, index=1, total=1)

    def test_single_event_slice_allowed(self):
        s = SliceSynopsis(
            first_key=(1.0, 1, 0),
            last_key=(1.0, 1, 0),
            count=1,
            node_id=1,
            slice_index=0,
            n_slices=1,
        )
        assert s.first_key == s.last_key


class TestAccessors:
    def test_slice_id(self):
        assert synopsis(1, 2, node_id=3, index=0).slice_id == (3, 0)

    def test_values(self):
        s = synopsis(1.5, 7.5)
        assert s.first_value == 1.5
        assert s.last_value == 7.5


class TestRelations:
    def test_disjoint_ranges_do_not_overlap(self):
        a = synopsis(1, 5)
        b = synopsis(6, 9, node_id=2)
        assert a.certainly_below(b)
        assert b.certainly_above(a)

    def test_same_value_different_node_not_certainly_below(self):
        a = SliceSynopsis(
            first_key=(1.0, 1, 0), last_key=(5.0, 1, 4), count=5,
            node_id=1, slice_index=0, n_slices=1,
        )
        b = SliceSynopsis(
            first_key=(5.0, 2, 0), last_key=(9.0, 2, 4), count=5,
            node_id=2, slice_index=0, n_slices=1,
        )
        # a.last_key = (5.0, 1, 4) < b.first_key = (5.0, 2, 0) by node tiebreak.
        assert a.certainly_below(b)

    def test_encloses(self):
        outer = synopsis(1, 10)
        inner = synopsis(3, 7, node_id=2)
        assert outer.encloses(inner)
        assert not inner.encloses(outer)

    def test_encloses_self(self):
        s = synopsis(1, 10)
        assert s.encloses(s)


def batch_rows(node_id=1, n=3):
    """Node ``node_id``'s complete batch of ``n`` ten-event slices."""
    return tuple(
        SliceSynopsis(
            first_key=(10.0 * i, node_id, 10 * i),
            last_key=(10.0 * i + 9, node_id, 10 * i + 9),
            count=10, node_id=node_id, slice_index=i, n_slices=n,
        )
        for i in range(n)
    )


class TestSynopsisColumns:
    def test_behaves_as_the_tuple_of_its_rows(self):
        rows = batch_rows()
        batch = SynopsisColumns.from_rows(rows)
        assert len(batch) == 3
        assert batch[0] == rows[0] and batch[-1] == rows[-1]
        assert tuple(batch) == rows and batch.rows([2, 0]) == (rows[2], rows[0])
        assert batch == rows and rows == batch and batch == list(rows)
        assert batch == SynopsisColumns.from_rows(rows)
        assert batch != rows[:2] and batch != rows[::-1]
        assert hash(batch) == hash(rows)
        assert batch[1:] == rows[1:]
        assert batch.event_count() == 30

    def test_rows_carry_python_scalars(self):
        row = SynopsisColumns.from_rows(batch_rows())[1]
        assert type(row.first_key[0]) is float
        assert {type(x) for x in (*row.first_key[1:], row.count, row.node_id,
                                  row.slice_index, row.n_slices)} == {int}

    def test_empty_batch(self):
        empty = concat_synopses([])
        assert len(empty) == 0 and empty == () and empty.event_count() == 0
        assert empty.validated(7, SliceError) is empty
        assert as_synopsis_columns(()) == ()

    def test_concat_keeps_batch_order(self):
        a, b = batch_rows(1, 2), batch_rows(2, 3)
        joined = concat_synopses(
            [SynopsisColumns.from_rows(a), SynopsisColumns.from_rows(b)]
        )
        assert joined == a + b
        single = SynopsisColumns.from_rows(a)
        assert concat_synopses([single]) is single
        assert as_synopsis_columns(single) is single

    def test_valid_batch_passes_validation(self):
        batch = SynopsisColumns.from_rows(batch_rows(node_id=4))
        assert batch.validated(4, SliceError) is batch

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("count", 0, "count must be >= 1"),
            ("first_value", 99.0, "first_key exceeds last_key"),
            ("first_value", float("nan"), "or a key is NaN"),
            ("last_value", float("nan"), "or a key is NaN"),
            ("slice_index", 0, "complete, ordered batch"),
            ("n_slices", 4, "complete, ordered batch"),
            ("node_id", 5, "not owned by node 4"),
        ],
    )
    def test_validation_names_the_first_offending_row(self, field, value, reason):
        records = SynopsisColumns.from_rows(batch_rows(node_id=4)).records
        records[field][1:] = value
        with pytest.raises(SliceError, match=f"synopsis 1 of 3.*{reason}"):
            SynopsisColumns(records).validated(4, SliceError)

    def test_incomplete_batch_rejected(self):
        # The first two of three slices: every row is valid on its own.
        batch = SynopsisColumns.from_rows(batch_rows(node_id=4)[:2])
        with pytest.raises(SliceError, match="synopsis 0 of 2"):
            batch.validated(4, SliceError)

    def test_the_cut_orders_keys_like_key_tuples(self):
        # Value ties across three owners, signed zeros, and a local whose
        # two rows share a value.
        rows = (
            SliceSynopsis((1.0, 2, 0), (1.0, 2, 5), 6, 2, 0, 2),
            SliceSynopsis((1.0, 2, 6), (3.0, 2, 6), 1, 2, 1, 2),
            SliceSynopsis((1.0, 1, 7), (2.0, 1, 9), 3, 1, 0, 1),
            SliceSynopsis((-0.0, 3, 0), (0.0, 3, 0), 1, 3, 0, 1),
        )
        assert_cut_as_the_reference(rows)

    def test_bounding_last_keys_rank_just_below_their_first_key(self):
        # Row 0's last key bounds it with row 1's first value one position
        # lower; a key of node 2 with the same value sorts after both, so
        # no other slice can reach below row 0's top.
        rows = (
            SliceSynopsis((1.0, 1, 0), (2.0, 1, 3), 4, 1, 0, 2),
            SliceSynopsis((2.0, 1, 4), (5.0, 1, 7), 4, 1, 1, 2),
            SliceSynopsis((2.0, 2, 0), (2.0, 2, 1), 2, 2, 0, 1),
        )
        cuts = assert_cut_as_the_reference(rows)
        assert cuts[4] == (((1, 0),), 0)
        assert cuts[5] == (((1, 1), (2, 0)), 4)

    def test_a_key_equal_to_a_bound_is_refused(self):
        # A hand-built row whose first key is row 0's bound: no slicer cuts
        # it, and node 1's rows no longer ascend.
        rows = (
            SliceSynopsis((1.0, 1, 0), (2.0, 1, 3), 4, 1, 0, 2),
            SliceSynopsis((2.0, 1, 4), (5.0, 1, 7), 4, 1, 1, 2),
            SliceSynopsis((2.0, 1, 3), (2.0, 1, 3), 1, 1, 0, 1),
        )
        with pytest.raises(IdentificationError, match="not totally ordered"):
            cut_frame(SynopsisColumns.from_rows(rows), [0], [1])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_the_cut_orders_keys_like_key_tuples_on_any_batch(self, data):
        # Keys from small pools, often chained as bounds (a row's last key
        # one position below the next row's first), so ties, bounds and
        # keys equal to a bound all occur.  A batch whose every owner's
        # rows ascend cuts as the reference; any other is refused.
        key = st.tuples(
            st.sampled_from([0.0, -0.0, 1.0, 2.0]),
            st.integers(min_value=1, max_value=2),
            st.integers(min_value=0, max_value=6),
        )
        rows = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            first = data.draw(key)
            if rows and data.draw(st.booleans()):
                _, owner, position = rows[-1].last_key
                first = (rows[-1].last_key[0], owner, position + 1)
            last = max(first, data.draw(key))
            last = (last[0], first[1], max(last[2], first[2]))
            rows.append(SliceSynopsis(first, last, 1, first[1], 0, 1))
        ascending = all(
            below.last_key < above.first_key
            for owner in (1, 2)
            for below, above in pairwise(s for s in rows if s.node_id == owner)
        )
        if ascending:
            assert_cut_as_the_reference(rows)
        else:
            with pytest.raises(IdentificationError, match="not totally ordered"):
                cut_frame(SynopsisColumns.from_rows(rows), [0], [1])


def assert_cut_as_the_reference(rows):
    """Cut the window ``rows`` at every rank, check each cut is the
    reference's, and return them: per rank, the candidates' slice ids in
    row order and ``n_below``."""
    columns = SynopsisColumns.from_rows(rows)
    ranks = list(range(1, columns.event_count() + 1))
    cut = cut_frame(columns, [0] * len(ranks), ranks)
    bounds = cut.bounds.tolist()
    cuts = {}
    for i, rank in enumerate(ranks):
        picked = columns.rows(_np.sort(cut.rows[bounds[i]:bounds[i + 1]]))
        reference = rank_bound_candidates(rows, rank)
        assert Counter(picked) == Counter(reference.candidates)
        assert int(cut.n_below[i]) == reference.n_below
        cuts[rank] = (tuple(s.slice_id for s in picked), reference.n_below)
    return cuts
