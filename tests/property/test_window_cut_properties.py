"""Properties of units and the window-cut algorithm."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.calculation import calculate_quantile
from repro.core.identification import identify_frame
from repro.core.slicing import slice_sorted_events
from repro.core.synopsis import SliceSynopsis, SynopsisColumns, concat_synopses
from repro.core.units import build_units
from repro.core.window_cut import (
    _cut_unit,
    rank_bound_candidates,
    window_cut,
    window_cut_multi,
)
from repro.errors import CodecError, IdentificationError, SliceError
from repro.runtime import wire
from repro.streaming.aggregates import quantile_rank
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event, event_key, make_events


@st.composite
def sliced_synopses(draw):
    """Random multi-node sliced windows with their backing runs."""
    n_nodes = draw(st.integers(min_value=1, max_value=4))
    gamma = draw(st.integers(min_value=2, max_value=30))
    synopses = []
    runs = {}
    all_events = []
    for node_id in range(1, n_nodes + 1):
        values = draw(
            st.lists(
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=0,
                max_size=80,
            )
        )
        events = sorted(make_events(values, node_id=node_id), key=event_key)
        sliced = slice_sorted_events(
            EventColumns.from_events(events).values, gamma, node_id
        )
        synopses.extend(sliced.synopses)
        # The events behind each slice (the wire ships only their values).
        bounds = sliced.bounds
        for index in range(sliced.n_slices):
            runs[(node_id, index)] = events[
                bounds[index]:bounds[index + 1]
            ]
        all_events.extend(events)
    all_events.sort(key=event_key)
    return synopses, runs, all_events


def synopsis_key_ranks(all_events):
    """Global rank of every event under its synopsis key ``(value, owner,
    position)``: each local holds only its own events, so the owner is the
    event's node id and the position its row in that node's sorted window
    (``all_events`` is sorted, so a node's events come in that order)."""
    rows = {}
    ranks = {}
    for rank, event in enumerate(all_events, start=1):
        position = rows.get(event.node_id, 0)
        rows[event.node_id] = position + 1
        ranks[(event.value, event.node_id, position)] = rank
    return ranks


@given(sliced_synopses(), st.floats(min_value=0.001, max_value=1.0))
@settings(max_examples=250, deadline=None)
def test_units_partition_ranks(case, q):
    synopses, _, all_events = case
    units = build_units(synopses)
    assert sum(u.size for u in units) == len(all_events)
    next_rank = 1
    for unit in units:
        assert unit.pos_start == next_rank
        next_rank = unit.pos_end + 1
    if all_events:
        assert next_rank == len(all_events) + 1


@given(sliced_synopses(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=250, deadline=None)
def test_window_cut_equals_reference_and_is_sound(case, rank_seed):
    synopses, runs, all_events = case
    if not all_events:
        return
    rank = rank_seed % len(all_events) + 1

    fast = window_cut(synopses, rank)
    slow = rank_bound_candidates(synopses, rank)
    assert fast.candidate_ids == slow.candidate_ids
    assert fast.n_below == slow.n_below

    # Soundness: merged candidates at local_rank give the true global event.
    candidate_events = []
    for synopsis in fast.candidates:
        candidate_events.extend(runs[synopsis.slice_id])
    candidate_events.sort(key=event_key)
    truth = all_events[rank - 1]
    assert candidate_events[fast.local_rank - 1] == truth


@given(sliced_synopses())
@settings(max_examples=150, deadline=None)
def test_unit_rank_bounds_bracket_true_ranks(case):
    synopses, runs, all_events = case
    if not all_events:
        return
    global_rank = synopsis_key_ranks(all_events)
    for unit in build_units(synopses):
        for member in unit.members:
            # A last key bounds the slice; its true last event is the run's.
            true_last = (
                runs[member.slice_id][-1].value, member.node_id,
                member.last_key[2],
            )
            assert unit.min_rank(member) <= global_rank[member.first_key]
            assert unit.max_rank(member) >= global_rank[true_last]
            assert unit.pos_start <= unit.min_rank(member)
            assert unit.max_rank(member) <= unit.pos_end


@given(sliced_synopses(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_cut_unit_agrees_with_the_pairwise_rank_bounds(case, rank_seed):
    """``_cut_unit``'s bisected bounds pick what the pairwise
    :meth:`SliceUnit.min_rank` / :meth:`SliceUnit.max_rank` pick."""
    synopses, _, all_events = case
    if not all_events:
        return
    for unit in build_units(synopses):
        rank = unit.pos_start + rank_seed % unit.size
        candidates, below = _cut_unit(unit, rank)
        assert candidates == [
            member for member in unit.members
            if unit.min_rank(member) <= rank <= unit.max_rank(member)
        ]
        assert below == sum(
            member.count for member in unit.members
            if unit.max_rank(member) < rank
        )


@given(sliced_synopses(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_pruned_slices_are_classifiable(case, rank_seed):
    """Every non-candidate slice lies strictly below or above the rank."""
    synopses, runs, all_events = case
    if not all_events:
        return
    rank = rank_seed % len(all_events) + 1
    cut = window_cut(synopses, rank)
    candidate_ids = cut.candidate_ids
    truth_key = all_events[rank - 1].key
    for synopsis in synopses:
        if synopsis.slice_id in candidate_ids:
            continue
        events = runs[synopsis.slice_id]
        assert all(e.key != truth_key for e in events)


# ---------------------------------------------------------------------------
# One sweep, held two ways: the vectorised sweep over a ``SynopsisColumns``
# batch must agree with the exhaustive reference on everything a
# ``CutResult`` says, and its ``units_scanned`` with the units
# ``build_units`` groups.  A NaN key never reaches it: the batch's doors
# refuse one.
# ---------------------------------------------------------------------------

# A tiny pool forces duplicate values within and across nodes (ties are
# broken by node id and sequence number); signed zeros compare equal.
_cut_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


@st.composite
def node_batches(draw):
    """Per-node synopsis batches of 1–6 nodes cut at one γ in 2–20; empty
    and one-event local windows included."""
    gamma = draw(st.integers(min_value=2, max_value=20))
    batches = []
    for node_id in range(1, draw(st.integers(min_value=1, max_value=6)) + 1):
        values = draw(st.lists(_cut_values, min_size=0, max_size=60))
        events = sorted(make_events(values, node_id=node_id), key=event_key)
        batches.append(slice_sorted_events(
            EventColumns.from_events(events).values, gamma, node_id
        ).synopses)
    return batches


def _ranks(total, seeds):
    """Rank 1, rank n and a few in between."""
    return sorted({1, total, *(seed % total + 1 for seed in seeds)})


_rank_seeds = st.lists(st.integers(min_value=0, max_value=10**6), max_size=5)


def _units_scanned(rows, rank):
    """The units up to and including the one holding ``rank``."""
    for number, unit in enumerate(build_units(rows), start=1):
        if unit.contains_rank(rank):
            return number
    raise AssertionError(f"no unit holds rank {rank}")


@given(node_batches(), _rank_seeds)
@settings(max_examples=300, deadline=None)
def test_vectorised_sweep_equals_reference(batches, seeds):
    columns = concat_synopses(batches)
    rows = list(columns)
    total = columns.event_count()
    if not total:
        with pytest.raises(IdentificationError):
            window_cut_multi(columns, [1])
        return
    ranks = _ranks(total, seeds)
    # Columns in, and rows in (converted at the door).
    cuts = window_cut_multi(columns, ranks, global_window_size=total)
    assert window_cut_multi(rows, ranks) == cuts
    assert window_cut(columns, ranks[-1]) == cuts[ranks[-1]]
    for rank in ranks:
        reference = rank_bound_candidates(rows, rank)
        assert cuts[rank].candidates == reference.candidates
        assert cuts[rank].n_below == reference.n_below
        assert cuts[rank].kinds == reference.kinds
        assert cuts[rank].units_scanned == _units_scanned(rows, rank)


@given(
    node_batches(),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["first_value", "last_value"]),
)
@settings(max_examples=150, deadline=None)
def test_a_nan_key_is_refused_at_the_batch_doors(batches, seed, field):
    batch = batches[0]  # node 1's cut
    if not len(batch):
        return
    # The slicer's door: a NaN key is not at or below its partner.
    records = batch.records.copy()
    records[field][seed % len(records)] = float("nan")
    with pytest.raises(SliceError, match="or a key is NaN"):
        SynopsisColumns(records).validated(1, SliceError)
    # The decoder's door: a NaN boundary on the wire.
    raw = bytearray(batch.to_wire(batch.event_count()))
    at = wire.SYNOPSIS_SECTION_BYTES + seed % (len(batch) + 1) * wire.F64_BYTES
    raw[at:at + wire.F64_BYTES] = struct.pack("<d", float("nan"))
    with pytest.raises(CodecError, match="or a key is NaN"):
        SynopsisColumns.from_wire(bytes(raw), 1)


# ---------------------------------------------------------------------------
# The synopsis key ``(value, owner, position)`` against the true event key
# ``(value, node_id, seq)``: when every local holds only its own events the
# two orders agree, so the cut over what the slicer (and the wire) produces
# is the cut over hand-built rows carrying the events' own keys.  A
# non-final last key is the boundary: the next slice's first value at this
# slice's last row, which in event keys is that value just below the next
# event's sequence number.
# ---------------------------------------------------------------------------


@st.composite
def own_event_windows(draw):
    """1–4 locals holding only their own events at one γ in 2–12; values
    from ``_cut_values``, so ±0.0 and duplicates tie within and across
    locals, and sequence numbers scrambled against value order."""
    gamma = draw(st.integers(min_value=2, max_value=12))
    windows = {}
    for node_id in range(1, draw(st.integers(min_value=1, max_value=4)) + 1):
        values = draw(st.lists(_cut_values, min_size=0, max_size=50))
        seqs = draw(st.permutations(range(len(values))))
        windows[node_id] = sorted(
            (Event(value=v, timestamp=0, node_id=node_id, seq=s)
             for v, s in zip(values, seqs)),
            key=event_key,
        )
    return gamma, windows


@given(own_event_windows(), _rank_seeds)
@settings(max_examples=300, deadline=None)
def test_position_keys_cut_as_event_keys_do(case, seeds):
    gamma, windows = case
    sliced = {
        node_id: slice_sorted_events(
            EventColumns.from_events(events).values, gamma, node_id
        )
        for node_id, events in windows.items()
    }
    def key(event, below=0):
        # Event keys with room for a bound between neighbouring sequence
        # numbers (a row holds positions as u32): seq s is 2·s + 1.
        return (event.value, event.node_id, 2 * event.seq + 1 - below)

    def bound(events, hi):
        return key(events[hi - 1]) if hi == len(events) else key(events[hi], 1)

    event_rows = [
        SliceSynopsis(
            first_key=key(events[lo]), last_key=bound(events, hi),
            count=hi - lo, node_id=node_id, slice_index=index,
            n_slices=sliced[node_id].n_slices,
        )
        for node_id, events in windows.items()
        for index, (lo, hi) in enumerate(zip(
            sliced[node_id].bounds, sliced[node_id].bounds[1:]
        ))
    ]
    columns = concat_synopses([s.synopses for s in sliced.values()])
    total = columns.event_count()
    if not total:
        return
    ranks = _ranks(total, seeds)
    by_position = window_cut_multi(columns, ranks)
    by_event = window_cut_multi(event_rows, ranks)
    truth = sorted(
        (e for events in windows.values() for e in events), key=event_key
    )
    for rank in ranks:
        cut = by_position[rank]
        assert cut.n_below == by_event[rank].n_below
        assert cut.candidate_ids == by_event[rank].candidate_ids
        assert cut.kinds == by_event[rank].kinds
        # And the answer is the true one, sign bit included.
        runs = [sliced[s.node_id].run_for(s.slice_index) for s in cut.candidates]
        value = calculate_quantile(cut, runs).value
        assert struct.pack("<d", value) == struct.pack("<d", truth[rank - 1].value)


@st.composite
def frames(draw):
    """A frame of 1–8 global windows cut at one γ in 2–50: each window
    1–6 locals, values tied across locals (zeros of both signs included),
    one-event windows and locals with an empty window among them, and
    1–4 quantiles with repeats.  Each window is ``(sliced windows by
    node, quantiles)``; every window holds at least one event."""
    gamma = draw(st.integers(min_value=2, max_value=50))
    windows = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        n_locals = draw(st.integers(min_value=1, max_value=6))
        per_node = [
            draw(st.lists(_cut_values, min_size=0, max_size=40))
            for _ in range(n_locals)
        ]
        if not any(per_node):
            per_node[draw(st.integers(0, n_locals - 1))] = [
                draw(_cut_values)
            ]
        sliced = {}
        for node_id, values in enumerate(per_node, start=1):
            events = sorted(make_events(values, node_id=node_id), key=event_key)
            sliced[node_id] = slice_sorted_events(
                EventColumns.from_events(events).values, gamma, node_id
            )
        qs = draw(st.lists(
            st.sampled_from([0.01, 0.25, 0.5, 0.9, 1.0])
            | st.floats(min_value=0.001, max_value=1.0),
            min_size=1, max_size=4,
        ))
        windows.append((sliced, qs))
    return gamma, windows


def frame_input(windows):
    """The frame as :func:`identify_frame` takes it, each window's locals
    in descending id order: the candidates come out in ``(node_id,
    slice_index)`` order whatever order the batches arrive in."""
    return [
        (
            {node: sliced[node].synopses for node in sorted(sliced)[::-1]},
            {node: sliced[node].window_size for node in sorted(sliced)[::-1]},
            qs,
        )
        for sliced, qs in windows
    ]


def check_plans(windows, plans):
    """Each window's plan is what the reference cuts give it alone."""
    assert len(plans) == len(windows)
    for (sliced, qs), plan in zip(windows, plans):
        rows = [s for sw in sliced.values() for s in sw.synopses]
        total = sum(s.window_size for s in sliced.values())
        assert plan.global_window_size == total
        ids = list(plan.candidates)
        union = set()
        for q, rank, (runs, local_rank) in zip(qs, plan.ranks, plan.picks):
            assert rank == quantile_rank(q, total)
            reference = rank_bound_candidates(rows, rank)
            # The pick's candidates, as a mask over the window's union.
            picked = ids if runs is None else [
                slice_id for slice_id, taken in zip(ids, runs) if taken
            ]
            assert picked == sorted(reference.candidate_ids)
            assert rank - local_rank == reference.n_below
            union |= reference.candidate_ids
        assert ids == sorted(union)
        assert [
            (node, index) for node, indices in plan.requests.items()
            for index in indices
        ] == ids
        assert plan.candidate_events == sum(
            sliced[node].synopses[index].count for node, index in union
        )
        for (node, index), checked in plan.candidates.items():
            synopsis = sliced[node].synopses[index]
            assert checked == (
                synopsis.count, synopsis.first_value, synopsis.last_value,
                index == synopsis.n_slices - 1,
            )


@given(frames())
@settings(max_examples=200, deadline=None)
def test_a_frame_cuts_each_window_as_the_reference_cuts_it_alone(case):
    _, windows = case
    check_plans(windows, identify_frame(frame_input(windows)))


def test_a_frame_of_many_windows_cuts_each_as_the_reference():
    """A catch-up frame: hundreds of small windows, each pick compared with
    its own window's rows only."""
    rng = np.random.default_rng(11)
    windows = []
    for _ in range(400):
        sliced = {}
        for node_id in range(1, int(rng.integers(1, 4)) + 1):
            values = rng.integers(-3, 4, size=int(rng.integers(1, 12)))
            events = sorted(
                make_events(values.astype(float).tolist(), node_id=node_id),
                key=event_key,
            )
            sliced[node_id] = slice_sorted_events(
                EventColumns.from_events(events).values, 3, node_id
            )
        windows.append((sliced, [0.01, 0.5, 0.99]))
    check_plans(windows, identify_frame(frame_input(windows)))
