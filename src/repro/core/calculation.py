"""Dema's calculation step (Section 3.1).

The root has fetched the candidate slices.  Only one element is wanted:
the value at local rank ``k − n_below`` of the merged runs.  So a
candidate is its value: each slice arrives as a run of ``float64`` values,
already sorted because the local node sorted its window before slicing,
and the root takes the rank with a select over the concatenated runs.

Values that compare equal but differ in bits (``-0.0`` and ``0.0``)
resolve in the order the runs are handed in: the order of
``cut.candidates``, which :class:`~repro.core.window_cut.CutResult` keeps
in ``(node_id, slice_index)`` order, and which the identification step's
``requests`` iterate in.  That is the order of the synopsis key ``(value,
owner, position)`` and of the full event key ``(value, node_id, seq)``: a
local's events carry its own id (the stream doors check it), and its
slices ascend in key.  A NaN is refused at the door; a wire-fed NaN is
refused where it is first ordered, and a run holding one here is a
:class:`~repro.errors.CalculationError`.
"""

# Hot-path module: no per-event ``Event`` construction here — see
# tests/test_hotpath_lint.py.

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as _np

from repro.errors import CalculationError
from repro.runtime import wire
from repro.streaming.columns import select_rank, select_ranks
from repro.core.synopsis import SliceSynopsis
from repro.core.window_cut import CutResult

__all__ = [
    "QuantileAnswer",
    "calculate_quantile",
    "calculate_quantiles",
    "check_run",
]


class QuantileAnswer(NamedTuple):
    """What the calculation step selects: the value at the cut's rank."""

    value: float


def calculate_quantile(
    cut: CutResult, runs: Iterable[Sequence[float]]
) -> QuantileAnswer:
    """Select the quantile value from the fetched candidate value runs.

    The one-cut form of :func:`calculate_quantiles`, which the engine and
    the root call; the benchmark's stage replay (``perfbench/stages.py``)
    times this one.

    Args:
        cut: The window-cut result that produced the fetch plan.
        runs: The candidate slices' sorted ``float64`` value runs, in
            ``cut.candidates`` order (that order breaks ties between
            ``-0.0`` and ``0.0`` as the full event key does).

    Returns:
        The value whose global rank is ``cut.rank``.

    Raises:
        CalculationError: If the runs do not match the cut (wrong total
            count, or the local rank falls outside the values), or a run
            is not sorted or holds a NaN (:func:`select_rank`).
    """
    runs = list(runs)
    _check_count(cut, sum(len(run) for run in runs))
    return QuantileAnswer(select_rank(runs, cut.local_rank))


def calculate_quantiles(
    cuts: Sequence[CutResult],
    runs: Mapping[tuple[int, int], Sequence[float]],
) -> tuple[float, ...]:
    """:func:`calculate_quantile` for every cut of one window, over the
    window's fetched runs keyed by slice id: the runs are stacked and
    checked once (:func:`~repro.streaming.columns.select_ranks`), and
    each cut selects from its own candidates' runs.  Every stack is in
    ``(node_id, slice_index)`` order — the window's and, as
    ``cut.candidates`` holds that order, each cut's — so a ``-0.0``/``0.0``
    tie resolves as :func:`calculate_quantile` resolves it, whichever
    runs a sibling cut fetched.

    Raises:
        CalculationError: As :func:`calculate_quantile`, for any cut.
    """
    ids = sorted({s.slice_id for cut in cuts for s in cut.candidates})
    position = {slice_id: i for i, slice_id in enumerate(ids)}
    stacked = [runs[slice_id] for slice_id in ids]
    picks = []
    for cut in cuts:
        indices = [position[s.slice_id] for s in cut.candidates]  # ascend
        _check_count(cut, sum(len(stacked[i]) for i in indices))
        picks.append((indices, cut.local_rank))
    return tuple(select_ranks(stacked, picks))


def _check_count(cut: CutResult, received: int) -> None:
    if received != cut.candidate_events:
        raise CalculationError(
            f"expected {cut.candidate_events} candidate events, "
            f"received {received}"
        )


def check_run(run: Sequence[float], synopsis: SliceSynopsis) -> None:
    """Check a served run against the synopsis that requested its slice.

    O(1): the run's length must be the synopsis ``count`` and its first
    value bit-equal to the synopsis' ``first_value``.  A non-final
    slice's ``last_value`` is the next slice's first value, an upper
    bound: the run's last value may not exceed it.  The final slice's is
    the window's maximum: the run's last value must be bit-equal to it.  Slices are γ-sized and
    sorted, so a neighbouring slice passes every check the calculation
    makes; this one tells them apart — a neighbour that passes it holds
    the same values.

    Raises:
        CalculationError: If the run is not the requested slice.
    """
    values = _np.asarray(run, "<f8")
    final = synopsis.slice_index == synopsis.n_slices - 1
    pack = wire.F64.pack
    # A synopsis counts at least one event, so a run of its length has a
    # first and a last value: compared as scalars, by their bits where the
    # synopsis fixes the value.
    if len(values) != synopsis.count or (
        pack(values[0]) != pack(synopsis.first_value)
        or (
            pack(values[-1]) != pack(synopsis.last_value) if final
            else values[-1] > synopsis.last_value
        )
    ):
        raise CalculationError(
            f"candidate run {synopsis.slice_id} does not match its synopsis; "
            f"local node violated the protocol: {len(values)} values served, "
            f"{synopsis.count} requested from {synopsis.first_value!r} "
            f"{'to' if final else 'below'} {synopsis.last_value!r}"
        )
