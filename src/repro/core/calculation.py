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

from math import copysign
from typing import Iterable, NamedTuple, Sequence

from repro.errors import CalculationError
from repro.streaming.columns import select_rank
from repro.core.window_cut import CutResult

__all__ = ["QuantileAnswer", "calculate_quantile", "check_run"]


class QuantileAnswer(NamedTuple):
    """What the calculation step selects: the value at the cut's rank."""

    value: float


def calculate_quantile(
    cut: CutResult, runs: Iterable[Sequence[float]]
) -> QuantileAnswer:
    """Select the quantile value from the fetched candidate value runs.

    The one-cut form of :func:`~repro.streaming.columns.select_frame`,
    which the engine and the root call, for :func:`~repro.core.
    identification.identify`'s cut: the form the benchmark's stage replay
    (``perfbench/stages.py``) times.

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
    received = sum(len(run) for run in runs)
    if received != cut.candidate_events:
        raise CalculationError(
            f"expected {cut.candidate_events} candidate events, "
            f"received {received}"
        )
    return QuantileAnswer(select_rank(runs, cut.local_rank))


def check_run(
    run: Sequence[float],
    slice_id: tuple[int, int],
    count: int,
    first_value: float,
    last_value: float,
    final: bool,
) -> None:
    """Check a served run against the synopsis that requested its slice:
    its ``slice_id``, ``count``, ``first_value``, ``last_value`` and
    whether it is its window's ``final`` slice.

    O(1): the run's length must be the synopsis ``count`` and its first
    value bit-equal to the synopsis' ``first_value``.  A non-final
    slice's ``last_value`` is the next slice's first value, an upper
    bound: the run's last value may not exceed it.  The final slice's is
    the window's maximum: the run's last value must be bit-equal to it.
    Slices are γ-sized and sorted, so a neighbouring slice passes every
    check the calculation makes; this one tells them apart — a neighbour
    that passes it holds the same values.

    Raises:
        CalculationError: If the run is not the requested slice.
    """
    # A synopsis counts at least one event, so a run of its length has a
    # first and a last value.  A synopsis value is never NaN (the slicer
    # and the wire decoder refuse one), so equal and of one sign is
    # bit-equal.
    if len(run) == count:
        first, last = run[0], run[-1]
        if (
            first == first_value
            and copysign(1.0, first) == copysign(1.0, first_value)
            and (
                last == last_value
                and copysign(1.0, last) == copysign(1.0, last_value)
                if final else not last > last_value
            )
        ):
            return
    raise CalculationError(
        f"candidate run {slice_id} does not match its synopsis; "
        f"local node violated the protocol: {len(run)} values served, "
        f"{count} requested from {first_value!r} "
        f"{'to' if final else 'below'} {last_value!r}"
    )
