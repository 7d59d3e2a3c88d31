"""γ-slicing of sorted local windows.

When a local window ends, the node cuts its sorted value column
(:meth:`~repro.core.sorted_window.SortedLocalWindow.seal`) into consecutive
slices of ``γ`` events (the final slice may be shorter) and produces one
synopsis per slice.  The paper requires every slice to contain at least two
events because a synopsis needs a distinct first and last event; the slicer
enforces this by folding a trailing 1-event remainder into the previous
slice.  A window with a single event yields one 1-event slice — its synopsis
*is* the event, so the requirement is moot.

A synopsis key is ``(value, owner, position)``: the boundary event's value,
the window's owner and the event's row in the sorted window, not its
``(node_id, seq)``.  A non-final slice's last key is an upper bound: the
next slice's first value with this slice's last position — what a decoder
rebuilds from the local's boundaries on the wire, so the simulator, which
never encodes, and the live root see one row.

No value here is NaN: it is refused at the door, and a wire-fed one where
it is first ordered (the window's sort; a boundary at the decoder).
Nothing here needs an event's node or seq, so a window is sliced as its
values alone.
"""

from __future__ import annotations

from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from typing import Sequence

import numpy as _np

from repro.errors import SliceError
from repro.core.synopsis import (
    MIN_GAMMA,
    SYNOPSIS_DTYPE,
    SynopsisColumns,
    slice_bounds,
)

# Hot-path module: a window's synopses are one ``SynopsisColumns`` batch
# written column by column from the slice boundaries, and a slice's value
# run is cut from the sealed value column on request — no per-event ``Event`` and
# no per-slice ``SliceSynopsis`` objects are built here (enforced by
# tests/test_hotpath_lint.py).

__all__ = ["SlicedWindow", "slice_sorted_events", "MIN_GAMMA"]


@dataclass(frozen=True, slots=True)
class SlicedWindow:
    """A local window cut into slices, ready for the identification step.

    Attributes:
        node_id: Owner of the window.
        values: The sealed window's values in ascending key order.
        bounds: Slice boundaries into ``values``: slice ``i`` is
            ``values[bounds[i]:bounds[i + 1]]``.
        synopses: One synopsis per slice, in value order; a non-final
            slice's last key is the next slice's first value with its own
            last position, an upper bound on its largest event.
    """

    node_id: int
    values: _np.ndarray
    bounds: Sequence[int]
    synopses: SynopsisColumns

    @property
    def window_size(self) -> int:
        """Total number of events in the local window."""
        return len(self.values)

    @property
    def n_slices(self) -> int:
        """Number of slices the window was cut into."""
        return len(self.synopses)

    @property
    def runs(self) -> Sequence[_np.ndarray]:
        """Per-slice sorted value runs; ``runs[i]`` backs ``synopses[i]``.
        A read-only sequence that cuts each run when it is asked for."""
        return _Runs(self)

    def run_for(self, slice_index: int) -> _np.ndarray:
        """The sorted value run backing slice ``slice_index`` — a zero-copy
        ``float64`` view of the sealed column, what the root's calculation
        step reads and the wire carries.

        Raises:
            SliceError: If the index is out of range.
        """
        if not 0 <= slice_index < self.n_slices:
            raise SliceError(
                f"slice index {slice_index} out of range "
                f"(window has {self.n_slices} slices)"
            )
        return self.values[
            self.bounds[slice_index]:self.bounds[slice_index + 1]
        ]


    def runs_for(self, slice_indices: Sequence[int]) -> _np.ndarray:
        """The runs of ascending ``slice_indices``, concatenated in index
        order: one view of the sealed column when they are adjacent.

        Raises:
            SliceError: If the indices do not strictly ascend, or one is
                out of range.
        """
        if not slice_indices:
            return self.values[:0]
        if any(b <= a for a, b in zip(slice_indices, slice_indices[1:])):
            raise SliceError(
                f"slice indices {tuple(slice_indices)} do not strictly ascend"
            )
        first, last = slice_indices[0], slice_indices[-1]
        if not (0 <= first and last < self.n_slices):
            raise SliceError(
                f"slice indices {first}..{last} out of range "
                f"(window has {self.n_slices} slices)"
            )
        bounds = self.bounds
        if last - first + 1 == len(slice_indices):
            return self.values[bounds[first]:bounds[last + 1]]
        return _np.concatenate(
            [self.values[bounds[i]:bounds[i + 1]] for i in slice_indices]
        )


class _Runs(_SequenceABC):
    """``SlicedWindow.runs``: the runs as a lazy sequence."""

    __slots__ = ("_window",)

    def __init__(self, window: SlicedWindow) -> None:
        self._window = window

    def __len__(self) -> int:
        return self._window.n_slices

    def __getitem__(self, index: int) -> _np.ndarray:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._window.run_for(index)


def slice_sorted_events(
    sorted_values: _np.ndarray, gamma: int, node_id: int
) -> SlicedWindow:
    """Cut a sorted local window into γ-sized slices with synopses.

    Slice ``i``'s last key is written as ``(first value of slice i + 1,
    owner, last position of slice i)`` — at least its true last key and
    strictly below slice ``i + 1``'s first key — and the final slice's as
    its true maximum's: the batch is the window's boundaries, what the wire
    carries (:meth:`SynopsisColumns.to_wire`).

    Args:
        sorted_values: The window's values in ascending key order, no NaN
            (:func:`~repro.streaming.columns.sort_values` refuses one).
            Only each slice's own ``first_key <= last_key`` is
            checked (before its last key becomes the boundary); callers are
            the sorted window and tests.
        gamma: Target slice size; must be ≥ 2.
        node_id: Owner stamped into every synopsis, the second component
            of its keys; the third is the row in ``sorted_values``.

    Returns:
        The sliced window.  Empty input yields a window with zero slices.

    Raises:
        SliceError: If ``gamma < 2``, or a slice's first key exceeds its
            own last key (the run is not sorted).  A boundary that descends
            across slices is not checked here; the decoder and the rows
            refuse such a batch.
    """
    if gamma < MIN_GAMMA:
        raise SliceError(f"gamma must be >= {MIN_GAMMA}, got {gamma}")
    bounds = slice_bounds(len(sorted_values), gamma)
    starts, lasts = bounds[:-1], bounds[1:] - 1

    records = _np.empty(len(starts), dtype=SYNOPSIS_DTYPE)
    records["first_value"] = sorted_values[starts]
    records["last_value"] = sorted_values[lasts]
    records["count"] = bounds[1:] - bounds[:-1]
    records["first_pos"] = starts
    records["last_pos"] = lasts
    records["slice_index"] = _np.arange(len(starts), dtype="<u4")
    records["n_slices"] = len(starts)
    records["node_id"] = node_id
    # Each slice is checked against its own last value; then every
    # non-final last value becomes the next boundary.
    synopses = SynopsisColumns(records).validated(node_id, SliceError)
    records["last_value"][:-1] = records["first_value"][1:]
    return SlicedWindow(
        node_id=node_id,
        values=sorted_values,
        bounds=bounds,
        synopses=synopses,
    )
