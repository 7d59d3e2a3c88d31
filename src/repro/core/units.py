"""Overlap units and the paper's slice taxonomy.

The root node sorts all received synopses by their first event and groups
slices whose key ranges overlap transitively into **units** — connected
components of the interval-overlap graph.  Because the union of a connected
component of intervals is itself an interval, distinct units have disjoint
key ranges, which gives the root *exact* cumulative ranks at unit
granularity even though ranks inside a unit are ambiguous.

The taxonomy of Section 3.2 falls out of the unit structure:

* a **separate-slice** forms a singleton unit (its boundaries are covered by
  no other slice);
* a **compound-slice** is a unit with two or more members chained by
  overlap;
* a **cover-slice** is a member whose range is entirely enclosed by another
  member of its unit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.errors import IdentificationError
from repro.core.synopsis import SliceSynopsis

__all__ = ["SliceKind", "SliceUnit", "build_units", "classify_slice"]


class SliceKind(enum.Enum):
    """Role of a slice within its unit (Section 3.2, Figure 4)."""

    SEPARATE = "separate"
    COMPOUND = "compound"
    COVER = "cover"


@dataclass(frozen=True, slots=True)
class SliceUnit:
    """A maximal chain of overlapping slices with an exact rank interval.

    Attributes:
        members: Member synopses in ascending ``first_key`` order.
        offset: Number of events in all units strictly below this one, i.e.
            the global rank of the unit's first event minus one.
    """

    members: tuple[SliceSynopsis, ...]
    offset: int

    @property
    def size(self) -> int:
        """Total events across all member slices."""
        return sum(member.count for member in self.members)

    @property
    def pos_start(self) -> int:
        """Global rank of the unit's smallest event (1-based)."""
        return self.offset + 1

    @property
    def pos_end(self) -> int:
        """Global rank of the unit's largest event (1-based)."""
        return self.offset + self.size

    def contains_rank(self, rank: int) -> bool:
        """Whether the global ``rank`` falls inside this unit."""
        return self.pos_start <= rank <= self.pos_end

    def min_rank(self, member: SliceSynopsis) -> int:
        """Smallest possible global rank of ``member``'s first event."""
        certainly_below = sum(
            other.count
            for other in self.members
            if other is not member and other.certainly_below(member)
        )
        return self.offset + certainly_below + 1

    def max_rank(self, member: SliceSynopsis) -> int:
        """Largest possible global rank of ``member``'s last event."""
        certainly_above = sum(
            other.count
            for other in self.members
            if other is not member and other.certainly_above(member)
        )
        return self.offset + self.size - certainly_above


def build_units(synopses: Iterable[SliceSynopsis]) -> list[SliceUnit]:
    """Group synopses into overlap units with exact rank offsets.

    Args:
        synopses: Slice synopses from any number of local windows, in any
            order.

    Returns:
        Units in ascending key order; their rank intervals partition
        ``[1, l_G]``.
    """
    ordered = sorted(synopses, key=lambda s: (s.first_key, s.last_key))
    units: list[SliceUnit] = []
    if not ordered:
        return units

    current: list[SliceSynopsis] = [ordered[0]]
    current_max = ordered[0].last_key
    offset = 0
    for synopsis in ordered[1:]:
        if synopsis.first_key <= current_max:
            current.append(synopsis)
            if synopsis.last_key > current_max:
                current_max = synopsis.last_key
        else:
            unit = SliceUnit(members=tuple(current), offset=offset)
            units.append(unit)
            offset += unit.size
            current = [synopsis]
            current_max = synopsis.last_key
    units.append(SliceUnit(members=tuple(current), offset=offset))
    return units


def classify_slice(unit: SliceUnit, member: SliceSynopsis) -> SliceKind:
    """Classify ``member`` within ``unit`` per the Section 3.2 taxonomy.

    Raises:
        IdentificationError: If ``member`` is not part of ``unit``.
    """
    if member not in unit.members:
        raise IdentificationError(
            f"slice {member.slice_id} is not a member of the unit"
        )
    if len(unit.members) == 1:
        return SliceKind.SEPARATE
    for other in unit.members:
        if other is not member and other.encloses(member):
            return SliceKind.COVER
    return SliceKind.COMPOUND
