"""Query specifications for the live multi-query plane.

A :class:`QuerySpec` names everything the plane needs to execute one
continuous quantile query: the quantile ``q``, a *key selector* choosing
which events the query ranges over, the window shape (tumbling, sliding
— including sliding with gaps, i.e. ``step > length`` — or session), the
slice factor γ, and a freshness budget.  Specs are pure data: validation
happens here, execution in :mod:`repro.queries.local` /
:mod:`repro.queries.root`.

Key selectors are strings with a tiny grammar:

``all``
    Every event.
``node:<id>``
    Events produced by local node ``<id>``.
``mod:<m>:<r>``
    Events whose sequence number satisfies ``seq % m == r`` — a cheap
    deterministic "key" that partitions every node's stream.

The wire format carries selectors as arbitrary UTF-8 (the codec round
trips anything); the grammar is enforced when the root *registers* the
query, so a bad selector is rejected with a reasoned nack rather than a
protocol error.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import QueryError
from repro.core.slicing import MIN_GAMMA
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event
from repro.streaming.windows import Window

__all__ = [
    "QuerySpec",
    "Selector",
    "VALID_KINDS",
    "parse_selector",
    "GroupKey",
    "WindowShape",
    "on_grid",
    "wanted",
    "CONTROL_WINDOW",
]

#: Placeholder header window for query-plane control messages whose
#: meaning does not involve a window (registration, nacks, deregistration).
#: Handshake messages that *do* carry a window (start proposals and
#: activations) put it in the header instead.
CONTROL_WINDOW = Window(0, 1)

#: Window kinds a spec may carry.  ``session`` is representable (and round
#: trips the wire) but the live plane rejects it at registration: session
#: boundaries are a *global* property of the merged stream, which a
#: per-local pane store cannot decide.
VALID_KINDS = ("tumbling", "sliding", "session")

#: The execution-group key, ``(selector, gamma)``: every query over the
#: same key and slice factor shares one group — one synopsis transfer, one
#: identification cut and one candidate fetch per distinct window, whatever
#: window shape each member asks for.
GroupKey = tuple[str, int]

#: A member's window shape, ``(length_ms, step_ms)``.  A tumbling query is
#: the sliding shape whose step equals its length.
WindowShape = tuple[int, int]


def on_grid(
    shape: WindowShape, window: Window, start: int | None = None
) -> bool:
    """Whether ``window`` is one of the windows of ``shape``.

    Window starts are the epoch-aligned multiples of the step, as in
    :meth:`QuerySpec.window_starts`; with ``start`` only those from there
    on count.
    """
    length, step = shape
    return (
        window.end - window.start == length
        and window.start % step == 0
        and (start is None or start <= window.start)
    )


def wanted(
    window: Window, shapes: Iterable[tuple[WindowShape, int | None]]
) -> bool:
    """Whether any of ``shapes`` still needs ``window`` cut.

    ``shapes`` pairs each member window shape of a group with its agreed
    start, ``None`` while the shape is still negotiating (it may then need
    any window of its grid).  The root and every local decide with this one
    rule which sealed windows and cuts a group keeps, so the two sides never
    disagree on what to free.
    """
    return any(on_grid(shape, window, start) for shape, start in shapes)


_U32_MAX = 0xFFFFFFFF


@dataclass(frozen=True, slots=True)
class Selector:
    """A parsed key selector: one grammar, two evaluators — per event for
    the oracle, per columnar batch for the live plane."""

    kind: str = "all"  # "all" | "node" | "mod"
    modulus: int = 1
    #: The node id (``node``) or the residue (``mod``).
    target: int = 0

    def matches(self, event: Event) -> bool:
        """Whether one event is selected."""
        if self.kind == "all":
            return True
        if self.kind == "node":
            return event.node_id == self.target
        return event.seq % self.modulus == self.target

    def mask(self, columns: EventColumns):
        """Boolean row mask over a batch; ``None`` selects every row."""
        if self.kind == "all":
            return None
        if self.kind == "node":
            return columns.node_ids == self.target
        seqs = columns.seqs
        # A modulus beyond the u32 column leaves every seq as it is (and
        # numpy refuses to take it); ``==`` accepts any Python integer.
        if self.modulus <= _U32_MAX:
            seqs = seqs % self.modulus
        return seqs == self.target


def parse_selector(selector: str) -> Selector:
    """Parse a key selector.

    Raises:
        QueryError: If ``selector`` does not match the grammar.
    """
    if selector == "all":
        return Selector()
    parts = selector.split(":")
    if parts[0] == "node" and len(parts) == 2:
        try:
            node_id = int(parts[1])
        except ValueError:
            raise QueryError(
                f"selector {selector!r}: node id must be an integer"
            ) from None
        if node_id < 0:
            raise QueryError(f"selector {selector!r}: node id must be >= 0")
        return Selector("node", target=node_id)
    if parts[0] == "mod" and len(parts) == 3:
        try:
            modulus, residue = int(parts[1]), int(parts[2])
        except ValueError:
            raise QueryError(
                f"selector {selector!r}: modulus and residue must be integers"
            ) from None
        if modulus < 1:
            raise QueryError(f"selector {selector!r}: modulus must be >= 1")
        if not 0 <= residue < modulus:
            raise QueryError(
                f"selector {selector!r}: residue must be in [0, {modulus})"
            )
        return Selector("mod", modulus, residue)
    raise QueryError(
        f"unknown selector {selector!r}; expected 'all', 'node:<id>' or "
        "'mod:<m>:<r>'"
    )


@dataclass(frozen=True, slots=True)
class QuerySpec:
    """One continuous quantile query, as registered by a client.

    Attributes:
        q: The quantile in ``(0, 1]``; NaN is rejected explicitly.
        selector: Key selector choosing the events the query ranges over.
        kind: Window kind — ``"tumbling"``, ``"sliding"`` or ``"session"``.
        length_ms: Window length in event-time milliseconds.
        step_ms: Distance between consecutive window starts.  ``None``
            resolves to ``length_ms`` (tumbling).  For sliding windows
            any positive step is legal — ``step < length`` overlaps,
            ``step == length`` degenerates to tumbling, ``step > length``
            leaves gaps between windows.
        gamma: Slice factor for the identification step, ≥ 2.
        freshness_ms: Advisory staleness budget carried with the query;
            the bench runner reports observed seal→result lag against it.
    """

    q: float = 0.5
    selector: str = "all"
    kind: str = "tumbling"
    length_ms: int = 1000
    step_ms: int | None = None
    gamma: int = 64
    freshness_ms: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.q, float) and math.isnan(self.q):
            raise QueryError("quantile q must not be NaN")
        if not 0.0 < self.q <= 1.0:
            raise QueryError(f"quantile q must be in (0, 1], got {self.q}")
        if self.kind not in VALID_KINDS:
            raise QueryError(
                f"window kind must be one of {VALID_KINDS}, got {self.kind!r}"
            )
        if self.length_ms <= 0:
            raise QueryError(
                f"window length must be > 0 ms, got {self.length_ms}"
            )
        step = self.step_ms
        if step is not None and step <= 0:
            raise QueryError(f"window step must be > 0 ms, got {step}")
        if self.kind == "tumbling" and step is not None and step != self.length_ms:
            raise QueryError(
                f"a tumbling window's step must equal its length; got step "
                f"{step} for length {self.length_ms} (use kind='sliding')"
            )
        if self.gamma < MIN_GAMMA:
            raise QueryError(f"gamma must be >= {MIN_GAMMA}, got {self.gamma}")
        if self.freshness_ms < 0:
            raise QueryError(
                f"freshness must be >= 0 ms, got {self.freshness_ms}"
            )
        if not self.selector:
            raise QueryError("selector must be a non-empty string")
        parse_selector(self.selector)  # reject bad grammar at build time

    @property
    def step(self) -> int:
        """The resolved window step (``length_ms`` when unset)."""
        return self.length_ms if self.step_ms is None else self.step_ms

    @property
    def is_sliding(self) -> bool:
        """Whether consecutive windows overlap."""
        return self.kind == "sliding" and self.step < self.length_ms

    @property
    def pane_ms(self) -> int:
        """The shared pane length: ``gcd(length, step)``.

        Every window boundary of this query falls on a pane boundary, so
        sorted pane runs compose into window runs with no pane re-sorted.
        """
        return math.gcd(self.length_ms, self.step)

    @property
    def group_key(self) -> GroupKey:
        """The execution-group key this query shares its cuts under."""
        return (self.selector, self.gamma)

    @property
    def window_shape(self) -> WindowShape:
        """``(length, step)``: which windows of the group this query reads."""
        return (self.length_ms, self.step)

    def predicate(self) -> Selector:
        """The parsed key selector (``.matches(event)`` per event)."""
        return parse_selector(self.selector)

    def window_starts(self, start_from: int, horizon_end: int) -> list[int]:
        """Epoch-aligned window starts in ``[start_from, horizon_end - length]``.

        Window starts are the multiples of :attr:`step`; a window must fit
        entirely below ``horizon_end`` to be included.
        """
        step = self.step
        first = -(-start_from // step) * step  # ceil-align to the step grid
        return list(range(first, horizon_end - self.length_ms + 1, step))

    def describe(self) -> str:
        """Human-readable one-liner for logs and reports."""
        if self.kind == "sliding":
            shape = f"{self.length_ms} ms windows every {self.step} ms"
        elif self.kind == "session":
            shape = f"session windows (gap {self.length_ms} ms)"
        else:
            shape = f"{self.length_ms} ms tumbling windows"
        return (
            f"{self.q:g} quantile of {self.selector!r} over {shape} "
            f"(γ={self.gamma})"
        )
