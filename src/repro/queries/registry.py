"""Root-side bookkeeping for the live multi-query plane.

The registry owns two maps: queries by id, and *execution groups* by
key.  Queries with equal :attr:`~repro.queries.spec.QuerySpec.group_key`
(selector, γ) join the same group: the group is what the cluster
executes — one synopsis transfer, one identification cut and one
candidate fetch per distinct window — while the per-query quantiles and
window shapes ride it for free.  Inside a group, each distinct window
shape ``(length, step)`` is a :class:`ShapeRecord`: the locals run one
cursor per shape, negotiated once when the shape enters the group.  The
registry is pure state-keeping: wire handling and the activation
protocol live in :mod:`repro.queries.root`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.queries.spec import GroupKey, QuerySpec, WindowShape, wanted
from repro.streaming.windows import Window

__all__ = ["QueryRecord", "QueryGroup", "QueryRegistry", "ShapeRecord"]


@dataclass(slots=True)
class QueryRecord:
    """One registered query and its lifecycle state.

    Attributes:
        query_id: Client-chosen stable id, unique across the cluster.
        spec: The validated spec.
        client_id: Node id of the owning driver connection.
        group_id: The execution group serving this query.
        horizon_start: Start of the first window this query is guaranteed
            results for; ``None`` until its window shape activates.
        results_served: Results shipped to the client so far.
    """

    query_id: int
    spec: QuerySpec
    client_id: int
    group_id: int
    horizon_start: int | None = None
    results_served: int = 0


@dataclass(slots=True)
class ShapeRecord:
    """One window shape inside a group, and its start negotiation.

    Attributes:
        shape_id: The shape's name on the root ↔ local control messages
            (their ``query_id`` field); unique for the registry's life, so
            a reused query id can never name the wrong shape.
        shape: ``(length_ms, step_ms)``.
        query_ids: Member queries of this shape, registration order.
        start: The agreed first window start ``G`` (max of the local
            proposals); ``None`` while negotiating.
        proposals: Per-local proposed start, collected during activation.
        next_cut_start: One step past the latest window of this shape the
            root has identified — the horizon handed to queries joining
            the shape mid-run.
    """

    shape_id: int
    shape: WindowShape
    query_ids: list[int] = field(default_factory=list)
    start: int | None = None
    proposals: dict[int, int] = field(default_factory=dict)
    next_cut_start: int | None = None

    @property
    def active(self) -> bool:
        """Whether the start negotiation with the locals finished."""
        return self.start is not None

    @property
    def length_ms(self) -> int:
        """Window length of every member query."""
        return self.shape[0]

    @property
    def step_ms(self) -> int:
        """Window step of every member query."""
        return self.shape[1]


@dataclass(slots=True)
class QueryGroup:
    """One execution group: every query over one (selector, γ) key.

    Attributes:
        group_id: Wire-level group id (> 0; 0 is the base single-query
            plane).
        key: The shared :data:`~repro.queries.spec.GroupKey`.
        query_ids: Member queries, registration order.
        shapes: The distinct window shapes of the members.
    """

    group_id: int
    key: GroupKey
    query_ids: list[int] = field(default_factory=list)
    shapes: dict[WindowShape, ShapeRecord] = field(default_factory=dict)

    def shape_by_id(self, shape_id: int) -> ShapeRecord | None:
        """The shape named ``shape_id`` on the wire, or ``None``."""
        for shape in self.shapes.values():
            if shape.shape_id == shape_id:
                return shape
        return None

    def wants(self, window: Window) -> bool:
        """Whether any shape of the group still needs ``window`` cut."""
        return wanted(
            window, ((s.shape, s.start) for s in self.shapes.values())
        )


class QueryRegistry:
    """Queries by id, groups by key, with lifecycle bookkeeping."""

    def __init__(self) -> None:
        self._queries: dict[int, QueryRecord] = {}
        self._groups: dict[int, QueryGroup] = {}
        self._group_by_key: dict[GroupKey, int] = {}
        self._next_group_id = 1
        self._next_shape_id = 1

    def __len__(self) -> int:
        return len(self._queries)

    @property
    def active_queries(self) -> int:
        """Registered queries whose window shape has activated."""
        return sum(
            1
            for record in self._queries.values()
            if self.shape_of(record).active
        )

    def get(self, query_id: int) -> QueryRecord | None:
        """The record for ``query_id``, or ``None``."""
        return self._queries.get(query_id)

    def group(self, group_id: int) -> QueryGroup | None:
        """The group for ``group_id``, or ``None`` (e.g. after teardown)."""
        return self._groups.get(group_id)

    def groups(self) -> tuple[QueryGroup, ...]:
        """Every live group, in creation order."""
        return tuple(self._groups.values())

    def records(self) -> tuple[QueryRecord, ...]:
        """Every registered query, in registration order."""
        return tuple(self._queries.values())

    def shape_of(self, record: QueryRecord) -> ShapeRecord:
        """The window shape ``record`` rides in its group."""
        return self._groups[record.group_id].shapes[record.spec.window_shape]

    def queries_of(self, group_id: int) -> tuple[QueryRecord, ...]:
        """Member records of a group, registration order."""
        group = self._groups.get(group_id)
        if group is None:
            return ()
        return tuple(self._queries[qid] for qid in group.query_ids)

    def queries_of_client(self, client_id: int) -> tuple[QueryRecord, ...]:
        """Every query owned by one driver connection."""
        return tuple(
            r for r in self._queries.values() if r.client_id == client_id
        )

    def register(
        self, query_id: int, spec: QuerySpec, client_id: int
    ) -> tuple[QueryRecord, QueryGroup, bool]:
        """Add a query; create its group and its window shape if new.

        Returns:
            ``(record, group, created)`` where ``created`` says the query
            brought a new window shape into the group (and hence a
            cluster-wide activation round is needed).

        Raises:
            QueryError: If ``query_id`` is already registered.
        """
        if query_id in self._queries:
            existing = self._queries[query_id]
            raise QueryError(
                f"query id {query_id} is already registered "
                f"(client {existing.client_id}: {existing.spec.describe()})"
            )
        key = spec.group_key
        group_id = self._group_by_key.get(key)
        if group_id is None:
            group_id = self._next_group_id
            self._next_group_id += 1
            self._groups[group_id] = QueryGroup(group_id=group_id, key=key)
            self._group_by_key[key] = group_id
        group = self._groups[group_id]
        shape = group.shapes.get(spec.window_shape)
        created = shape is None
        if shape is None:
            shape = ShapeRecord(self._next_shape_id, spec.window_shape)
            self._next_shape_id += 1
            group.shapes[spec.window_shape] = shape
        record = QueryRecord(
            query_id=query_id,
            spec=spec,
            client_id=client_id,
            group_id=group_id,
        )
        self._queries[query_id] = record
        group.query_ids.append(query_id)
        shape.query_ids.append(query_id)
        return record, group, created

    def deregister(self, query_id: int) -> tuple[QueryRecord, QueryGroup, bool]:
        """Remove a query; drop its shape and group when they empty.

        Returns:
            ``(record, group, emptied)`` where ``emptied`` says the group
            lost its last member and the locals must drop it too.  A shape
            that lost its last member is gone from ``group.shapes``.

        Raises:
            QueryError: If ``query_id`` is not registered.
        """
        record = self._queries.pop(query_id, None)
        if record is None:
            raise QueryError(f"query id {query_id} is not registered")
        group = self._groups[record.group_id]
        group.query_ids.remove(query_id)
        shape = group.shapes[record.spec.window_shape]
        shape.query_ids.remove(query_id)
        if not shape.query_ids:
            del group.shapes[shape.shape]
        emptied = not group.query_ids
        if emptied:
            del self._groups[group.group_id]
            del self._group_by_key[group.key]
        return record, group, emptied
