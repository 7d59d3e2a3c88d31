"""The paper's two sides of the decomposability divide: sum and the quantile.

The paper (Section 2.2) adopts the taxonomy of Jesus et al.:

* **self-decomposable** — partial aggregates combine with the function
  itself (sum);
* **decomposable** — expressible through self-decomposable partials plus a
  final transformation (average, variance);
* **non-decomposable** — exact computation needs the whole dataset (median,
  quantile).

A function is modelled with the lift / combine / lower pattern used by
slicing aggregators such as Scotty and Disco: ``lift`` turns one value into a
partial aggregate, ``combine`` merges two partials, and ``lower`` extracts the
final answer.  For the quantile the partial aggregate is the multiset of
values itself, which is precisely why shipping partials to a root node is as
expensive as shipping raw data — the gap Dema closes.  ``sum`` is what the
motivation benchmark runs through partial aggregation; the quantile is what
that system refuses.
"""

from __future__ import annotations

import enum
import math
from abc import ABC, abstractmethod
from typing import Any, Iterable

from repro.errors import AggregationError, ConfigurationError

__all__ = [
    "AggregationClass",
    "AggregationFunction",
    "get_function",
    "quantile_rank",
    "exact_quantile",
    "SumFunction",
    "MedianFunction",
    "QuantileFunction",
]


class AggregationClass(enum.Enum):
    """Decomposability classes of Jesus et al. (Section 2.2)."""

    SELF_DECOMPOSABLE = "self-decomposable"
    DECOMPOSABLE = "decomposable"
    NON_DECOMPOSABLE = "non-decomposable"


def quantile_rank(q: float, n: int) -> int:
    """Rank (1-based) of the ``q``-quantile in a dataset of ``n`` elements.

    The paper defines ``Pos(q) = ceil(q * l_G)`` for ``q`` in ``(0, 1]``
    (Section 3.1, correctness discussion).

    Raises:
        AggregationError: If ``q`` is outside ``(0, 1]`` or ``n <= 0``.
    """
    if not 0.0 < q <= 1.0:
        raise AggregationError(f"quantile q must be in (0, 1], got {q}")
    if n <= 0:
        raise AggregationError(f"dataset size must be > 0, got {n}")
    return math.ceil(q * n)


def exact_quantile(values: Iterable[float], q: float) -> float:
    """Exact ``q``-quantile under the paper's rank definition.

    Sorts the values and returns the element at rank ``ceil(q * n)``.  A
    window's answer over events is :func:`repro.testing.oracle`."""
    ordered = sorted(values)
    rank = quantile_rank(q, len(ordered))
    return ordered[rank - 1]


class AggregationFunction(ABC):
    """A window aggregation in lift / combine / lower form."""

    #: Human-readable function name, unique within the registry.
    name: str = ""
    #: Decomposability class of the function.
    aggregation_class: AggregationClass

    @abstractmethod
    def lift(self, value: float) -> Any:
        """Turn a single input value into a partial aggregate."""

    @abstractmethod
    def combine(self, left: Any, right: Any) -> Any:
        """Merge two partial aggregates into one."""

    @abstractmethod
    def lower(self, partial: Any) -> float:
        """Extract the final result from a partial aggregate."""

    def aggregate(self, values: Iterable[float]) -> float:
        """Aggregate a full collection of values (lift + combine + lower)."""
        partial = None
        for value in values:
            lifted = self.lift(value)
            partial = lifted if partial is None else self.combine(partial, lifted)
        if partial is None:
            raise AggregationError(f"{self.name} of an empty window is undefined")
        return self.lower(partial)

    @property
    def is_decomposable(self) -> bool:
        """Whether partial aggregation at local nodes yields exact results."""
        return self.aggregation_class is not AggregationClass.NON_DECOMPOSABLE

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SumFunction(AggregationFunction):
    """Sum — self-decomposable."""

    name = "sum"
    aggregation_class = AggregationClass.SELF_DECOMPOSABLE

    def lift(self, value: float) -> float:
        return value

    def combine(self, left: float, right: float) -> float:
        return left + right

    def lower(self, partial: float) -> float:
        return partial


class QuantileFunction(AggregationFunction):
    """Exact ``q``-quantile — non-decomposable.

    The partial aggregate is the full list of values: no smaller exact
    summary exists in general, which is the premise of the paper.
    """

    name = "quantile"
    aggregation_class = AggregationClass.NON_DECOMPOSABLE

    def __init__(self, q: float) -> None:
        if not 0.0 < q <= 1.0:
            raise ConfigurationError(f"quantile q must be in (0, 1], got {q}")
        self._q = q

    @property
    def q(self) -> float:
        """The requested quantile, in ``(0, 1]``."""
        return self._q

    def lift(self, value: float) -> list[float]:
        return [value]

    def combine(self, left: list[float], right: list[float]) -> list[float]:
        return left + right

    def lower(self, partial: list[float]) -> float:
        return exact_quantile(partial, self._q)

    def __repr__(self) -> str:
        return f"QuantileFunction(q={self._q})"


class MedianFunction(QuantileFunction):
    """Exact median — the 50 % quantile (non-decomposable)."""

    name = "median"

    def __init__(self) -> None:
        super().__init__(0.5)

    def __repr__(self) -> str:
        return "MedianFunction()"


_REGISTRY: dict[str, type[AggregationFunction]] = {
    cls.name: cls for cls in (SumFunction, MedianFunction)
}


def get_function(name: str, **kwargs: float) -> AggregationFunction:
    """Instantiate a registered aggregation function by name.

    ``get_function("quantile", q=0.25)`` builds a quantile; all other names
    take no arguments.

    Raises:
        ConfigurationError: On an unknown name or bad arguments.
    """
    if name == "quantile":
        if set(kwargs) != {"q"}:
            raise ConfigurationError("quantile requires exactly the 'q' argument")
        return QuantileFunction(kwargs["q"])
    if kwargs:
        raise ConfigurationError(f"{name} takes no arguments, got {kwargs}")
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown aggregation function {name!r}; known: "
            f"{sorted(_REGISTRY) + ['quantile']}"
        ) from None
