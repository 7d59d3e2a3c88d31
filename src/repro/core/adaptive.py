"""Adaptive slice factor (Section 3.3).

Dema's network cost per global window, in 8-byte values, is

    Cost(γ) = l_G / γ  +  m · (γ − 1)  +  n

where ``l_G`` is the global window size, ``m`` the number of candidate
slices and ``n`` the number of locals: the first term counts the slice
boundaries (one first value per slice), the second the candidate values
shipped in the calculation step beyond the first one, already known from
each candidate's synopsis, and the last each local's window maximum.  A
synopsis ships as one boundary value and a candidate event as its value,
so both cost 8 bytes and the model counts bytes up to that factor.  The
paper's event model — ``2·l_G/γ + m·(γ − 2)``, a synopsis as two events —
prices the synopsis it ships, not this one (PAPER §3.1).  The cost is
convex in γ with closed-form minimizer ``γ* = sqrt(l_G / m)``; ``n`` does
not move it.

The controller re-estimates γ after every window from the observed ``l_G``
and ``m``, exactly as the paper's root node does, and reuses the previous
optimum while conditions are stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.core.slicing import MIN_GAMMA

__all__ = [
    "transfer_cost",
    "optimal_gamma",
    "AdaptiveGammaController",
]


def transfer_cost(gamma: int, global_window_size: int, n_candidates: int) -> float:
    """Values-on-the-wire cost model of Section 3.3, re-derived for slice
    boundaries, for one local: ``l_G/γ + m·(γ − 1) + 1`` (its window
    maximum is the ``+ 1``).

    Args:
        gamma: Slice factor, ≥ 2.
        global_window_size: ``l_G``.
        n_candidates: ``m``, the number of candidate slices.

    Raises:
        ConfigurationError: On a gamma below the minimum or negative inputs.
    """
    if gamma < MIN_GAMMA:
        raise ConfigurationError(f"gamma must be >= {MIN_GAMMA}, got {gamma}")
    if global_window_size < 0 or n_candidates < 0:
        raise ConfigurationError("window size and candidate count must be >= 0")
    return global_window_size / gamma + n_candidates * (gamma - 1) + 1


def optimal_gamma(
    global_window_size: int,
    n_candidates: int,
    *,
    max_gamma: int | None = None,
) -> int:
    """Integer γ minimizing :func:`transfer_cost`.

    The real-valued minimizer is ``sqrt(l_G/m)``; the two neighbouring
    integers are compared to pick the true integer optimum.  With no
    candidate slices observed (``m == 0``) the identification term dominates
    and the best γ is as large as allowed.

    Args:
        global_window_size: ``l_G`` from the previous window.
        n_candidates: ``m`` from the previous window.
        max_gamma: Optional clamp; defaults to ``l_G`` (a single slice per
            window is the coarsest useful cut).

    Returns:
        The optimal slice factor, always ≥ 2.
    """
    if global_window_size < 0 or n_candidates < 0:
        raise ConfigurationError("window size and candidate count must be >= 0")
    ceiling = max(max_gamma if max_gamma is not None else global_window_size,
                  MIN_GAMMA)
    if global_window_size == 0:
        return MIN_GAMMA
    if n_candidates == 0:
        return ceiling
    raw = math.sqrt(global_window_size / n_candidates)
    lo = max(MIN_GAMMA, min(ceiling, math.floor(raw)))
    hi = max(MIN_GAMMA, min(ceiling, math.ceil(raw)))
    cost_lo = transfer_cost(lo, global_window_size, n_candidates)
    cost_hi = transfer_cost(hi, global_window_size, n_candidates)
    return lo if cost_lo <= cost_hi else hi


@dataclass
class AdaptiveGammaController:
    """Per-window γ adaptation driven by observed workload statistics.

    Attributes:
        gamma: The slice factor currently in force.
        smoothing: Exponential-smoothing weight for the observed ``l_G`` and
            ``m`` (1.0 = use the latest window only, matching the paper's
            description; lower values damp oscillation between windows).
        max_gamma: Optional upper clamp on γ.
    """

    gamma: int = 100
    smoothing: float = 1.0
    max_gamma: int | None = None

    def __post_init__(self) -> None:
        if self.gamma < MIN_GAMMA:
            raise ConfigurationError(
                f"initial gamma must be >= {MIN_GAMMA}, got {self.gamma}"
            )
        if not 0.0 < self.smoothing <= 1.0:
            raise ConfigurationError(
                f"smoothing must be in (0, 1], got {self.smoothing}"
            )
        self._window_size_estimate: float | None = None
        self._candidate_estimate: float | None = None

    def observe(self, global_window_size: int, n_candidates: int) -> int:
        """Fold one finished window's stats into the estimates; return new γ.

        Args:
            global_window_size: ``l_G`` of the window that just completed.
            n_candidates: Candidate-slice count ``m`` of that window.
        """
        self._window_size_estimate = self._smooth(
            self._window_size_estimate, float(global_window_size)
        )
        self._candidate_estimate = self._smooth(
            self._candidate_estimate, float(n_candidates)
        )
        self.gamma = optimal_gamma(
            round(self._window_size_estimate),
            round(self._candidate_estimate),
            max_gamma=self.max_gamma,
        )
        return self.gamma

    def expected_cost(self) -> float | None:
        """Modelled cost of the current γ under the current estimates."""
        if self._window_size_estimate is None or self._candidate_estimate is None:
            return None
        return transfer_cost(
            self.gamma,
            round(self._window_size_estimate),
            round(self._candidate_estimate),
        )

    def _smooth(self, previous: float | None, observed: float) -> float:
        if previous is None:
            return observed
        return self.smoothing * observed + (1.0 - self.smoothing) * previous
