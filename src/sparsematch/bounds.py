"""Closed-form guarantees for sparsified matchings.

The central quantity is the two-size excess bound
``U(eta, tau) = min( sqrt(eta + tau*(1-eta))/2,
exp(-eta) * (eta + sqrt(tau*(1-eta))/2) )`` evaluated at the heavy fraction
``eta = Z_H / Z`` and ``tau = 1/k``: the guided sparsifier's expected maximum
matching is at least ``Z * (1 - U) - 1``.  A spread solution (small heavy
fraction) with budget ``ceil(eps^-2)`` therefore preserves a ``1 - eps``
fraction of the fractional objective, up to an additive unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

SPLIT_TOL = 1e-9


@dataclass(frozen=True)
class BoundInputs:
    """Objective decomposition Z = Z_H + Z_L and the budget k."""

    z: float
    z_heavy: float
    z_light: float
    k: int

    def __post_init__(self):
        if self.z <= 0 or self.z_heavy < 0 or self.z_light < 0:
            raise ValueError("objective components must be nonnegative with Z > 0")
        if abs(self.z_heavy + self.z_light - self.z) > SPLIT_TOL:
            raise ValueError(f"Z_H + Z_L = {self.z_heavy + self.z_light} does not match Z = {self.z}")
        if self.k < 1:
            raise ValueError(f"budget k must be >= 1, got {self.k}")


class SandwichVerdict(NamedTuple):
    passed: bool
    lower: float
    upper: float


def per_bin_bound(eta: float, tau: float) -> float:
    """Expected-excess bound for a unit-load bin with heavy fraction eta, light size tau."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    variance_branch = 0.5 * math.sqrt(eta + tau * (1.0 - eta))
    deficit_branch = math.exp(-eta) * (eta + 0.5 * math.sqrt(tau * (1.0 - eta)))
    return min(variance_branch, deficit_branch)


def theorem_bound(inputs: BoundInputs) -> float:
    """Lower bound on the expected maximum matching of the guided sparsifier.

    May be negative for small Z (the additive unit dominates); callers treat
    negative values as vacuous rather than clamping them.
    """
    eta = inputs.z_heavy / inputs.z
    eta = min(1.0, max(0.0, eta))
    return inputs.z * (1.0 - per_bin_bound(eta, 1.0 / inputs.k)) - 1.0


def corollary_budget(epsilon: float) -> int:
    """Budget k = ceil(eps^-2) sufficing for a 1 - eps preservation of spread solutions."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    return math.ceil(epsilon ** -2 - 1e-9)


def sandwich_check(opt_lp: float, empirical_mean: float, stderr: float) -> SandwichVerdict:
    """Test (1 - 1/e) * OPT_LP <= mean offline matching <= OPT_LP, with 4 stderr slack."""
    if stderr < 0:
        raise ValueError("stderr must be nonnegative")
    lower = (1.0 - 1.0 / math.e) * opt_lp - 4.0 * stderr
    upper = opt_lp + 4.0 * stderr
    return SandwichVerdict(lower <= empirical_mean <= upper, lower, upper)
