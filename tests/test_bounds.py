import math

import numpy as np
import pytest

from sparsematch.bounds import (
    BoundInputs,
    corollary_budget,
    per_bin_bound,
    sandwich_check,
    theorem_bound,
)


def test_per_bin_bound_full_heavy():
    # eta = 1: min(1/2, 1/e) = 1/e regardless of tau
    for tau in (0.01, 0.2, 1.0):
        assert per_bin_bound(1.0, tau) == pytest.approx(1 / math.e, abs=1e-12)


def test_per_bin_bound_all_light_tau_one():
    assert per_bin_bound(0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_per_bin_bound_vanishes_with_tau():
    assert per_bin_bound(0.0, 1e-12) == pytest.approx(0.0, abs=1e-6)


def test_per_bin_bound_matches_both_branches():
    gen = np.random.default_rng(3)
    for _ in range(200):
        eta = float(gen.random())
        tau = float(gen.random()) or 0.5
        variance = 0.5 * math.sqrt(eta + tau * (1 - eta))
        deficit = math.exp(-eta) * (eta + 0.5 * math.sqrt(tau * (1 - eta)))
        assert per_bin_bound(eta, tau) == pytest.approx(min(variance, deficit), abs=1e-12)


def test_per_bin_bound_domain():
    with pytest.raises(ValueError, match="eta must lie in"):
        per_bin_bound(-0.1, 0.5)
    with pytest.raises(ValueError, match="tau must lie in"):
        per_bin_bound(0.5, 0.0)
    with pytest.raises(ValueError, match="tau must lie in"):
        per_bin_bound(0.5, 1.5)


def test_per_bin_bound_monotone_in_tau():
    for eta in np.arange(0.0, 1.0001, 0.1):
        values = [per_bin_bound(float(eta), tau) for tau in np.arange(0.01, 1.0001, 0.01)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_theorem_bound_all_heavy():
    b = BoundInputs(z=10.0, z_heavy=10.0, z_light=0.0, k=7)
    assert theorem_bound(b) == pytest.approx(10 * (1 - 1 / math.e) - 1, abs=1e-12)


def test_theorem_bound_all_light_k4():
    # min(0.5 * 0.5, 1 * 0.5 * 0.5) = 0.25
    b = BoundInputs(z=8.0, z_heavy=0.0, z_light=8.0, k=4)
    assert theorem_bound(b) == pytest.approx(8 * 0.75 - 1, abs=1e-12)


def test_theorem_bound_corollary_regime():
    # Z_H/Z = eps/2 with k = eps^-2 guarantees Z(1 - eps) - 1
    eps = 0.2
    z = 100.0
    b = BoundInputs(z=z, z_heavy=z * eps / 2, z_light=z * (1 - eps / 2), k=corollary_budget(eps))
    assert theorem_bound(b) >= z * (1 - eps) - 1 - 1e-9


def test_theorem_bound_converges_to_z_minus_one():
    z = 50.0
    values = [
        theorem_bound(BoundInputs(z=z, z_heavy=0.0, z_light=z, k=k))
        for k in (1, 4, 16, 64, 256, 4096)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(z - 1, abs=z * 0.01)


def test_theorem_bound_negative_reported_as_is():
    b = BoundInputs(z=1.0, z_heavy=1.0, z_light=0.0, k=2)
    assert theorem_bound(b) < 0


def test_bound_inputs_validation():
    with pytest.raises(ValueError, match="does not match"):
        BoundInputs(z=5.0, z_heavy=1.0, z_light=3.0, k=2)
    with pytest.raises(ValueError):
        BoundInputs(z=0.0, z_heavy=0.0, z_light=0.0, k=2)
    with pytest.raises(ValueError):
        BoundInputs(z=2.0, z_heavy=1.0, z_light=1.0, k=0)


def test_corollary_budget_values():
    assert corollary_budget(0.1) == 100
    assert corollary_budget(1.0) == 1
    assert corollary_budget(0.2) == 25
    assert corollary_budget(0.25) == 16
    with pytest.raises(ValueError, match="epsilon must lie in"):
        corollary_budget(0.0)
    with pytest.raises(ValueError, match="epsilon must lie in"):
        corollary_budget(1.2)


def test_sandwich_check_examples():
    assert sandwich_check(10.0, 8.5, 0.05).passed
    verdict = sandwich_check(10.0, 10.9, 0.05)
    assert not verdict.passed
    assert verdict.upper == pytest.approx(10.2, abs=1e-12)
    # closed-form occupancy mean sits near the lower edge for n = 50
    n = 50
    mean = n * (1 - (1 - 1 / n) ** n)
    assert sandwich_check(float(n), mean, 0.1).passed


def test_sandwich_check_rejects_negative_stderr():
    with pytest.raises(ValueError):
        sandwich_check(1.0, 1.0, -0.1)
