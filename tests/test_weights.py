import math

import numpy as np
import pytest
from scipy.optimize import linprog

from helpers import complete_uniform, exclusive_pairs, heavy_light_edges, uniform_instance
from sparsematch.generators import FAMILIES
from sparsematch.instance import DemandType, StochasticInstance, realize
from sparsematch.matching import full_edge_list, max_matching
from sparsematch.rng import RngStream
from sparsematch.weights import (
    DegenerateType,
    FractionalSolution,
    heavy_light,
    monte_carlo_weights,
    per_copy_marginals,
    solution_from_json,
    solution_to_json,
    solve_expected_lp,
    spread_equivalence_classes,
)


def lp_oracle(instance) -> float:
    """Generic LP solver on the expected-instance program (test-side oracle)."""
    edges = [(j, i) for j, t in enumerate(instance.types) for i in t.compatible]
    index = {e: pos for pos, e in enumerate(edges)}
    n = instance.arrivals
    c = [-n * instance.types[j].probability for j, _ in edges]
    a_ub, b_ub = [], []
    for i in range(instance.resource_count):
        row = [0.0] * len(edges)
        for j, t in enumerate(instance.types):
            if i in t.compatible:
                row[index[(j, i)]] = n * t.probability
        a_ub.append(row)
        b_ub.append(1.0)
    for j, t in enumerate(instance.types):
        row = [0.0] * len(edges)
        for i in t.compatible:
            row[index[(j, i)]] = 1.0
        a_ub.append(row)
        b_ub.append(1.0)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


def test_lp_exclusive_pairs_value():
    solution = solve_expected_lp(exclusive_pairs(8))
    assert solution.objective == pytest.approx(8.0, rel=1e-9)
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in solution.x.values())


def test_lp_complete_uniform_value():
    solution = solve_expected_lp(complete_uniform(9))
    assert solution.objective == pytest.approx(9.0, rel=1e-9)


def test_lp_single_type_five_arrivals():
    inst = StochasticInstance(("a",), (DemandType(0, 1.0, (0,)),), arrivals=5)
    solution = solve_expected_lp(inst)
    assert solution.objective == pytest.approx(1.0, rel=1e-9)
    assert solution.x[(0, 0)] == pytest.approx(0.2, abs=1e-9)


def test_lp_matches_generic_solver_on_random_instances():
    gen = np.random.default_rng(47)
    for _ in range(40):
        m = int(gen.integers(1, 7))
        nres = int(gen.integers(1, 7))
        compat = []
        for _ in range(m):
            size = int(gen.integers(1, nres + 1))
            compat.append(tuple(sorted(gen.choice(nres, size=size, replace=False).tolist())))
        raw = gen.random(m) + 0.05
        probs = raw / raw.sum()
        types = tuple(DemandType(j, float(p), c) for j, (p, c) in enumerate(zip(probs, compat)))
        inst = StochasticInstance(tuple(f"v{i}" for i in range(nres)), types, int(gen.integers(1, 10)))
        got = solve_expected_lp(inst).objective
        assert got == pytest.approx(lp_oracle(inst), abs=1e-6)


def test_lp_degenerate_type_rejected():
    types = (DemandType(0, 1.0, (0,)), DemandType(1, 0.0, (0,)))
    inst = StochasticInstance(("a",), types, arrivals=2)
    with pytest.raises(DegenerateType):
        solve_expected_lp(inst)


def test_lp_feasible_on_all_families():
    for name, gen_fn in FAMILIES.items():
        solution = solve_expected_lp(gen_fn(100))
        # FractionalSolution.build enforces feasibility; sanity-check objective bounds
        assert 0 < solution.objective <= min(
            gen_fn(100).arrivals, gen_fn(100).resource_count
        ) + 1e-6, name


def test_build_rejects_infeasible():
    inst = exclusive_pairs(2)
    with pytest.raises(ValueError, match="exceeds 1"):
        FractionalSolution.build(inst, {(0, 0): 1.2})
    with pytest.raises(ValueError, match="outside the compatibility"):
        FractionalSolution.build(inst, {(0, 1): 0.5})
    with pytest.raises(ValueError, match="negative"):
        FractionalSolution.build(inst, {(0, 0): -0.5})


def test_monte_carlo_unique_matching():
    inst = StochasticInstance(("a",), (DemandType(0, 1.0, (0,)),), arrivals=1)
    solution = monte_carlo_weights(inst, 50, RngStream(1))
    assert solution.x[(0, 0)] == pytest.approx(1.0, abs=1e-12)


def test_monte_carlo_complete_uniform_spread():
    # shuffled tie-breaking spreads mass to ~1/n per edge; per-cell noise is
    # about 0.01 at M=500, so the bulk sits within 0.02 and nothing strays far
    inst = complete_uniform(20)
    solution = monte_carlo_weights(inst, 500, RngStream(5))
    deviations = np.abs(
        [solution.x.get((j, i), 0.0) - 0.05 for j in range(20) for i in range(20)]
    )
    assert np.quantile(deviations, 0.9) < 0.02
    assert deviations.max() < 0.05


def test_monte_carlo_objective_tracks_offline_mean():
    inst = complete_uniform(20)
    solution = monte_carlo_weights(inst, 500, RngStream(9))
    base = RngStream(1009)
    sizes = [
        max_matching(full_edge_list(realize(inst, base.substream(t)))).size for t in range(500)
    ]
    assert solution.objective == pytest.approx(np.mean(sizes), rel=0.02)


def test_monte_carlo_fallback_for_unseen_types():
    # a type with vanishing probability is never drawn in a few simulations
    types = (
        DemandType(0, 1.0 - 1e-12, (0,)),
        DemandType(1, 1e-12, (0, 1)),
    )
    inst = StochasticInstance(("a", "b"), types, arrivals=2)
    solution = monte_carlo_weights(inst, 20, RngStream(3))
    assert solution.x[(1, 0)] == pytest.approx(0.5, abs=1e-12)
    assert solution.x[(1, 1)] == pytest.approx(0.5, abs=1e-12)


def test_monte_carlo_feasible_after_clamp():
    for name, gen_fn in FAMILIES.items():
        inst = gen_fn(40)
        solution = monte_carlo_weights(inst, 60, RngStream(11))
        load = {}
        for (j, i), v in solution.x.items():
            load[i] = load.get(i, 0.0) + solution.arrival_mass[j] * v
        assert all(y <= 1.0 + 1e-7 for y in load.values()), name


def test_heavy_light_worked_example():
    inst = StochasticInstance(
        ("a", "b", "c"), (DemandType(0, 1.0, (0, 1, 2)),), arrivals=1
    )
    x = FractionalSolution.build(inst, {(0, 0): 0.6, (0, 1): 0.3, (0, 2): 0.1})
    split = heavy_light(x, 2)
    heavy, light = heavy_light_edges(x, 2)
    assert heavy == [(0, 0)]
    assert set(light) == {(0, 1), (0, 2)}
    assert split.z_heavy == pytest.approx(0.6, abs=1e-12)
    assert split.z_light == pytest.approx(0.4, abs=1e-12)


def test_heavy_light_all_light_when_uniform():
    inst = complete_uniform(10)
    x = FractionalSolution.build(inst, {(j, i): 0.1 for j in range(10) for i in range(10)})
    split = heavy_light(x, 5)
    assert split.z_heavy == 0.0
    assert split.z_light == pytest.approx(x.objective, abs=1e-9)


def test_heavy_light_concentrated_all_heavy():
    inst = complete_uniform(6)
    x = FractionalSolution.build(inst, {(j, j): 1.0 for j in range(6)})
    split = heavy_light(x, 3)
    assert split.z_heavy == pytest.approx(x.objective, abs=1e-9)
    assert split.z_light == 0.0
    assert split.z_heavy + split.z_light == pytest.approx(x.objective, abs=1e-9)


def test_spread_averages_interchangeable_pair():
    inst = StochasticInstance(
        ("a", "b"), (DemandType(0, 1.0, (0, 1)),), arrivals=1
    )
    x = FractionalSolution.build(inst, {(0, 0): 1.0})
    spread = spread_equivalence_classes(inst, x)
    assert spread.x[(0, 0)] == pytest.approx(0.5, abs=1e-12)
    assert spread.x[(0, 1)] == pytest.approx(0.5, abs=1e-12)
    assert spread.objective == pytest.approx(x.objective, abs=1e-9)


def test_spread_no_interchangeable_pair_is_identity():
    inst = uniform_instance([(0, 1), (1,)], arrivals=2)
    x = FractionalSolution.build(inst, {(0, 0): 0.9, (1, 1): 0.4})
    spread = spread_equivalence_classes(inst, x)
    assert spread.x == x.x


def test_spread_concentrated_complete_uniform():
    n = 10
    inst = complete_uniform(n)
    x = FractionalSolution.build(inst, {(j, j): 1.0 for j in range(n)})
    spread = spread_equivalence_classes(inst, x)
    assert all(v == pytest.approx(1.0 / n, abs=1e-12) for v in spread.x.values())
    assert spread.objective == pytest.approx(n, abs=1e-9)


def test_spread_preserves_objective_on_random_feasible_solutions():
    gen = np.random.default_rng(53)
    inst = complete_uniform(8)
    for _ in range(20):
        raw = gen.random((8, 8))
        raw = raw / raw.sum(axis=1, keepdims=True)  # type limit = 1
        raw = raw / np.maximum(1.0, (raw.sum(axis=0)))  # clamp resource load
        x = FractionalSolution.build(
            inst, {(j, i): raw[j][i] for j in range(8) for i in range(8) if raw[j][i] > 0}
        )
        spread = spread_equivalence_classes(inst, x)
        assert spread.objective == pytest.approx(x.objective, abs=1e-9)


def test_solution_json_round_trip():
    inst = exclusive_pairs(4)
    x = solve_expected_lp(inst)
    text = solution_to_json(x, inst.arrivals)
    back = solution_from_json(inst, text)
    assert back.x == pytest.approx(x.x)
    assert back.objective == pytest.approx(x.objective, abs=1e-12)
    with pytest.raises(ValueError, match="learned for"):
        solution_from_json(complete_uniform(5), text)


def test_per_copy_marginals_shapes():
    inst = complete_uniform(6)
    marg = per_copy_marginals(inst, 40, RngStream(3))
    assert set(marg.first) <= set(range(6))
    for ids, vals in marg.first.values():
        assert len(ids) == len(vals)
        assert all(v > 0 for v in vals)
    # second-copy events are rarer but present at n=6 over 40 simulations
    assert marg.second


def test_offline_mean_sandwich_on_families_small():
    # light version of the acceptance check: n = 30, 400 trials
    for name, gen_fn in FAMILIES.items():
        inst = gen_fn(28 if name == "tsm" else 30)
        opt = solve_expected_lp(inst).objective
        base = RngStream(71)
        sizes = [
            max_matching(full_edge_list(realize(inst, base.substream(name, t)))).size
            for t in range(400)
        ]
        mean = float(np.mean(sizes))
        stderr = float(np.std(sizes, ddof=1) / math.sqrt(len(sizes)))
        assert (1 - 1 / math.e) * opt - 4 * stderr <= mean <= opt + 4 * stderr, name
