import math
import operator
from functools import reduce

import numpy as np
import pytest
from scipy.optimize import linprog

from helpers import (
    bundled_trip_instances,
    complete_uniform,
    dinic_lp,
    edmonds_karp_lp,
    exclusive_pairs,
    group_by_type_oracle,
    heavy_light_edges,
    heavy_light_oracle,
    monte_carlo_oracle,
    objective_oracle,
    per_copy_marginals_oracle,
    solution,
    solution_dict,
    uniform_instance,
)
from sparsematch import weights
from sparsematch.generators import FAMILIES
from sparsematch.instance import DemandType, StochasticInstance, realize
from sparsematch.matching import full_matching
from sparsematch.rng import RngStream, choice_cdf
from sparsematch.weights import (
    CopyMarginals,
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
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in solution_dict(solution).values())


def test_lp_complete_uniform_value():
    solution = solve_expected_lp(complete_uniform(9))
    assert solution.objective == pytest.approx(9.0, rel=1e-9)


def test_lp_single_type_five_arrivals():
    inst = StochasticInstance(("a",), (DemandType(1.0, (0,)),), arrivals=5)
    solution = solve_expected_lp(inst)
    assert solution.objective == pytest.approx(1.0, rel=1e-9)
    assert solution_dict(solution)[(0, 0)] == pytest.approx(0.2, abs=1e-9)


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
        types = tuple(DemandType(float(p), c) for p, c in zip(probs, compat))
        inst = StochasticInstance(tuple(f"v{i}" for i in range(nres)), types, int(gen.integers(1, 10)))
        got = solve_expected_lp(inst).objective
        assert got == pytest.approx(lp_oracle(inst), rel=1e-9)


def generated_instances(st):
    """A hypothesis strategy of small instances, about half of them with one
    type that has no compatible resource."""

    @st.composite
    def instances(draw):
        nres = draw(st.integers(1, 6))
        compat = draw(st.lists(st.sets(st.integers(0, nres - 1), min_size=1), min_size=1, max_size=6))
        if draw(st.booleans()):
            compat.insert(draw(st.integers(0, len(compat))), set())
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(compat), max_size=len(compat)))
        types = tuple(DemandType(w / sum(raw), tuple(sorted(c))) for w, c in zip(raw, compat))
        return StochasticInstance(tuple(f"v{i}" for i in range(nres)), types, draw(st.integers(1, 12)))

    return instances()


def test_lp_properties_on_generated_instances():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(generated_instances(hypothesis.strategies))
    def check(inst):
        hypothesis.assume(any(inst.arrivals * t.probability % 1.0 for t in inst.types))
        x = solve_expected_lp(inst)
        assert x.objective == pytest.approx(lp_oracle(inst), rel=1e-9)
        assert solution(inst, solution_dict(x)).objective == x.objective

    check()


def test_lp_equals_edmonds_karp_on_families_and_trip_intervals():
    instances = [gen_fn(100) for gen_fn in FAMILIES.values()] + bundled_trip_instances()
    assert len(instances) >= 4 + 3
    for inst in instances:
        assert list(solution_dict(solve_expected_lp(inst)).items()) == list(edmonds_karp_lp(inst).items())


def assert_same_as_list_built_dinic(inst):
    got, want = solve_expected_lp(inst), dinic_lp(inst)
    assert list(solution_dict(got).items()) == list(want.items())
    assert got.objective == objective_oracle(inst, want)


def test_lp_equals_list_built_dinic_on_families_trip_intervals_and_edge_cases(monkeypatch):
    phases = []
    blocking_flow = weights._blocking_flow
    monkeypatch.setattr(weights, "_blocking_flow", lambda *args: phases.append(blocking_flow(*args)))
    instances = [gen_fn(n) for n in (100, 500) for gen_fn in FAMILIES.values()] + bundled_trip_instances()
    instances += [
        # a type whose mass n * p is positive but at most the flow tolerance
        StochasticInstance(("a", "b"), (DemandType(1.0 - 1e-13, (0, 1)), DemandType(1e-13, (0,))), 1),
        # empty compatibility lists, and resource 0 that no type reaches
        StochasticInstance(("a", "b", "c"), (DemandType(0.3, ()), DemandType(0.45, (1, 2)),
                                             DemandType(0.25, ())), 3),
        # no resource reachable at all
        StochasticInstance(("a", "b"), (DemandType(0.5, ()), DemandType(0.5, ())), 3),
        # resource 0 left with a residual below the flow tolerance, then with one just above
        # it that type 2 takes, so that its x[2, 0] falls below the read-back tolerance
        *(StochasticInstance(("a", "b"), (DemandType(0.3 / n, (0,)), DemandType((0.7 - gap) / n, (0,)),
                                          DemandType(0.5, (0, 1)), DemandType(0.5 - (1.0 - gap) / n, ())), n)
          for n, gap in ((2, 5e-13), (10, 2e-12))),
    ]
    # sparse random instances with fractional masses, where up to five phases follow the first
    gen = np.random.default_rng(17)
    for _ in range(300):
        m, nres = int(gen.integers(1, 25)), int(gen.integers(1, 20))
        compat = [tuple(sorted(gen.choice(nres, size=int(gen.integers(0, min(nres, 6) + 1)),
                                          replace=False).tolist())) for _ in range(m)]
        raw = gen.random(m) + 0.01
        types = tuple(DemandType(float(p), c) for p, c in zip(raw / raw.sum(), compat))
        instances.append(StochasticInstance(tuple(f"v{i}" for i in range(nres)), types, int(gen.integers(1, 40))))
    for inst in instances:
        assert_same_as_list_built_dinic(inst)
    assert len(phases) > 100  # the phases after the greedy first one ran too


def test_lp_equals_list_built_dinic_on_generated_instances():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(generated_instances(hypothesis.strategies))
    def check(inst):
        assert_same_as_list_built_dinic(inst)

    check()


def test_lp_degenerate_type_rejected():
    types = (DemandType(1.0, (0,)), DemandType(0.0, (0,)))
    inst = StochasticInstance(("a",), types, arrivals=2)
    with pytest.raises(ValueError, match="type 1 has probability 0"):
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
        solution(inst, {(0, 0): 1.2})
    with pytest.raises(ValueError, match="outside the compatibility"):
        solution(inst, {(0, 1): 0.5})
    with pytest.raises(ValueError, match="negative"):
        solution(inst, {(0, 0): -0.5})


def test_monte_carlo_unique_matching():
    inst = StochasticInstance(("a",), (DemandType(1.0, (0,)),), arrivals=1)
    x = monte_carlo_weights(inst, 50, RngStream(1))
    assert solution_dict(x)[(0, 0)] == pytest.approx(1.0, abs=1e-12)


def test_monte_carlo_complete_uniform_spread():
    # shuffled tie-breaking spreads mass to ~1/n per edge; per-cell noise is
    # about 0.01 at M=500, so the bulk sits within 0.02 and nothing strays far
    inst = complete_uniform(20)
    x = solution_dict(monte_carlo_weights(inst, 500, RngStream(5)))
    deviations = np.abs(
        [x.get((j, i), 0.0) - 0.05 for j in range(20) for i in range(20)]
    )
    assert np.quantile(deviations, 0.9) < 0.02
    assert deviations.max() < 0.05


def test_monte_carlo_objective_tracks_offline_mean():
    inst = complete_uniform(20)
    solution = monte_carlo_weights(inst, 500, RngStream(9))
    base = RngStream(1009)
    sizes = [
        full_matching(realize(inst, base.substream(t))).size for t in range(500)
    ]
    assert solution.objective == pytest.approx(np.mean(sizes), rel=0.02)


def test_monte_carlo_fallback_for_unseen_types():
    # a type with vanishing probability is never drawn in a few simulations
    types = (
        DemandType(1.0 - 1e-12, (0,)),
        DemandType(1e-12, (0, 1)),
    )
    inst = StochasticInstance(("a", "b"), types, arrivals=2)
    x = solution_dict(monte_carlo_weights(inst, 20, RngStream(3)))
    assert x[(1, 0)] == pytest.approx(0.5, abs=1e-12)
    assert x[(1, 1)] == pytest.approx(0.5, abs=1e-12)


def test_monte_carlo_feasible_after_clamp():
    for name, gen_fn in FAMILIES.items():
        inst = gen_fn(40)
        x = monte_carlo_weights(inst, 60, RngStream(11))
        load = {}
        for (j, i), v in solution_dict(x).items():
            load[i] = load.get(i, 0.0) + inst.arrivals * inst.probs[j] * v
        assert all(y <= 1.0 + 1e-7 for y in load.values()), name


def test_heavy_light_worked_example():
    inst = StochasticInstance(
        ("a", "b", "c"), (DemandType(1.0, (0, 1, 2)),), arrivals=1
    )
    x = solution(inst, {(0, 0): 0.6, (0, 1): 0.3, (0, 2): 0.1})
    split = heavy_light(x, 2)
    heavy, light = heavy_light_edges(x, 2)
    assert heavy == [(0, 0)]
    assert set(light) == {(0, 1), (0, 2)}
    assert split.z_heavy == pytest.approx(0.6, abs=1e-12)
    assert split.z_light == pytest.approx(0.4, abs=1e-12)


def test_heavy_light_all_light_when_uniform():
    inst = complete_uniform(10)
    x = solution(inst, {(j, i): 0.1 for j in range(10) for i in range(10)})
    split = heavy_light(x, 5)
    assert split.z_heavy == 0.0
    assert split.z_light == pytest.approx(x.objective, abs=1e-9)


def test_heavy_light_concentrated_all_heavy():
    inst = complete_uniform(6)
    x = solution(inst, {(j, j): 1.0 for j in range(6)})
    split = heavy_light(x, 3)
    assert (split.z, split.k) == (x.objective, 3)
    assert split.z_heavy == pytest.approx(x.objective, abs=1e-9)
    assert split.z_light == 0.0
    assert split.z_heavy + split.z_light == pytest.approx(x.objective, abs=1e-9)


def test_spread_averages_interchangeable_pair():
    inst = StochasticInstance(
        ("a", "b"), (DemandType(1.0, (0, 1)),), arrivals=1
    )
    x = solution(inst, {(0, 0): 1.0})
    spread = spread_equivalence_classes(inst, x)
    assert solution_dict(spread)[(0, 0)] == pytest.approx(0.5, abs=1e-12)
    assert solution_dict(spread)[(0, 1)] == pytest.approx(0.5, abs=1e-12)
    assert spread.objective == pytest.approx(x.objective, abs=1e-9)


def test_spread_no_interchangeable_pair_is_identity():
    inst = uniform_instance([(0, 1), (1,)], arrivals=2)
    x = solution(inst, {(0, 0): 0.9, (1, 1): 0.4})
    spread = spread_equivalence_classes(inst, x)
    assert solution_dict(spread) == solution_dict(x)


def test_spread_concentrated_complete_uniform():
    n = 10
    inst = complete_uniform(n)
    x = solution(inst, {(j, j): 1.0 for j in range(n)})
    spread = spread_equivalence_classes(inst, x)
    assert all(v == pytest.approx(1.0 / n, abs=1e-12) for v in solution_dict(spread).values())
    assert spread.objective == pytest.approx(n, abs=1e-9)


def test_spread_preserves_objective_on_random_feasible_solutions():
    gen = np.random.default_rng(53)
    inst = complete_uniform(8)
    for _ in range(20):
        raw = gen.random((8, 8))
        raw = raw / raw.sum(axis=1, keepdims=True)  # type limit = 1
        raw = raw / np.maximum(1.0, (raw.sum(axis=0)))  # clamp resource load
        x = solution(
            inst, {(j, i): raw[j][i] for j in range(8) for i in range(8) if raw[j][i] > 0}
        )
        spread = spread_equivalence_classes(inst, x)
        assert spread.objective == pytest.approx(x.objective, abs=1e-9)


def test_spread_properties_on_generated_solutions():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def solutions(draw):
        # any feasible solution: random values scaled to the type limit, then
        # overloaded resources scaled back to capacity
        inst = draw(generated_instances(st))
        x = {}
        for j, t in enumerate(inst.types):
            values = draw(st.lists(st.floats(0.0, 1.0), min_size=len(t.compatible), max_size=len(t.compatible)))
            scale = max(1.0, sum(values))
            x.update({(j, i): v / scale for i, v in zip(t.compatible, values)})
        load = [0.0] * inst.resource_count
        for (j, i), v in x.items():
            load[i] += inst.arrivals * inst.types[j].probability * v
        return inst, {(j, i): v / max(1.0, load[i]) for (j, i), v in x.items()}

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(solutions())
    def check(case):
        inst, values = case
        x = solution(inst, values)
        spread = spread_equivalence_classes(inst, x)
        assert spread.objective == pytest.approx(x.objective, rel=1e-9, abs=1e-12)
        assert solution(inst, solution_dict(spread)).objective == spread.objective

    check()


def test_solution_json_round_trip():
    inst = exclusive_pairs(4)
    x = solve_expected_lp(inst)
    text = solution_to_json(x, inst.arrivals)
    back = solution_from_json(inst, text)
    assert np.array_equal(back.offsets, x.offsets)
    assert np.array_equal(back.ids, x.ids)
    assert np.array_equal(back.values, x.values)
    assert back.objective == x.objective
    with pytest.raises(ValueError, match="learned for"):
        solution_from_json(complete_uniform(5), text)


def test_per_copy_marginals_shapes():
    inst = complete_uniform(6)
    marg = per_copy_marginals(inst, 40, RngStream(3))
    assert set(marg.first) <= set(range(6))
    for ids, vals, cdf in marg.first.values():
        assert len(ids) == len(vals) == len(cdf)
        assert all(v > 0 for v in vals)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
    # second-copy events are rarer but present at n=6 over 40 simulations
    assert marg.second


def assert_marginals_equal(got, first, second):
    # Each copy's resources, weights and draw cdf against the oracle's groups.
    for copy, want in ((got.first, first), (got.second, second)):
        assert {j: (ids, w.tolist(), cdf) for j, (ids, w, cdf) in copy.items()} == {
            j: (ids, w.tolist(), choice_cdf(probs)) for j, (ids, w, probs) in want.items()}


def assert_solution_equals_the_oracles(inst, x, values):
    # The CSR solution against its dict-built oracle ``values``: the same pairs
    # and values, objective, heavy-light split and copy marginals, with ==.
    assert list(solution_dict(x).items()) == sorted(values.items())
    assert x.objective == objective_oracle(inst, values)
    for k in (1, 3, 5, 10):
        split = heavy_light(x, k)
        assert (split.z_heavy, split.z_light) == heavy_light_oracle(inst, values, k)
    assert_marginals_equal(CopyMarginals.of_solution(x), *[group_by_type_oracle(values)] * 2)


def test_objective_adds_the_masses_left_to_right():
    # Python 3.12's builtin sum of floats is compensated; the objective (and with
    # it bounds' z column) stays the plain left-to-right sum on every version.
    base = RngStream(0)
    for name, family in sorted(FAMILIES.items()):
        inst = family(100)
        x = monte_carlo_weights(inst, 100, base.substream("weights", name))
        masses = ((inst.arrivals * inst.probs)[x.types] * x.values).tolist()
        assert x.objective == reduce(operator.add, masses, 0.0), name


def test_learning_layer_equals_the_dict_built_oracles():
    """Monte Carlo weights and per-copy marginals on the four families at n=100
    (M=20) and the bundled trip intervals, and the LP on the four families at
    n=100 and n=500, equal the dict-built learning steps they replaced."""
    instances = [family(100) for family in FAMILIES.values()] + bundled_trip_instances()
    for q, inst in enumerate(instances):
        rng = RngStream(0).substream("weights", q)
        assert_solution_equals_the_oracles(inst, monte_carlo_weights(inst, 20, rng),
                                           monte_carlo_oracle(inst, 20, rng))
        assert_marginals_equal(per_copy_marginals(inst, 20, rng), *per_copy_marginals_oracle(inst, 20, rng))
    for n in (100, 500):
        for family in FAMILIES.values():
            inst = family(n)
            assert_solution_equals_the_oracles(inst, solve_expected_lp(inst), dinic_lp(inst))


def test_offline_mean_sandwich_on_families_small():
    # light version of the acceptance check: n = 30, 400 trials
    for name, gen_fn in FAMILIES.items():
        inst = gen_fn(28 if name == "tsm" else 30)
        opt = solve_expected_lp(inst).objective
        base = RngStream(71)
        sizes = [
            full_matching(realize(inst, base.substream(name, t))).size
            for t in range(400)
        ]
        mean = float(np.mean(sizes))
        stderr = float(np.std(sizes, ddof=1) / math.sqrt(len(sizes)))
        assert (1 - 1 / math.e) * opt - 4 * stderr <= mean <= opt + 4 * stderr, name
