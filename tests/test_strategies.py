import math

import numpy as np
import pytest

from helpers import (
    VarOptSampler,
    bundled_trip_instances,
    choice_cdf,
    complete_uniform,
    draw_and_score,
    exclusive_pairs,
    full_matching,
    group_by_type_oracle,
    hopcroft_karp_oracle,
    ids_of,
    kvv_oracle,
    light_row,
    mgs_oracle,
    mgs_suggestions_oracle,
    records_instance,
    row_graph,
    sample_weighted,
    second_choices,
    solution,
    solution_dict,
    support_of,
    uniform_instance,
    varopt_ipw,
)
from sparsematch import strategies
from sparsematch.generators import FAMILIES, gen_kvv_triangular
from sparsematch.instance import RealizedGraph, DemandType, StochasticInstance, realize
from sparsematch.matching import bitset_matching, matching_size
from sparsematch.rng import RngStream
from sparsematch.strategies import (
    BUDGETED,
    GUIDED,
    STRATEGY_NAMES,
    StrategyConfig,
    StrategyOutcome,
    _coordinate,
    draw,
    kvv_ranking,
    mgs,
    random_subgraph,
    run_strategy,
    varopt_samplers,
    varopt_sparsify,
)
from sparsematch.weights import (
    CopyMarginals,
    monte_carlo_weights,
    per_copy_marginals,
    solve_expected_lp,
)


def spread_solution(n):
    inst = complete_uniform(n)
    x = solution(
        inst, {(j, i): 1.0 / n for j in range(n) for i in range(n)}
    )
    return inst, x


def concentrated_solution(n):
    inst = complete_uniform(n)
    x = solution(inst, {(j, j): 1.0 for j in range(n)})
    return inst, x


def test_config_validation():
    with pytest.raises(ValueError, match="unknown strategy 'greedy'"):
        StrategyConfig("greedy")
    with pytest.raises(ValueError, match="budget"):
        StrategyConfig("varopt")
    for name in ("offline", "kvv", "mgs"):
        with pytest.raises(ValueError, match="only with them"):
            StrategyConfig(name, k=3)
    assert StrategyConfig("random", k=3).label == "random k=3"
    assert StrategyConfig("kvv").label == "kvv"


def test_varopt_budget_exceeds_degree_keeps_everything():
    inst, x = spread_solution(6)
    graph = realize(inst, RngStream(1))
    rows = list(map(ids_of, varopt_sparsify([graph], varopt_samplers(inst, x, 10), [RngStream(2)])[0]))
    assert len(rows) == graph.n
    for i, row in enumerate(rows):
        assert list(row) == graph.instance.row(graph.type_ids[i])
        probs = VarOptSampler(*support_of(x, graph.type_ids[i]), 10).probabilities()
        assert all(p == pytest.approx(1.0) for p in probs.values())


def test_varopt_respects_budget_and_support():
    inst, x = spread_solution(30)
    graph = realize(inst, RngStream(3))
    masks = varopt_sparsify([graph], varopt_samplers(inst, x, 4), [RngStream(4)])[0]
    ipw = varopt_ipw(graph, x, 4, RngStream(4), masks)
    for i, row in enumerate(map(ids_of, masks)):
        assert len(row) == 4
        assert set(row) <= set(graph.instance.row(graph.type_ids[i]))
        assert sum(ipw[(i, r)] for r in row) == pytest.approx(1.0, abs=1e-9)


def test_varopt_concentrated_forces_single_edge():
    # concentrated guidance ignores the budget: every arrival reports one edge,
    # and the matching equals the number of distinct realized types
    n = 50
    inst, x = concentrated_solution(n)
    samplers = varopt_samplers(inst, x, 5)
    base = RngStream(5)
    sizes = []
    for t in range(300):
        graph = realize(inst, base.substream(t))
        outcome = draw_and_score(graph, StrategyConfig("varopt", k=5), base.substream("s", t), samplers)
        assert outcome.sparsified_edges == graph.n
        sizes.append(outcome.matched)
        distinct = len(set(graph.type_ids))
        assert outcome.matched == distinct
    expected = n * (1 - (1 - 1 / n) ** n)
    assert np.mean(sizes) == pytest.approx(expected, rel=0.03)


def test_varopt_spread_preserves_matching():
    # complete uniform n=50, k=5: preservation ratio at least 0.95 over 500 trials
    n = 50
    inst, x = spread_solution(n)
    samplers = varopt_samplers(inst, x, 5)
    base = RngStream(7)
    matched, offline = [], []
    for t in range(500):
        graph = realize(inst, base.substream(t))
        offline.append(full_matching(graph).size)
        matched.append(
            draw_and_score(graph, StrategyConfig("varopt", k=5), base.substream("s", t), samplers).matched
        )
    ratio = np.mean(matched) / np.mean(offline)
    assert ratio >= 0.95


def test_varopt_zero_weight_type_falls_back_to_uniform():
    inst = uniform_instance([(0, 1, 2), (0,)], arrivals=4)
    x = solution(inst, {(1, 0): 0.5})  # type 0 has no support
    graph = RealizedGraph(inst, (0, 0, 1, 0))
    masks = varopt_sparsify([graph], varopt_samplers(inst, x, 2), [RngStream(11)])[0]
    for type_id, row in zip(graph.type_ids, map(ids_of, masks)):
        if type_id == 0:
            assert len(row) == 2
            assert set(row) <= {0, 1, 2}


def test_varopt_locality():
    # permuting other arrivals never changes the report of arrival i
    inst, x = spread_solution(12)
    types_a = (3, 7, 1, 0, 4, 4, 9, 2)
    types_b = (3, 2, 9, 0, 4, 1, 4, 7)  # same type at positions 0 and 3
    samplers = varopt_samplers(inst, x, 3)
    rng = RngStream(13)
    masks_a = varopt_sparsify([RealizedGraph(inst, types_a)], samplers, [rng])[0]
    masks_b = varopt_sparsify([RealizedGraph(inst, types_b)], samplers, [rng])[0]
    for i in (0, 3):
        assert masks_a[i] == masks_b[i]


def test_varopt_samplers_cover_every_type():
    # support -> that support; no support -> uniform over the compatibility
    # set; neither -> an empty row
    inst = records_instance(
        resources=("a", "b", "c"),
        types=(DemandType(0.4, (0, 1, 2)), DemandType(0.4, (1, 2)), DemandType(0.2, ())),
        arrivals=3,
    )
    x = solution(inst, {(0, 0): 0.2, (0, 2): 0.6})
    samplers = varopt_samplers(inst, x, 1)
    assert samplers.fixed_masks == [0, 0, 0]
    assert samplers.draws.tolist() == [1, 1, 0]
    assert light_row(samplers, 0) == ([2, 0], pytest.approx([0.75, 0.25]))
    assert light_row(samplers, 1) == ([1, 2], pytest.approx([0.5, 0.5]))
    assert light_row(samplers, 2) == ([], [])
    masks = varopt_sparsify([RealizedGraph(inst, (2, 0, 2))], samplers, [RngStream(3)])[0]
    rows = list(map(ids_of, masks))
    assert rows[0] == rows[2] == ()
    assert rows[1] in ((0,), (2,))


def test_random_subgraph_keeps_all_when_small_degree():
    inst = uniform_instance([(0, 1)], arrivals=3)
    graph = realize(inst, RngStream(1))
    # inclusion probability 1: every stream reports both edges
    for seed in range(20):
        assert list(map(ids_of, random_subgraph([graph], 5, [RngStream(seed)])[0])) == [(0, 1)] * graph.n


def test_random_subgraph_uniform_marginals():
    inst = complete_uniform(10)
    graph = RealizedGraph(inst, (0,))
    base = RngStream(3)
    counts = np.zeros(10)
    trials = 20000
    for masks in random_subgraph([graph] * trials, 3, [base.substream(t) for t in range(trials)]):
        row = ids_of(masks[0])
        assert len(row) == 3
        for r in row:
            counts[r] += 1
    freq = counts / trials
    sigma = math.sqrt(0.3 * 0.7 / trials)
    assert np.all(np.abs(freq - 0.3) < 5 * sigma)


def test_kvv_no_contention_matches_everything():
    inst = exclusive_pairs(8)
    graph = RealizedGraph(inst, tuple(range(8)))
    outcome = kvv_ranking(graph, inst.type_masks(RngStream(5).generator.permutation(inst.resource_count)))
    assert outcome.matched == 8


def test_kvv_competitive_floor_on_families():
    # classic guarantee: mean efficiency at least 1 - 1/e modulo noise
    inst = gen_kvv_triangular(40)
    base = RngStream(17)
    ratios = []
    for t in range(200):
        graph = realize(inst, base.substream(t))
        offline = full_matching(graph).size
        if offline == 0:
            continue
        ranks = base.substream("k", t).generator.permutation(inst.resource_count)
        ratios.append(kvv_ranking(graph, inst.type_masks(ranks)).matched / offline)
    mean = np.mean(ratios)
    stderr = np.std(ratios, ddof=1) / math.sqrt(len(ratios))
    assert mean >= 1 - 1 / math.e - 4 * stderr


def test_kvv_equals_the_row_scan_oracle():
    """Ranking on rank-relabeled type masks matches as many arrivals as the scan
    of every arrival's row under the same rank draw: the four families at
    n=100 (20 realizations) and n=1000 (3), and the bundled trip intervals,
    two of which hold a type with an empty row."""
    base = RngStream(29)
    cases = [(f"{name} {n}", family(n), 20 if n == 100 else 3)
             for n in (100, 1000) for name, family in sorted(FAMILIES.items())]
    trips = bundled_trip_instances()
    assert sum(not inst.row(j) for inst in trips for j in range(inst.type_count)) == 2
    cases += [(f"trips {q}", inst, 20) for q, inst in enumerate(trips)]
    for label, inst, realizations in cases:
        for t in range(realizations):
            graph = realize(inst, base.substream(label, t))
            streams = [base.substream("rank", label, t) for _ in range(2)]
            ranks = streams[0].generator.permutation(inst.resource_count)
            assert kvv_ranking(graph, inst.type_masks(ranks)).matched == kvv_oracle(graph, streams[1]), (label, t)


def test_mgs_single_type_single_resource():
    inst = records_instance(("a",), (DemandType(1.0, (0,)),), arrivals=6)
    x = solution(inst, {(0, 0): 1.0 / 6})
    graph = realize(inst, RngStream(1))
    guidance = CopyMarginals.of_solution(x)
    for outcome in (mgs_oracle(graph, guidance, RngStream(2)),
                    draw_and_score(graph, StrategyConfig("mgs"), RngStream(2), guidance)):
        assert outcome.matched == 1


def test_mgs_with_copy_guidance():
    inst = complete_uniform(8)
    guidance = per_copy_marginals(inst, 30, RngStream(3))
    graph = realize(inst, RngStream(4))
    outcome = draw_and_score(graph, StrategyConfig("mgs"), RngStream(5), guidance)
    assert outcome == mgs_oracle(graph, guidance, RngStream(5))
    assert 0 < outcome.matched <= graph.n


def _weighted_choice_oracle(ids, values, probs, gen, exclude=None):
    """mgs's draw as numpy's weighted choice: the version the cdf lookup replays."""
    if exclude in ids:  # renormalize over the rest
        keep = [p for p, i in enumerate(ids) if i != exclude]
        ids, probs = [ids[p] for p in keep], values[keep] / values[keep].sum()
    return int(ids[gen.choice(len(ids), p=probs)]) if ids else None


def test_mgs_draw_matches_numpy_weighted_choice():
    # Match counts (Monte Carlo guidance) and fractional values (LP guidance),
    # each drawn whole, excluding one of its resources, and excluding none.
    gen = np.random.default_rng(17)
    for case in range(300):
        size = int(gen.integers(1, 40))
        weights = gen.integers(1, 50, size) if case % 2 else gen.random(size) ** 2 + 1e-3
        by_type = group_by_type_oracle({(0, 3 * i): float(w) for i, w in enumerate(weights)})
        choices = {j: (ids, w, choice_cdf(probs)) for j, (ids, w, probs) in by_type.items()}
        guidance, type_weights = CopyMarginals(first=choices, second=choices), by_type[0]
        for exclude in (None, type_weights[0][int(gen.integers(size))], -1):
            for stream_id in range(10):
                ours, ref = RngStream(case, stream_id).generator, RngStream(case, stream_id).generator
                assert (sample_weighted(*second_choices(guidance, 0, exclude), ours)
                        == _weighted_choice_oracle(*type_weights, ref, exclude))
                assert ours.random() == ref.random()  # each drew one uniform, or none


def test_renormalized_cdfs_equal_choice_cdf_of_the_kept_weights():
    # Every exclusion of every entry, on widths past numpy's pairwise-sum
    # blocks of 8 and 128: each row is the float-for-float choice_cdf of the
    # kept weights, padded with inf, and unexcluded rows keep the whole cdf.
    gen = np.random.default_rng(29)
    for width in list(range(1, 20)) + [127, 128, 129, 300]:
        values = gen.integers(1, 50, width).astype(float) if width % 2 else gen.random(width) ** 3 + 1e-3
        cdf = choice_cdf(values / values.sum())
        at = np.concatenate([np.arange(width), [0, width - 1]])
        excluded = np.arange(len(at)) < width
        for row, e, out in zip(strategies._renormalized_cdfs(values, cdf, at, excluded).tolist(), at, excluded):
            keep = np.arange(width) != e
            want = (choice_cdf(values[keep] / values[keep].sum()) + [math.inf]) if out and width > 1 else cdf
            assert row == want, (width, e, out)


def _copy_choices(supports, weights) -> dict:
    """CopyMarginals entries: type j's resources ``supports[j]`` with the leading ``weights[j]``."""
    out = {}
    for j, (support, w) in enumerate(zip(supports, weights)):
        if support:
            w = np.array(w[:len(support)])
            out[j] = (tuple(sorted(support)), w, choice_cdf(w / w.sum()))
    return out


def _check_mgs_batch(inst, guidance, rngs, graphs) -> None:
    """Every trial's suggestions and matches, drawn in one batch, against the
    scalar oracle on the trial's own numpy generator."""
    config = StrategyConfig("mgs")
    for graph, rng, suggestions in zip(graphs, rngs, mgs(graphs, guidance, rngs), strict=True):
        assert suggestions == mgs_suggestions_oracle(inst, guidance, rng)
        assert run_strategy(graph, config, suggestions) == mgs_oracle(graph, guidance, rng)


def test_batched_mgs_equals_the_scalar_oracle_on_generated_guidance():
    # Types without first-copy support (the uniform fallback, several of them
    # in one stream share buffered halves), one-resource and empty rows (no
    # draw), second-copy supports equal to {first} (no second draw) and both
    # copies guided alike, as an LP's support guides them.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        right = draw(st.integers(1, 7))
        rows = draw(st.lists(st.sets(st.integers(0, right - 1), max_size=right).map(sorted), min_size=1, max_size=7))
        weight = st.one_of(st.integers(1, 50).map(float), st.floats(1e-3, 1.0))
        copies = []
        for _ in range(2):
            w = draw(st.lists(weight, min_size=len(rows) + right, max_size=len(rows) + right))
            copies.append(_copy_choices([draw(st.sets(st.sampled_from(row))) if row and draw(st.booleans()) else ()
                                         for row in rows], [w[j:] for j in range(len(rows))]))
        if draw(st.booleans()):
            copies[1] = copies[0]
        arrivals, trials = draw(st.integers(0, 12)), draw(st.integers(1, 6))
        return rows, CopyMarginals(*copies), arrivals, trials, draw(st.sampled_from([0, 7, 2**63 + 5]))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    def check(case):
        rows, guidance, arrivals, trials, seed = case
        hypothesis.assume(any(rows))
        inst = uniform_instance(rows, arrivals)
        rngs = [RngStream(seed).substream("strategy", t, "mgs") for t in range(trials)]
        _check_mgs_batch(inst, guidance, rngs, [realize(inst, RngStream(seed).substream(t)) for t in range(trials)])

    check()


# Found by scanning stream ids 0, 1, 2, ... of each seed for the first three whose
# guidance substream rejects its first draw of choice(49938), the bound below
# 50000 that rejects most often (2^32 mod 49938 = 49606 of 2^32 halves).
LEMIRE_REJECTING = {0: [23982, 32398, 33428], 2**63 + 5: [46147, 89357, 164748]}


@pytest.mark.parametrize("seed", sorted(LEMIRE_REJECTING))
def test_batched_mgs_through_lemire_rejections(seed):
    # Two fallback types over 49938 resources, then a guided one: the rejecting
    # rows take both halves of their first word for type 0, and type 1 draws
    # from their next word while the other rows draw from their buffered half.
    size = 49938
    everything = np.arange(size)
    inst = StochasticInstance([f"r{i}" for i in range(size)], [0, size, 2 * size, 2 * size + 3],
                              np.concatenate([everything, everything, [0, 5, 9]]), [0.5, 0.25, 0.25], 6)
    guidance = CopyMarginals(first=_copy_choices([(), (), (0, 5, 9)], [(), (), [1.0, 2.0, 3.0]]),
                             second=_copy_choices([(1, 3), (), (5,)], [[0.5, 0.5], (), [1.0]]))
    rngs = [RngStream(seed, t) for t in LEMIRE_REJECTING[seed] + list(range(20))]
    for rng in rngs[:3]:
        gen = rng.substream("guidance").generator
        gen.choice(size)
        assert gen.bit_generator.state["has_uint32"] == 0  # both halves of the first word taken
    _check_mgs_batch(inst, guidance, rngs, [realize(inst, RngStream(seed).substream(t)) for t in range(len(rngs))])


def test_run_strategy_full_budget_full_support_equals_offline():
    inst = complete_uniform(12)
    x = solve_expected_lp(inst)
    x = solution(inst, {(j, i): 1.0 / 12 for j in range(12) for i in range(12)})
    samplers = varopt_samplers(inst, x, 12)
    base = RngStream(21)
    for t in range(20):
        graph = realize(inst, base.substream(t))
        offline = full_matching(graph).size
        sparsified = draw_and_score(graph, StrategyConfig("varopt", k=12), base.substream("v", t), samplers)
        assert sparsified.matched == offline


def test_every_strategy_below_offline():
    inst = complete_uniform(20)
    x = monte_carlo_weights(inst, 50, RngStream(23))
    guidance = {"mgs": per_copy_marginals(inst, 50, RngStream(24)), "varopt k=3": varopt_samplers(inst, x, 3)}
    base = RngStream(25)
    for t in range(30):
        graph = realize(inst, base.substream(t))
        offline = full_matching(graph).size
        for cfg in (
            StrategyConfig("kvv"),
            StrategyConfig("mgs"),
            StrategyConfig("random", k=3),
            StrategyConfig("varopt", k=3),
        ):
            outcome = draw_and_score(graph, cfg, base.substream("s", t, cfg.label), guidance.get(cfg.label))
            assert outcome.matched <= offline


def test_sampled_load_is_unbiased_per_resource():
    # composition of arrival randomness and local sampling: the IPW load that
    # arrives at each resource estimates its expected fractional load
    n = 16
    inst, x = spread_solution(n)
    samplers = varopt_samplers(inst, x, 4)
    base = RngStream(29)
    trials = 3000
    load = np.zeros(n)
    graphs = [realize(inst, base.substream(t)) for t in range(trials)]
    rngs = [base.substream("s", t) for t in range(trials)]
    for graph, rng, masks in zip(graphs, rngs, varopt_sparsify(graphs, samplers, rngs)):
        for (_, r), w in varopt_ipw(graph, x, 4, rng, masks).items():
            load[r] += w
    load /= trials
    values = solution_dict(x)
    for i in range(n):
        expected = sum(inst.arrivals * inst.probs[j] * values.get((j, i), 0.0) for j in range(n))
        assert load[i] == pytest.approx(expected, abs=0.08)


def test_random_subgraph_resource_retention_rate():
    # complete uniform: a resource appears in the reported subgraph with
    # probability 1 - (1 - k/n)^n per trial
    n = 12
    k = 3
    inst = complete_uniform(n)
    base = RngStream(31)
    trials = 4000
    present = np.zeros(n)
    graphs = [realize(inst, base.substream(t)) for t in range(trials)]
    for masks in random_subgraph(graphs, k, [base.substream("s", t) for t in range(trials)]):
        touched = {r for mask in masks for r in ids_of(mask)}
        for r in touched:
            present[r] += 1
    expected = 1 - (1 - k / n) ** n
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert np.all(np.abs(present / trials - expected) < 5 * sigma)


def test_varopt_selection_size_tracks_support():
    # |selected| = min(k, support size), not min(k, degree)
    inst = uniform_instance([(0, 1, 2, 3, 4, 5)], arrivals=3)
    x = solution(inst, {(0, 0): 0.1, (0, 2): 0.1, (0, 4): 0.1})
    graph = realize(inst, RngStream(1))
    for row in map(ids_of, varopt_sparsify([graph], varopt_samplers(inst, x, 5), [RngStream(2)])[0]):
        assert len(row) == 3
        assert set(row) <= {0, 2, 4}


def test_random_subgraph_locality():
    inst = complete_uniform(10)
    types_a = (2, 5, 7, 1)
    types_b = (2, 8, 7, 3)  # positions 0 and 2 unchanged
    rng = RngStream(43)
    masks_a = random_subgraph([RealizedGraph(inst, types_a)], 4, [rng])[0]
    masks_b = random_subgraph([RealizedGraph(inst, types_b)], 4, [rng])[0]
    for i in (0, 2):
        assert masks_a[i] == masks_b[i]


def test_strategy_constants_drive_names_and_validation():
    assert STRATEGY_NAMES == ("offline", "kvv", "random", "mgs", "varopt")
    assert BUDGETED == {"random", "varopt"}
    assert GUIDED == {"mgs", "varopt"}


def test_draw_requires_guidance_and_draws_kvv_ranks_as_a_fresh_permutation():
    # mgs and varopt draw nothing without guidance, and kvv's draw for each
    # graph is the type masks relabeled by the permutation of the resources
    # that a fresh generator on its stream draws
    inst = complete_uniform(8)
    graphs = [realize(inst, RngStream(1).substream(t)) for t in range(3)]
    rngs = [RngStream(2).substream(t) for t in range(3)]
    with pytest.raises(ValueError, match="marginals"):
        draw(graphs[:1], StrategyConfig("mgs"), rngs[:1])
    with pytest.raises(ValueError, match="fractional solution"):
        draw([realize(complete_uniform(3), RngStream(1))], StrategyConfig("varopt", k=2), [RngStream(2)])
    masks = list(draw(graphs, StrategyConfig("kvv"), rngs))
    assert len(masks) == len(graphs)
    for t, drawn in enumerate(masks):
        assert drawn == inst.type_masks(RngStream(2).substream(t).generator.permutation(inst.resource_count))


def test_kvv_draw_at_triangular_2000_holds_one_mask_block():
    # Built one trial at a time as the scoring loop reaches them, T = 20 trials'
    # masks peak near one type_masks call's 4.6 MB (5.2 MB), where all of them
    # at once peaked at 16 MB
    import tracemalloc

    inst = gen_kvv_triangular(2000)
    graphs = [realize(inst, RngStream(3).substream(t)) for t in range(20)]
    rngs = [RngStream(4).substream(t) for t in range(20)]
    ranks = RngStream(5).generator.permutation(inst.resource_count)
    tracemalloc.start()
    try:
        inst.type_masks(ranks)
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for masks in draw(graphs, StrategyConfig("kvv"), rngs):
            assert len(masks) == inst.type_count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * one, f"peak {peak / 1e6:.1f} MB, one type_masks call {one / 1e6:.1f} MB"


def test_every_declared_strategy_runs_through_run_strategy():
    # offline is the trial kernel's own maximum matching, and every other
    # strategy is scored by run_strategy
    inst = complete_uniform(8)
    x = solve_expected_lp(inst)
    guidance = {"mgs": CopyMarginals.of_solution(x), "varopt": varopt_samplers(inst, x, 2)}
    graph = realize(inst, RngStream(51))
    offline = full_matching(graph).size
    for name in [name for name in STRATEGY_NAMES if name != "offline"]:
        cfg = StrategyConfig(name, k=2 if name in BUDGETED else None)
        outcome = draw_and_score(graph, cfg, RngStream(52), guidance.get(name))
        assert 0 < outcome.matched <= offline, name
        if name in BUDGETED:
            assert outcome.sparsified_edges <= 2 * graph.n, name


def test_config_order_is_name_then_budget():
    # the report order: by name, then budget, as the key (strategy, k or -1) gave it
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    unbudgeted = sorted(set(STRATEGY_NAMES) - BUDGETED)
    configs = st.one_of(
        st.builds(StrategyConfig, st.sampled_from(unbudgeted)),
        st.builds(StrategyConfig, st.sampled_from(sorted(BUDGETED)), st.integers(1, 50)),
    )

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(configs, unique=True))
    def check(listed):
        assert sorted(listed) == sorted(listed, key=lambda c: (c.strategy, c.k if c.k is not None else -1))

    check()


def assert_coordinator_equals_the_oracle(graph, config, rng, guidance, masks):
    """``masks`` are what ``config``'s sparsifier reports on ``rng``: the kernel's
    pairs on them, and the coordinator's size and edge count, are the oracle's
    on the ascending reported rows."""
    rows = list(map(ids_of, masks))
    expected = hopcroft_karp_oracle(row_graph(rows, graph.instance.resource_count))
    assert bitset_matching(masks, graph.instance.resource_count) == expected
    assert draw_and_score(graph, config, rng, guidance) == StrategyOutcome(expected.size, sum(map(len, rows)))


@pytest.mark.parametrize("k", [3, 5, 10])
def test_coordinator_equals_the_oracle_on_monte_carlo_guided_reports(k):
    base = RngStream(97)
    for name, family in sorted(FAMILIES.items()):
        inst = family(100)
        samplers = varopt_samplers(inst, monte_carlo_weights(inst, 10, base.substream("weights", name)), k)
        for t in range(2):
            graph, rng = realize(inst, base.substream(name, t)), base.substream("s", name, t)
            assert_coordinator_equals_the_oracle(graph, StrategyConfig("random", k=k), rng, None,
                                                 random_subgraph([graph], k, [rng])[0])
            assert_coordinator_equals_the_oracle(graph, StrategyConfig("varopt", k=k), rng, samplers,
                                                 varopt_sparsify([graph], samplers, [rng])[0])


def counted_size_reader(monkeypatch) -> list[int]:
    """Patch the coordinator's size reader to record the report count of each call."""
    calls = []

    def counted(masks, right, most=None):
        calls.append(len(masks))
        return matching_size(masks, right, most)

    monkeypatch.setattr(strategies, "matching_size", counted)
    return calls


def assert_coordinator_equals_the_size_reader(graph, masks):
    expected = StrategyOutcome(matching_size(masks, graph.instance.resource_count), sum(map(int.bit_count, masks)))
    assert _coordinate(graph, masks) == expected


def test_coordinator_equals_the_oracle_on_lp_guided_single_edge_reports(monkeypatch):
    """Every report has one bit, so the coordinator reads the union of the
    reports and never calls the size reader."""
    calls = counted_size_reader(monkeypatch)
    base = RngStream(101)
    for name, family in sorted(FAMILIES.items()):
        inst = family(500)
        samplers = varopt_samplers(inst, solve_expected_lp(inst), 5)
        graph, rng = realize(inst, base.substream(name)), base.substream("s", name)
        masks = varopt_sparsify([graph], samplers, [rng])[0]
        assert all(mask.bit_count() == 1 for mask in masks)
        assert_coordinator_equals_the_oracle(graph, StrategyConfig("varopt", k=5), rng, samplers, masks)
        assert_coordinator_equals_the_size_reader(graph, masks)
    assert calls == []


def one_type_graph(right: int, n: int) -> RealizedGraph:
    """n arrivals of the one type, compatible with each of ``right`` resources."""
    inst = records_instance(tuple(map(str, range(right))), (DemandType(1.0, tuple(range(right))),), n)
    return RealizedGraph(inst, (0,) * n)


@pytest.mark.parametrize("masks, right", [
    ([], 0), ([], 4),  # no arrival
    ([0, 0, 0], 3),  # no report
    ([1, 1, 1], 1), ([4, 0, 4, 2, 0, 1], 3), ([1 << 99, 1 << 3, 1 << 99, 0], 100),  # repeated resources
])
def test_union_rule_equals_the_size_reader_on_one_resource_reports(masks, right, monkeypatch):
    """Reports of at most one resource each take the union rule; one two-resource
    report sends the trial to the size reader, once."""
    calls = counted_size_reader(monkeypatch)
    assert_coordinator_equals_the_size_reader(one_type_graph(right, len(masks)), masks)
    assert calls == []
    if right >= 2:
        masks = [*masks, 0b11]
        assert_coordinator_equals_the_size_reader(one_type_graph(right, len(masks)), masks)
        assert calls == [len(masks)]


def test_union_rule_equals_the_size_reader_on_generated_one_resource_reports(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    calls = counted_size_reader(monkeypatch)
    st = hypothesis.strategies

    @st.composite
    def reports(draw):
        right = draw(st.integers(0, 60))
        one = st.just(0) if right == 0 else st.one_of(st.just(0), st.integers(0, right - 1).map(lambda r: 1 << r))
        return draw(st.lists(one, max_size=80)), right

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(reports())
    def check(report):
        masks, right = report
        assert_coordinator_equals_the_size_reader(one_type_graph(right, len(masks)), masks)

    check()
    assert calls == []


def test_size_reader_equals_the_pair_kernel_on_both_sparsifiers_reports():
    """The coordinator's size reader on random and varopt reports, Monte Carlo
    guided at n=100 and LP guided (one edge an arrival) at n=500, against the
    pair kernel and the oracle on the ascending reported rows."""
    base = RngStream(109)
    for n in (100, 500):
        for name, family in sorted(FAMILIES.items()):
            inst = family(n)
            x = monte_carlo_weights(inst, 10, base.substream("weights", name)) if n == 100 else solve_expected_lp(inst)
            graphs = [realize(inst, base.substream(name, n, t)) for t in range(2)]
            for k in (3, 10):
                rngs = [base.substream("s", name, n, k, t) for t in range(2)]
                for reports in (random_subgraph(graphs, k, rngs), varopt_sparsify(graphs, varopt_samplers(inst, x, k), rngs)):
                    for masks in reports:
                        expected = hopcroft_karp_oracle(row_graph(list(map(ids_of, masks)), n)).size
                        assert matching_size(masks, n) == bitset_matching(masks, n).size == expected


def test_coordinator_with_the_offline_bound_equals_the_unbounded_one_on_both_sparsifiers_reports():
    """The trial kernel bounds the coordinator by the trial's offline size, which
    reports, a subset of the realized edges, cannot exceed: on random and varopt
    reports of the four families (Monte Carlo guided, n=100), the bounded
    coordinator scores what the unbounded one does, and some trials reach the bound."""
    base = RngStream(113)
    reached = 0
    for name, family in sorted(FAMILIES.items()):
        inst = family(100)
        x = monte_carlo_weights(inst, 10, base.substream("weights", name))
        graphs = [realize(inst, base.substream(name, t)) for t in range(4)]
        offline = [full_matching(graph).size for graph in graphs]
        for k in (3, 5, 10):
            rngs = [base.substream("s", name, k, t) for t in range(4)]
            for reports in (random_subgraph(graphs, k, rngs), varopt_sparsify(graphs, varopt_samplers(inst, x, k), rngs)):
                for graph, size, masks in zip(graphs, offline, reports):
                    unbounded = _coordinate(graph, masks)
                    assert _coordinate(graph, masks, size) == unbounded, (name, k)
                    reached += unbounded.matched == size
    assert reached


def test_sub_ulp_completions_at_table_size(monkeypatch):
    # Every VarOpt draw of the four-family table (n=100, T=100, M=100, seed 0)
    # runs in the batch, which calls varopt._complete only for a row whose
    # systematic points collide below an ulp: on the table, no row.
    from sparsematch import varopt
    from sparsematch.harness import ExperimentConfig, run_experiment

    completions = []
    complete = varopt._complete
    monkeypatch.setattr(varopt, "_complete", lambda *args: completions.append(args) or complete(*args))
    budgets = tuple(StrategyConfig("varopt", k=k) for k in (3, 5, 10))
    for family in ("block", "triangular", "bahmani", "tsm"):
        run_experiment(ExperimentConfig(strategies=budgets, family=family, n=100, trials=100, mc=100, seed=0))
    assert len(completions) == 0
