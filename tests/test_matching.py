import numpy as np
import pytest

from helpers import (
    ArrivalOverflow,
    brute_force_matching,
    complete_uniform,
    fractional_scaled_matching,
    random_bipartite,
)
from sparsematch.instance import RealizedGraph, realize
from sparsematch.matching import (
    BipartiteEdgeList,
    full_edge_list,
    max_matching,
    max_matching_shuffled,
)
from sparsematch.rng import RngStream


def test_edge_list_validation():
    with pytest.raises(ValueError, match="duplicate"):
        BipartiteEdgeList(2, 2, ((0, 0), (0, 0)))
    with pytest.raises(ValueError, match="out of range"):
        BipartiteEdgeList(2, 2, ((0, 2),))


def test_upper_triangular_is_perfect():
    edges = tuple((l, r) for l in range(3) for r in range(l, 3))
    result = max_matching(BipartiteEdgeList(3, 3, edges))
    assert result.size == 3
    assert {l for l, _ in result.pairs} == {0, 1, 2}


def test_star_matches_one():
    edges = tuple((0, r) for r in range(5))
    result = max_matching(BipartiteEdgeList(1, 5, edges))
    assert result.size == 1


def test_matching_pairs_are_disjoint():
    gen = np.random.default_rng(3)
    edges = tuple(random_bipartite(gen, 30, 30, 0.15))
    result = max_matching(BipartiteEdgeList(30, 30, edges))
    lefts = [l for l, _ in result.pairs]
    rights = [r for _, r in result.pairs]
    assert len(set(lefts)) == len(lefts) == result.size
    assert len(set(rights)) == len(rights)
    assert set(result.pairs) <= set(edges)


def test_equals_brute_force_on_small_graphs():
    gen = np.random.default_rng(11)
    for _ in range(200):
        left = int(gen.integers(1, 8))
        right = int(gen.integers(1, 8))
        edges = tuple(random_bipartite(gen, left, right, 0.4))
        got = max_matching(BipartiteEdgeList(left, right, edges)).size
        assert got == brute_force_matching(left, right, edges)


def test_empty_graph():
    assert max_matching(BipartiteEdgeList(0, 0, ())).size == 0
    assert max_matching(BipartiteEdgeList(3, 3, ())).size == 0


def test_monotone_in_edges():
    gen = np.random.default_rng(19)
    edges = random_bipartite(gen, 12, 12, 0.2)
    graph = BipartiteEdgeList(12, 12, tuple(edges))
    base = max_matching(graph).size
    extra = [(l, r) for l in range(12) for r in range(12) if (l, r) not in set(edges)]
    grown = max_matching(BipartiteEdgeList(12, 12, tuple(edges + extra[:20]))).size
    assert grown >= base


def test_shuffled_preserves_size():
    gen = np.random.default_rng(23)
    rng = RngStream(7)
    for t in range(50):
        left = int(gen.integers(1, 12))
        right = int(gen.integers(1, 12))
        edges = tuple(random_bipartite(gen, left, right, 0.3))
        graph = BipartiteEdgeList(left, right, edges)
        assert max_matching_shuffled(graph, rng.substream(t)).size == max_matching(graph).size


def test_shuffled_single_edge():
    graph = BipartiteEdgeList(1, 1, ((0, 0),))
    assert max_matching_shuffled(graph, RngStream(0)).pairs == ((0, 0),)


def test_shuffled_reaches_all_perfect_matchings():
    # complete 3x3: all 6 perfect matchings should occur across 1000 seeds
    graph = BipartiteEdgeList(3, 3, tuple((l, r) for l in range(3) for r in range(3)))
    base = RngStream(101)
    seen = set()
    for t in range(1000):
        result = max_matching_shuffled(graph, base.substream(t))
        seen.add(tuple(sorted(result.pairs)))
    assert len(seen) == 6


def sparsified_and_full_rows():
    """(rows, right count) of full realizations of every family at n=20 and of
    the rows the random and varopt sparsifiers report on them."""
    from sparsematch.generators import FAMILIES
    from sparsematch.strategies import random_subgraph, varopt_samplers, varopt_sparsify
    from sparsematch.weights import monte_carlo_weights

    base = RngStream(71)
    for name, family in sorted(FAMILIES.items()):
        inst = family(20)
        samplers = varopt_samplers(inst, monte_carlo_weights(inst, 10, base.substream("weights", name)), 3)
        for t in range(3):
            graph = realize(inst, base.substream(name, t))
            yield full_edge_list(graph).adjacency, inst.resource_count
            yield random_subgraph(graph, 3, base.substream("random", name, t)), inst.resource_count
            yield varopt_sparsify(graph, samplers, base.substream("varopt", name, t)), inst.resource_count


def shuffled_by_edge_pairs(graph, rng):
    """Randomized tie-breaking through edge pairs: relabel both sides, sort the
    relabeled pairs, solve and map back."""
    perm_l = rng.generator.permutation(graph.left_count)
    perm_r = rng.generator.permutation(graph.right_count)
    relabeled = sorted((int(perm_l[l]), int(perm_r[r])) for l, r in graph.edges)
    result = max_matching(BipartiteEdgeList(graph.left_count, graph.right_count, relabeled))
    inv_l, inv_r = np.argsort(perm_l), np.argsort(perm_r)
    return tuple(sorted((int(inv_l[l]), int(inv_r[r])) for l, r in result.pairs))


def test_row_graph_matches_like_edge_graph():
    base = RngStream(5)
    for case, (rows, right) in enumerate(sparsified_and_full_rows()):
        row_graph = BipartiteEdgeList.from_rows(right, rows)
        # the same pairs, column by column: the constructor regroups them into rows
        pairs = sorted(((l, r) for l, row in enumerate(rows) for r in row), key=lambda e: (e[1], e[0]))
        edge_graph = BipartiteEdgeList(len(rows), right, pairs)
        assert edge_graph.adjacency == tuple(map(tuple, rows))
        assert max_matching(row_graph).pairs == max_matching(edge_graph).pairs
        shuffled = max_matching_shuffled(row_graph, base.substream(case)).pairs
        assert shuffled == max_matching_shuffled(edge_graph, base.substream(case)).pairs
        assert shuffled == shuffled_by_edge_pairs(edge_graph, base.substream(case))


def test_row_graph_matching_size_equals_scipy():
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    for rows, right in sparsified_and_full_rows():
        pairs = [(l, r) for l, row in enumerate(rows) for r in row]
        matrix = sparse.csr_matrix(([1] * len(pairs), ([l for l, _ in pairs], [r for _, r in pairs])),
                                   shape=(len(rows), right))
        expected = int((csgraph.maximum_bipartite_matching(matrix, perm_type="column") >= 0).sum())
        assert max_matching(BipartiteEdgeList.from_rows(right, rows)).size == expected


def test_full_edge_list_of_realization():
    inst = complete_uniform(4)
    graph = RealizedGraph(inst, (0, 2, 1))
    el = full_edge_list(graph)
    assert el.left_count == 3
    assert el.right_count == 4
    assert len(el.edges) == 12
    # the rows are the instance's own compatibility tuples
    assert all(row is inst.types[j].compatible for row, j in zip(el.adjacency, graph.type_ids))


def test_fractional_scaling_arithmetic():
    # two arrivals send 0.6 each to one resource: excess 0.2, value 1.0
    graph = BipartiteEdgeList(2, 1, ((0, 0), (1, 0)))
    report = fractional_scaled_matching(graph, {(0, 0): 0.6, (1, 0): 0.6})
    assert report.per_resource_load[0] == pytest.approx(1.2, abs=1e-12)
    assert report.excess == pytest.approx(0.2, abs=1e-12)
    assert report.scaled_value == pytest.approx(1.0, abs=1e-12)


def test_fractional_scaling_no_excess():
    graph = BipartiteEdgeList(2, 2, ((0, 0), (1, 1)))
    report = fractional_scaled_matching(graph, {(0, 0): 0.8, (1, 1): 0.9})
    assert report.excess == 0.0
    assert report.scaled_value == pytest.approx(1.7, abs=1e-12)
    total = sum(report.per_resource_load.values())
    assert report.scaled_value == pytest.approx(total - report.excess, abs=1e-9)


def test_arrival_overflow_detected():
    graph = BipartiteEdgeList(1, 2, ((0, 0), (0, 1)))
    with pytest.raises(ArrivalOverflow):
        fractional_scaled_matching(graph, {(0, 0): 0.7, (0, 1): 0.5})


def test_missing_weight_rejected():
    graph = BipartiteEdgeList(1, 1, ((0, 0),))
    with pytest.raises(ValueError, match="no weight"):
        fractional_scaled_matching(graph, {})


def test_fractional_value_never_exceeds_integral_matching():
    # IPW-weighted sparsified subgraphs: the scaled fractional value is a lower
    # bound for the maximum matching on every single trial, and in the mean
    from helpers import complete_uniform, varopt_ipw
    from sparsematch.strategies import varopt_samplers, varopt_sparsify
    from sparsematch.weights import FractionalSolution

    n = 50
    inst = complete_uniform(n)
    x = FractionalSolution.build(inst, {(j, i): 1.0 / n for j in range(n) for i in range(n)})
    samplers = varopt_samplers(inst, x, 5)
    base = RngStream(67)
    fractional, integral = [], []
    for t in range(500):
        graph = realize(inst, base.substream(t))
        rng = base.substream("s", t)
        rows = varopt_sparsify(graph, samplers, rng)
        ipw = varopt_ipw(graph, x, 5, rng, rows)
        subgraph = BipartiteEdgeList.from_rows(n, rows)
        report = fractional_scaled_matching(subgraph, ipw)
        size = max_matching(subgraph).size
        assert report.scaled_value <= size + 1e-9
        fractional.append(report.scaled_value)
        integral.append(size)
    assert np.mean(fractional) <= np.mean(integral) + 1e-9
