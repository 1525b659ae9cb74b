import numpy as np
import pytest

from helpers import (
    ArrivalOverflow,
    brute_force_matching,
    bundled_trip_instances,
    complete_uniform,
    fractional_scaled_matching,
    full_matching,
    hopcroft_karp_oracle,
    ids_of,
    max_matching_shuffled,
    max_matching_shuffled_oracle,
    random_bipartite,
    realized_edge_list,
    records_instance,
    row_graph,
)
from sparsematch.instance import DemandType, RealizedGraph, StochasticInstance, realize
from sparsematch.matching import (
    BipartiteEdgeList,
    bitset_matching,
    matching_size,
    max_matching,
    partners,
)
from sparsematch.rng import RngStream


def test_edge_list_validation():
    with pytest.raises(ValueError, match="duplicate"):
        BipartiteEdgeList(2, 2, ((0, 0), (0, 0)))
    with pytest.raises(ValueError, match="out of range"):
        BipartiteEdgeList(2, 2, ((0, 2),))


@pytest.mark.parametrize("edge", [(0.9, 1), (True, 0), (0, False), (np.float64(1.0), 0), ("1", 0), (None, 0),
                                  (np.bool_(True), 0), (1.0, 1)])
def test_edge_list_rejects_ids_that_are_not_integers(edge):
    with pytest.raises(ValueError, match="not a pair of integers"):
        BipartiteEdgeList(2, 2, [(0, 0), edge])


def test_edge_list_accepts_python_and_numpy_integers():
    graph = BipartiteEdgeList(2, 3, [(np.int64(1), np.int32(2)), (0, np.uint8(1)), (np.intp(1), 0)])
    assert graph.adjacency == ((1,), (2, 0))
    assert all(type(r) is int for row in graph.adjacency for r in row)


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
        graph = BipartiteEdgeList(left, right, edges)  # rows ascend, as the pairs do
        realization = realization_of_rows(graph.adjacency, right)
        assert max_matching_shuffled(realization, rng.substream(t)).size == max_matching(graph).size


def test_shuffled_single_edge():
    assert max_matching_shuffled(realization_of_rows([(0,)], 1), RngStream(0)).pairs == ((0, 0),)


def test_shuffled_reaches_all_perfect_matchings():
    # complete 3x3: all 6 perfect matchings should occur across 1000 seeds
    graph = RealizedGraph(complete_uniform(3), (0, 1, 2))
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
            yield realized_edge_list(graph).adjacency, inst.resource_count
            for masks in (random_subgraph([graph], 3, [base.substream("random", name, t)])[0],
                          varopt_sparsify([graph], samplers, [base.substream("varopt", name, t)])[0]):
                yield list(map(ids_of, masks)), inst.resource_count


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
        # the same pairs, column by column: the constructor regroups them into rows
        pairs = sorted(((l, r) for l, row in enumerate(rows) for r in row), key=lambda e: (e[1], e[0]))
        edge_graph = BipartiteEdgeList(len(rows), right, pairs)
        assert edge_graph.adjacency == tuple(map(tuple, rows))
        assert max_matching(edge_graph) == hopcroft_karp_oracle(edge_graph)  # the rows ascend
        shuffled = max_matching_shuffled(realization_of_rows(rows, right), base.substream(case)).pairs
        assert shuffled == shuffled_by_edge_pairs(edge_graph, base.substream(case))


def scipy_matching_size(rows, right) -> int:
    """Maximum matching size by scipy's ``maximum_bipartite_matching``."""
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    pairs = [(l, r) for l, row in enumerate(rows) for r in row]
    matrix = sparse.csr_matrix(([1] * len(pairs), ([l for l, _ in pairs], [r for _, r in pairs])),
                               shape=(len(rows), right))
    return int((csgraph.maximum_bipartite_matching(matrix, perm_type="column") >= 0).sum())


def test_row_graph_matching_size_equals_scipy():
    for rows, right in sparsified_and_full_rows():
        assert max_matching(row_graph(rows, right)).size == scipy_matching_size(rows, right)


def row_graphs(st, min_side: int, max_side: int, left_per_right: int = 1, degree: int | None = None):
    """A hypothesis strategy of (rows, right count) with the right side's size in
    [min_side, max_side] and the left side's in [min_side, left_per_right *
    max_side]; each row lists at most ``degree`` (by default any number of)
    distinct right vertices in any order."""

    @st.composite
    def graphs(draw):
        left = draw(st.integers(min_side, left_per_right * max_side))
        right = draw(st.integers(max(min_side, 1), max_side))
        row = st.lists(st.integers(0, right - 1), unique=True, max_size=min(right, degree or right)).map(tuple)
        return draw(st.lists(row, min_size=left, max_size=left)), right

    return graphs()


def assert_valid_matching(rows, pairs):
    assert len({l for l, _ in pairs}) == len({r for _, r in pairs}) == len(pairs)
    assert all(r in rows[l] for l, r in pairs)


def test_hopcroft_karp_equals_brute_force_on_generated_graphs():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(row_graphs(hypothesis.strategies, 0, 8))
    def check(graph):
        rows, right = graph
        result = max_matching(row_graph(rows, right))
        assert_valid_matching(rows, result.pairs)
        edges = [(l, r) for l, row in enumerate(rows) for r in row]
        assert result.size == brute_force_matching(len(rows), right, edges)

    check()


def test_hopcroft_karp_equals_scipy_on_generated_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("scipy.sparse.csgraph")

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(row_graphs(hypothesis.strategies, 17, 60))
    def check(graph):
        rows, right = graph
        result = max_matching(row_graph(rows, right))
        assert_valid_matching(rows, result.pairs)
        assert result.size == scipy_matching_size(rows, right)

    check()


def assert_pairs_equal_the_oracle(rows, right):
    """The kernel on the masks of rows in any order gives the oracle's pairs on the ascending rows."""
    result = bitset_matching([sum(1 << r for r in row) for row in rows], right)
    expected = hopcroft_karp_oracle(row_graph([sorted(row) for row in rows], right))
    assert (result.size, result.pairs) == (expected.size, expected.pairs)


def shuffled_by_oracle(rows, right, rng):
    """``max_matching_shuffled``'s relabeling, solved by the oracle and mapped back."""
    perm_l = rng.generator.permutation(len(rows))
    perm_r = rng.generator.permutation(right).tolist()
    inv_l, inv_r = np.argsort(perm_l).tolist(), np.argsort(perm_r).tolist()
    relabeled = [sorted(perm_r[r] for r in rows[l]) for l in inv_l]
    result = hopcroft_karp_oracle(row_graph(relabeled, right))
    return result.size, tuple(sorted((inv_l[l], inv_r[r]) for l, r in result.pairs))


def assert_shuffled_pairs_equal_the_oracle(rows, right, seed):
    """``max_matching_shuffled`` of the realization whose arrivals' rows are ``rows``."""
    realization = realization_of_rows([tuple(sorted(row)) for row in rows], right)
    result = max_matching_shuffled(realization, RngStream(seed))
    assert (result.size, result.pairs) == shuffled_by_oracle(rows, right, RngStream(seed))


@pytest.mark.parametrize("min_side, max_side, examples", [(0, 8, 300), (17, 60, 100)])
def test_pairs_equal_the_oracle_on_generated_graphs(min_side, max_side, examples):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @hypothesis.given(row_graphs(hypothesis.strategies, min_side, max_side), hypothesis.strategies.integers(0, 2**32))
    def check(graph, seed):
        rows, right = graph
        assert_pairs_equal_the_oracle(rows, right)
        assert_shuffled_pairs_equal_the_oracle(rows, right, seed)

    check()


def test_pairs_equal_the_oracle_on_generated_graphs_with_dead_ends():
    """Left sides up to three times the largest right side, with rows of at most
    three entries, so that many roots are dead ends the kernel's phases drop
    before their search."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(row_graphs(hypothesis.strategies, 4, 40, left_per_right=3, degree=3))
    def check(graph):
        assert_pairs_equal_the_oracle(*graph)

    check()


@pytest.mark.parametrize("left, right", [(0, 0), (0, 4), (4, 0), (3, 3)])
def test_pairs_equal_the_oracle_without_edges(left, right):
    graph, realization = BipartiteEdgeList(left, right, ()), realization_of_rows([()] * left, right)
    assert max_matching(graph) == hopcroft_karp_oracle(graph) == max_matching_shuffled(realization, RngStream(0))
    assert max_matching(graph).pairs == ()
    assert full_matching(realization) == max_matching(graph)


def realization_of_rows(rows, right) -> RealizedGraph:
    """The realization whose arrival l is the only arrival of a type compatible with ``rows[l]``."""
    types = [DemandType(1.0 / len(rows), row) for row in rows] or [DemandType(1.0, ())]
    instance = records_instance(tuple(map(str, range(right))), tuple(types), len(rows))
    return RealizedGraph(instance, tuple(range(len(rows))))


def assert_full_pairs_equal_the_oracle(graph: RealizedGraph):
    result = full_matching(graph)
    expected = hopcroft_karp_oracle(realized_edge_list(graph))
    assert (result.size, result.pairs) == (expected.size, expected.pairs)


@pytest.mark.parametrize("min_side, max_side, examples", [(0, 8, 300), (17, 60, 100)])
def test_full_matching_pairs_equal_the_oracle_on_generated_graphs(min_side, max_side, examples):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @hypothesis.given(row_graphs(hypothesis.strategies, min_side, max_side))
    def check(graph):
        rows, right = graph
        assert_full_pairs_equal_the_oracle(realization_of_rows([tuple(sorted(row)) for row in rows], right))

    check()


def test_full_matching_of_empty_realizations():
    from sparsematch.generators import FAMILIES

    for inst in [family(100) for family in FAMILIES.values()] + bundled_trip_instances():
        empty = realize(StochasticInstance(inst.resources, inst.offsets, inst.ids, inst.probs, 0), RngStream(0))
        assert full_matching(empty) == max_matching(realized_edge_list(empty))
        assert full_matching(empty).size == 0


def test_full_matching_pairs_equal_the_oracle_on_trip_intervals():
    """Every buildable bundled interval, empty-compatibility types included:
    seeded realizations and one arrival of every type."""
    instances = bundled_trip_instances()
    assert any(not t.compatible for inst in instances for t in inst.types)
    base = RngStream(89)
    for j, inst in enumerate(instances):
        assert_full_pairs_equal_the_oracle(RealizedGraph(inst, tuple(range(inst.type_count))))
        for t in range(5):
            assert_full_pairs_equal_the_oracle(realize(inst, base.substream(j, t)))


@pytest.mark.parametrize("n", [100, 500])
def test_pairs_equal_the_oracle_on_family_realizations(n):
    """Full rows and rows cut to their first k entries, of a realization of
    every family, solved plainly and after the shuffled relabeling; the full
    realizations also by ``full_matching``."""
    from sparsematch.generators import FAMILIES

    base = RngStream(83)
    for name, family in sorted(FAMILIES.items()):
        inst = family(n)
        for t in range(3 if n == 100 else 1):
            assert_full_pairs_equal_the_oracle(realize(inst, base.substream(name, n, t)))
        realization = realize(inst, base.substream(name, n))
        for cut in (None, 3, 5):
            rows = [inst.row(j)[:cut] for j in realization.type_ids]
            assert_pairs_equal_the_oracle(rows, inst.resource_count)
            if n == 100:
                assert_shuffled_pairs_equal_the_oracle(rows, inst.resource_count, n + (cut or 0))


@pytest.mark.parametrize("n", [500, 2000])
def test_pairs_equal_the_oracle_on_block_realizations(n):
    """The family where most of the kernel's searches fail: full rows and rows
    cut to their first k entries, in arrival order and in the trial kernel's
    ascending degree."""
    from sparsematch.generators import FAMILIES

    inst = FAMILIES["block"](n)
    realization = realize(inst, RngStream(113).substream(n))
    for cut in (None, 3, 5, 10):
        rows = [inst.row(j)[:cut] for j in realization.type_ids]
        assert_pairs_equal_the_oracle(rows, inst.resource_count)
        assert_pairs_equal_the_oracle(sorted(rows, key=len), inst.resource_count)


@pytest.mark.parametrize("n", [100, 1000])
def test_shuffled_pairs_equal_the_bit_by_bit_oracle_on_families(n):
    """The type masks relabeled in numpy give the pairs of every arrival's mask
    built bit by bit, on realizations of every family."""
    from sparsematch.generators import FAMILIES

    base = RngStream(97)
    for name, family in sorted(FAMILIES.items()):
        inst = family(n)
        for t in range(3 if n == 100 else 1):
            graph, key = realize(inst, base.substream(name, n, t)), ("shuffle", name, n, t)
            assert max_matching_shuffled(graph, base.substream(*key)) == max_matching_shuffled_oracle(
                graph, base.substream(*key))


def test_shuffled_pairs_equal_the_bit_by_bit_oracle_on_trip_intervals():
    base = RngStream(101)
    for j, inst in enumerate(bundled_trip_instances()):
        for t in range(3):
            graph = realize(inst, base.substream(j, t))
            assert max_matching_shuffled(graph, base.substream("shuffle", j, t)) == max_matching_shuffled_oracle(
                graph, base.substream("shuffle", j, t))


def assert_size_equals_the_pair_kernel(masks, right):
    """The size reader gives the size of the pair kernel on the same masks and
    of the oracle on the ascending rows, in the given order and in the trial
    kernel's ascending degree."""
    expected = hopcroft_karp_oracle(row_graph(list(map(ids_of, masks)), right)).size
    assert matching_size(masks, right) == bitset_matching(masks, right).size == expected
    assert matching_size(sorted(masks, key=int.bit_count), right) == expected


@pytest.mark.parametrize("n", [100, 500])
def test_size_reader_equals_the_pair_kernel_on_family_realizations(n):
    """Every family's realizations, as the arrivals' type masks."""
    from sparsematch.generators import FAMILIES

    base = RngStream(103)
    for name, family in sorted(FAMILIES.items()):
        inst = family(n)
        for t in range(3 if n == 100 else 1):
            graph = realize(inst, base.substream(name, n, t))
            masks = [inst._compat_masks[j] for j in graph.type_ids]
            assert_size_equals_the_pair_kernel(masks, inst.resource_count)


def test_size_reader_equals_the_pair_kernel_on_trip_intervals():
    base = RngStream(107)
    for i, inst in enumerate(bundled_trip_instances()):
        graphs = [RealizedGraph(inst, tuple(range(inst.type_count)))]
        graphs += [realize(inst, base.substream(i, t)) for t in range(3)]
        for graph in graphs:
            assert_size_equals_the_pair_kernel([inst._compat_masks[j] for j in graph.type_ids], inst.resource_count)


@pytest.mark.parametrize("masks, right", [([], 0), ([0, 0], 0), ([], 5), ([0, 0, 0], 3), ([0, 1, 0], 1)])
def test_size_reader_without_edges_or_vertices(masks, right):
    assert_size_equals_the_pair_kernel(masks, right)


@pytest.mark.parametrize("max_side, examples", [(8, 300), (60, 100)])
def test_size_reader_equals_the_pair_kernel_on_generated_masks(max_side, examples):
    """Masks of any density, empty rows, no left vertex and ``right == 0`` included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        right = draw(st.integers(0, max_side))
        return draw(st.lists(st.integers(0, (1 << right) - 1), max_size=max_side)), right

    @hypothesis.settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @hypothesis.given(graphs())
    def check(graph):
        assert_size_equals_the_pair_kernel(*graph)

    check()


@pytest.mark.parametrize("max_side, examples", [(8, 300), (60, 100)])
def test_bounded_size_reader_on_generated_masks(max_side, examples):
    """``matching_size(masks, right, most)`` is the unbounded size whenever
    ``most`` is at least that size, and at least ``most`` otherwise; the bounded
    ``partners`` is a matching on the masks' edges either way."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        right = draw(st.integers(0, max_side))
        masks = draw(st.lists(st.integers(0, (1 << right) - 1), max_size=max_side))
        return masks, right, draw(st.integers(0, max_side + 1))

    @hypothesis.settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @hypothesis.given(graphs())
    def check(graph):
        masks, right, most = graph
        size, bounded = matching_size(masks, right), matching_size(masks, right, most)
        assert bounded == size if most >= size else most <= bounded <= size
        pair_l = partners(masks, right, most)
        matched = [(l, r) for l, r in enumerate(pair_l) if r != -1]
        assert len(matched) == bounded
        assert all(masks[l] >> r & 1 for l, r in matched)
        assert len({r for _, r in matched}) == len(matched)

    check()


def counted_masks(rows):
    """The rows' bitmasks in a list that counts how often the matcher reads one."""
    reads = [0]

    class Masks(list):
        def __getitem__(self, l):
            reads[0] += 1
            return super().__getitem__(l)

        def __iter__(self):
            return map(self.__getitem__, range(len(self)))

    return Masks(sum(1 << r for r in row) for row in rows), reads


@pytest.mark.parametrize("rows, right, expected_reads", [
    # every row read once by the greedy pass, which matches all of them
    ([(0, 1), (1, 2), (2,)], 3, 3),
    # no edge: the greedy pass reads each row and matches none, so the search never starts
    ([(), (), ()], 2, 3),
    # a star: the greedy pass, then one search that finds no augmenting path and
    # reads the two free rows and the matched one they reach
    ([(0,), (0,), (0,)], 1, 6),
])
def test_first_phase_reads_each_row_once(rows, right, expected_reads):
    counted, reads = counted_masks(rows)
    result = bitset_matching(counted, right)
    assert result == hopcroft_karp_oracle(row_graph(rows, right))
    assert reads[0] == expected_reads


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
    from helpers import complete_uniform, solution, varopt_ipw
    from sparsematch.strategies import varopt_samplers, varopt_sparsify

    n = 50
    inst = complete_uniform(n)
    x = solution(inst, {(j, i): 1.0 / n for j in range(n) for i in range(n)})
    samplers = varopt_samplers(inst, x, 5)
    base = RngStream(67)
    fractional, integral = [], []
    graphs = [realize(inst, base.substream(t)) for t in range(500)]
    rngs = [base.substream("s", t) for t in range(500)]
    for graph, rng, masks in zip(graphs, rngs, varopt_sparsify(graphs, samplers, rngs)):
        ipw = varopt_ipw(graph, x, 5, rng, masks)
        subgraph = row_graph(list(map(ids_of, masks)), n)
        report = fractional_scaled_matching(subgraph, ipw)
        size = max_matching(subgraph).size
        assert report.scaled_value <= size + 1e-9
        fractional.append(report.scaled_value)
        integral.append(size)
    assert np.mean(fractional) <= np.mean(integral) + 1e-9
