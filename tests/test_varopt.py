import math

import numpy as np
import pytest

from helpers import (VarOptSampler, batch, batch_items, bisect_threshold, ids_of, light_row, one_block_at_a_time,
                     stacked, support_of, varopt_draw_oracle, varopt_draws, varopt_threshold_oracle)
from sparsematch import varopt
from sparsematch.generators import FAMILIES
from sparsematch.rng import RngStream, StreamRows, substream_ids
from sparsematch.strategies import varopt_samplers
from sparsematch.weights import monte_carlo_weights, solve_expected_lp

ABC_IDS = [0, 1, 2]
ABC_WEIGHTS = [0.5, 0.3, 0.2]


def test_threshold_worked_example():
    sampler = VarOptSampler(ABC_IDS, ABC_WEIGHTS, k=2)
    probs = sampler.probabilities()
    assert sampler.threshold == pytest.approx(2.0, abs=1e-12)
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    assert probs[1] == pytest.approx(0.6, abs=1e-12)
    assert probs[2] == pytest.approx(0.4, abs=1e-12)


def test_threshold_matches_bisection_oracle():
    gen = np.random.default_rng(91)
    for trial in range(300):
        size = int(gen.integers(1, 40))
        weights = gen.random(size) * gen.choice([0.1, 1.0, 10.0])
        weights[gen.random(size) < 0.15] = 0.0
        if not (weights > 0).any():
            weights[0] = 0.5
        k = int(gen.integers(1, 15))
        probs = VarOptSampler(range(size), weights, k).probabilities()
        positive = weights[weights > 0]
        target = min(k, len(positive))
        if k < len(positive):
            tau_oracle = bisect_threshold(weights, k)
            for i, w in enumerate(weights):
                assert probs[i] == pytest.approx(min(1.0, tau_oracle * w), abs=1e-8)
        assert sum(probs.values()) == pytest.approx(target, abs=1e-9)
        assert all(probs[i] == 0.0 for i, w in enumerate(weights) if w == 0)


def test_budget_exceeding_items():
    probs = VarOptSampler([0, 1], [0.7, 0.1], k=5).probabilities()
    assert probs == {0: 1.0, 1: 1.0}


def test_uniform_weights_symmetry():
    # symmetry forces tau = k and pi = k/n
    n = 10
    sampler = VarOptSampler(range(n), [1.0 / n] * n, k=4)
    probs = sampler.probabilities()
    assert sampler.threshold == pytest.approx(4.0, rel=1e-12)
    assert all(p == pytest.approx(0.4, abs=1e-12) for p in probs.values())


def test_all_zero_weights_raises():
    with pytest.raises(ValueError, match="all item weights are zero"):
        VarOptSampler([0, 1], [0.0, 0.0], k=1)
    with pytest.raises(ValueError, match="all item weights are zero"):
        VarOptSampler([0], [0.0], 1)


def test_draw_contains_deterministic_item_and_preserves_weight_sum():
    sampler = VarOptSampler(ABC_IDS, ABC_WEIGHTS, 2)
    probs = sampler.probabilities()
    for sample in varopt_draws([sampler] * 200, RngStream(3)):
        assert len(sample) == 2
        assert 0 in sample  # pi = 1
        assert sum(ABC_WEIGHTS[i] / probs[i] for i in sample) == pytest.approx(1.0, abs=1e-9)


def test_single_item():
    sampler = VarOptSampler([5], [0.37], 1)
    assert varopt_draws([sampler], RngStream(1)) == [(5,)]
    assert sampler.probabilities() == {5: 1.0}  # so its IPW weight is 0.37 itself


def test_marginal_frequencies_match_probabilities():
    # 100000 draws of {0.5, 0.3, 0.2} at k=2: frequencies within 0.005 of (1, 0.6, 0.4)
    sampler = VarOptSampler([0, 1, 2], [0.5, 0.3, 0.2], k=2)
    counts = np.zeros(3)
    trials = 100000
    for sample in varopt_draws([sampler] * trials, RngStream(17)):
        for item in sample:
            counts[item] += 1
    freq = counts / trials
    assert freq[0] == pytest.approx(1.0, abs=1e-12)
    assert freq[1] == pytest.approx(0.6, abs=0.005)
    assert freq[2] == pytest.approx(0.4, abs=0.005)


def test_subset_sum_estimates():
    rng = RngStream(23)
    weights = [0.5, 0.3, 0.2]
    sampler = VarOptSampler([0, 1, 2], weights, k=2)
    probs = sampler.probabilities()

    def estimate_subset_sum(sample, subset):
        return sum(weights[i] / probs[i] for i in sample if i in subset)

    trials = 100000
    samples = varopt_draws([sampler] * trials, rng)
    assert estimate_subset_sum(samples[0], {0, 1, 2}) == pytest.approx(1.0, abs=1e-9)
    assert estimate_subset_sum(samples[0], set()) == 0.0
    total = sum(estimate_subset_sum(sample, {1}) for sample in samples)
    assert total / trials == pytest.approx(0.3, abs=0.005)


def test_exact_size_and_weight_sum_over_random_vectors():
    gen = np.random.default_rng(5)
    rng = RngStream(29)
    for case in range(300):
        size = int(gen.integers(1, 50))
        weights = gen.random(size)
        weights[gen.random(size) < 0.2] = 0.0
        if not (weights > 0).any():
            weights[int(gen.integers(size))] = 0.3
        k = int(gen.integers(1, 20))
        positive = int((weights > 0).sum())
        sampler = VarOptSampler(range(size), weights, k)
        probs = sampler.probabilities()
        sample, = varopt_draws([sampler], rng.substream(case))
        assert len(sample) == min(k, positive)
        assert all(weights[i] > 0 for i in sample)
        assert sum(weights[i] / probs[i] for i in sample) == pytest.approx(float(weights.sum()), abs=1e-9)


def test_inclusion_probability_lower_bound():
    gen = np.random.default_rng(31)
    for _ in range(200):
        size = int(gen.integers(2, 40))
        weights = gen.random(size) + 1e-3
        k = int(gen.integers(1, 12))
        probs = VarOptSampler(range(size), weights, k).probabilities()
        total = weights.sum()
        for i, w in enumerate(weights):
            assert probs[i] >= min(1.0, k * w / total) - 1e-9


def test_heavy_items_always_included():
    sampler = VarOptSampler([0, 1, 2, 3], [5.0, 1.0, 0.1, 0.05], k=2)
    heavy = [i for i, p in sampler.probabilities().items() if p >= 1.0]
    assert heavy
    for sample in varopt_draws([sampler] * 500, RngStream(37)):
        assert set(heavy) <= set(sample)


def test_pairwise_covariance_nonpositive():
    # light items of {0.5, 0.3, 0.2} at k=2 plus a second, spread vector
    cases = [
        ([0.5, 0.3, 0.2], 2),
        ([0.25, 0.2, 0.2, 0.15, 0.1, 0.1], 3),
    ]
    for weights, k in cases:
        sampler = VarOptSampler(range(len(weights)), weights, k)
        probs = sampler.probabilities()
        light = [i for i, p in probs.items() if p < 1.0]
        trials = 100000
        hits = np.zeros(len(weights))
        joint = np.zeros((len(weights), len(weights)))
        for included in varopt_draws([sampler] * trials, RngStream(41)):
            for a in included:
                hits[a] += 1
                for b in included:
                    if a < b:
                        joint[a][b] += 1
        for ai in range(len(light)):
            for bi in range(ai + 1, len(light)):
                a, b = light[ai], light[bi]
                pa, pb = hits[a] / trials, hits[b] / trials
                pab = joint[min(a, b)][max(a, b)] / trials
                cov = pab - pa * pb
                slack = 4 * math.sqrt(pa * pb / trials)
                assert cov <= slack


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        VarOptSampler([0], [-0.1], k=1)
    with pytest.raises(ValueError):
        VarOptSampler([0, 0], [0.1, 0.2], k=1)
    with pytest.raises(ValueError):
        VarOptSampler([0], [0.1], k=0)
    with pytest.raises(ValueError, match="unique and >= 0"):  # a bit of the fixed mask, or the draw's -1 pad
        VarOptSampler([-1, 2], [0.1, 0.2], k=1)


def test_sampler_properties_on_generated_weights():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weight = st.one_of(st.sampled_from([0.0, 0.1, 1 / 3, 7.0, 1e-12, 1e-9]),
                       st.floats(min_value=1e-12, max_value=1e6))
    weight_lists = st.lists(weight, min_size=1, max_size=40).filter(lambda ws: max(ws) > 0)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(weight_lists, st.integers(1, 25), st.integers(0, 2**32 - 1))
    def check(weights, k, seed):
        sampler = VarOptSampler(range(len(weights)), weights, k)
        probs = sampler.probabilities()
        top = max(weights)
        # The oracle's tolerance on tau is absolute, so it solves the scaled weights.
        tau = bisect_threshold([w / top for w in weights], k)
        for i, w in enumerate(weights):
            assert probs[i] == pytest.approx(min(1.0, tau * w / top), abs=1e-9)
        size = min(k, sum(w > 0 for w in weights))
        assert sum(probs.values()) == pytest.approx(size, abs=1e-9)
        sample, = varopt_draws([sampler], RngStream(seed))
        assert len(sample) == size
        assert list(sample) == sorted(set(sample))
        assert all(weights[i] > 0 for i in sample)
        total = sum(weights)
        assert sum(weights[i] / probs[i] for i in sample) == pytest.approx(total, abs=1e-9 * max(1.0, total))

    check()


def assert_batch_equals_the_scalar_solve(batch, rows, k):
    # Every row of the batch against the scalar solve of its own item set, to
    # the bit: threshold, ids and probabilities in solution order, the fixed
    # ids as a mask, the draw count and the light ids and probabilities.
    row, ids, probs, _ = varopt._solve(*batch_items(rows), k)
    for q, (item_ids, weights) in enumerate(rows):
        if not any(w > 0 for w in weights):
            assert (batch.fixed_masks[q], batch.draws[q], batch.lengths[q]) == (0, 0, 0)
            assert np.isnan(batch.thresholds[q])
            continue
        threshold, pos_ids, pos_probs = varopt_threshold_oracle(item_ids, weights, k)
        fixed = [i for i, p in zip(pos_ids, pos_probs) if p >= 1.0]
        assert batch.thresholds[q] == threshold
        assert (ids[row == q].tolist(), probs[row == q].tolist()) == (pos_ids, pos_probs)
        assert batch.fixed_masks[q] == sum(1 << i for i in fixed)
        assert batch.draws[q] == min(k, len(pos_ids)) - len(fixed)
        assert light_row(batch, q) == ([i for i, p in zip(pos_ids, pos_probs) if p < 1.0],
                                       [p for p in pos_probs if p < 1.0])


def test_batched_threshold_solve_matches_the_scalar_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weight = st.one_of(st.sampled_from([0.0, 0.1, 1 / 3, 7.0, 1e-12, 1e-9]),  # ties, zeros and tiny weights
                       st.floats(min_value=1e-12, max_value=1e6))
    row = st.lists(weight, max_size=40).flatmap(
        lambda ws: st.tuples(st.permutations(range(0, 3 * len(ws), 3)), st.just(ws)))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(row, max_size=12), st.integers(1, 45))
    def check(rows, k):
        assert_batch_equals_the_scalar_solve(batch(rows, k), rows, k)
        for item_ids, weights in rows:  # the checked one-set form reads its row of the same solve
            if any(w > 0 for w in weights):
                sampler = VarOptSampler(item_ids, weights, k)
                assert_batch_equals_the_scalar_solve(sampler, [(item_ids, weights)], k)
                threshold, pos_ids, pos_probs = varopt_threshold_oracle(item_ids, weights, k)
                assert sampler.threshold == threshold
                assert sampler.probabilities() == {**dict.fromkeys(item_ids, 0.0), **dict(zip(pos_ids, pos_probs))}

    check()


@pytest.mark.parametrize("source", ["lp", "montecarlo"])
def test_family_guidance_rows_equal_the_scalar_solve(source):
    # The four families' guidance, as the table (Monte Carlo, n=100) and the
    # large-n runs (LP, n=500) learn it at seed 0: every type's row, with the
    # uniform fallback of types without support.
    for name, family in sorted(FAMILIES.items()):
        inst = family(500 if source == "lp" else 100)
        x = (solve_expected_lp(inst) if source == "lp"
             else monte_carlo_weights(inst, 100, RngStream(0).substream("weights")))
        rows = []
        for type_id, demand_type in enumerate(inst.types):
            ids, values = support_of(x, type_id)
            fallback = demand_type.compatible
            rows.append((ids, values) if ids else (fallback, [1.0 / len(fallback)] * len(fallback)))
        for k in (3, 5, 10):
            assert_batch_equals_the_scalar_solve(varopt_samplers(inst, x, k), rows, k)


def _table_like_samplers():
    # Supports of 35-61 items at k = 3, 5, 10 are the four-family table's; the
    # small ones, the heavy items and the ties reach the other branches.
    gen = np.random.default_rng(2024)
    for case in range(240):
        size = int(gen.choice([2, 5, 12, 35, 48, 61]))
        weights = gen.random(size) ** 3
        weights[gen.random(size) < 0.1] = 0.0
        weights[gen.random(size) < 0.1] = 0.25  # ties
        weights[0] = 5.0 * (case % 3 == 0) + 0.5  # a heavy item in a third of the cases
        sampler = VarOptSampler(gen.permutation(size) * 3, weights, int(gen.choice([3, 5, 10])))
        yield sampler, RngStream(int(gen.integers(2**64, dtype=np.uint64)), case)


def test_draw_matches_the_array_oracle():
    # Fifty arrivals of every sampler above, drawn as varopt_sparsify draws
    # them: a sampler that draws nothing reports its fixed ids, as the oracle does.
    draws = fixed = 0
    for sampler, rng in _table_like_samplers():
        fixed += sampler.draws[0] <= 0
        samples = varopt_draws([sampler] * 50, rng)
        for i, sample in enumerate(samples):
            assert sample == varopt_draw_oracle(sampler, rng.substream("arrival", i))
            draws += 1
    assert fixed
    assert draws >= 10_000


@pytest.mark.parametrize("one_block", [False, True])
def test_batch_rows_match_draw(one_block, monkeypatch):
    # Sixty arrivals of every drawing sampler above, and of uniform supports of
    # 2 and 3 items and of lengths just above a power of two (rejection-heavy),
    # in one batch: each row's ids against the array oracle's draw on its own
    # stream; with one block at a time, every row runs past its words.
    if one_block:
        one_block_at_a_time(monkeypatch)
    uniform = [(VarOptSampler(range(size), np.ones(size), k), RngStream(2**63 + size, k))
               for size in (2, 3, 5, 9, 17, 33, 65) for k in (1, 3, 10) if k < size]
    cases = [(s, rng) for s, rng in [*_table_like_samplers(), *uniform] if s.draws[0] > 0]
    which, arrivals = np.repeat(np.arange(len(cases)), 60), np.tile(np.arange(60), len(cases))
    seeds = np.array([rng.seed for _, rng in cases], dtype=np.uint64)[which]
    parents = np.array([rng.stream_id for _, rng in cases], dtype=np.uint64)[which]
    rows = stacked([s for s, _ in cases]).draw(which, StreamRows(seeds, substream_ids(parents, "arrival", arrivals)))
    for q, i, light in zip(which.tolist(), arrivals.tolist(), rows.tolist()):
        sampler, rng = cases[q]
        light = [x for x in light if x >= 0]
        assert len(light) == sampler.draws[0]
        assert tuple(sorted(ids_of(sampler.fixed_mask) + tuple(light))) == varopt_draw_oracle(sampler, rng.substream("arrival", i))
    assert len(rows) >= 10_000


class _FixedDraws:
    """A stream whose generator draws the permutation ``perm`` and the uniform ``u``."""

    def __init__(self, perm: np.ndarray, u: float):
        self.generator = self
        self.perm, self.u = perm, u

    def permutation(self, n: int) -> np.ndarray:
        return self.perm.copy()

    def random(self) -> float:
        return self.u


class _ForcedRows(StreamRows):
    """Rows whose uniforms are all ``u``; ``perms`` is what ``permutation``
    drew, or, if given, what it returns."""

    def __init__(self, u: float, n: int, perms: np.ndarray | None = None):
        super().__init__(np.zeros(n, dtype=np.uint64), np.arange(n, dtype=np.uint64))
        self.u, self.perms = u, perms

    def permutation(self, lengths):
        drawn = super().permutation(lengths)
        if self.perms is None:
            self.perms = drawn
        return self.perms

    def random(self):
        super().random()
        return np.full(len(self.rows), self.u)


def test_draw_matches_the_oracle_on_the_sub_ulp_completion():
    # With m = 3 and u just below 1, the last point 2 + u rounds to 3.0.  About
    # one order in twenty of nine light items makes the rescaled cumulative sum
    # end a rounding step below 3.0: that point falls outside, and the draw
    # completes the sample greedily.  Twenty such orders, each drawn alone.
    u = float(np.nextafter(1.0, 0.0))
    gen = np.random.default_rng(5)
    found = 0
    while found < 20:
        sampler = VarOptSampler(range(9), gen.random(9) + 0.5, 3)
        perm = gen.permutation(9)
        cum = np.cumsum(np.asarray(light_row(sampler)[1])[perm])
        if sampler.draws[0] != 3 or cum[-1] * (3 / cum[-1]) >= u + 2:
            continue
        found += 1
        light, = sampler.draw(np.zeros(1, dtype=np.int64), _ForcedRows(u, 1, perm[None, :])).tolist()
        sample = tuple(sorted(ids_of(sampler.fixed_mask) + tuple(light)))
        assert sample == varopt_draw_oracle(sampler, _FixedDraws(perm, u))
        assert len(sample) == 3


def test_batch_takes_the_scalar_completion_where_points_collide(monkeypatch):
    # The case above in a batch: every row's uniform is forced just below 1, in
    # a batch of 5, 6, 9 and 14 light items, so that collided rows come both
    # padded and unpadded, and each collided row is completed by ``_complete``
    # alone.  Each row equals the array oracle on the row's own permutation and
    # that uniform.
    u = float(np.nextafter(1.0, 0.0))
    complete, completed = varopt._complete, []
    monkeypatch.setattr(varopt, "_complete", lambda picks, probs, m: completed.append(len(probs))
                        or complete(picks, probs, m))
    gen = np.random.default_rng(5)
    samplers = [VarOptSampler(range(size), gen.random(size) + 0.5, 3) for size in (5, 6, 9, 14) * 300]
    samplers = [s for s in samplers if s.draws[0] == 3]
    streams = _ForcedRows(u, len(samplers))
    rows = stacked(samplers).draw(np.arange(len(samplers)), streams)
    assert len(completed) >= 5
    assert {5, 6, 9, 14} <= set(completed)
    for sampler, perm, light in zip(samplers, streams.perms, rows.tolist()):
        light = [x for x in light if x >= 0]
        assert len(light) == 3
        oracle = varopt_draw_oracle(sampler, _FixedDraws(perm[:sampler.lengths[0]], u))
        assert tuple(sorted(ids_of(sampler.fixed_mask) + tuple(light))) == oracle
