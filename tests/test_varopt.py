import math

import numpy as np
import pytest

from helpers import bisect_threshold, varopt_draw_oracle
from sparsematch.rng import ArrivalStreams, RngStream
from sparsematch.varopt import AllZeroWeights, VarOptSampler

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
    with pytest.raises(AllZeroWeights):
        VarOptSampler([0, 1], [0.0, 0.0], k=1)
    with pytest.raises(AllZeroWeights):
        VarOptSampler([0], [0.0], 1)


def test_draw_contains_deterministic_item_and_preserves_weight_sum():
    rng = RngStream(3)
    sampler = VarOptSampler(ABC_IDS, ABC_WEIGHTS, 2)
    probs = sampler.probabilities()
    for _ in range(200):
        sample = sampler.draw(rng)
        assert len(sample) == 2
        assert 0 in sample  # pi = 1
        assert sum(ABC_WEIGHTS[i] / probs[i] for i in sample) == pytest.approx(1.0, abs=1e-9)


def test_single_item():
    sampler = VarOptSampler([5], [0.37], 1)
    assert sampler.draw(RngStream(1)) == (5,)
    assert sampler.probabilities() == {5: 1.0}  # so its IPW weight is 0.37 itself


def test_marginal_frequencies_match_probabilities():
    # 100000 draws of {0.5, 0.3, 0.2} at k=2: frequencies within 0.005 of (1, 0.6, 0.4)
    sampler = VarOptSampler([0, 1, 2], [0.5, 0.3, 0.2], k=2)
    rng = RngStream(17)
    counts = np.zeros(3)
    trials = 100000
    for _ in range(trials):
        for item in sampler.draw(rng):
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

    sample = sampler.draw(rng)
    assert estimate_subset_sum(sample, {0, 1, 2}) == pytest.approx(1.0, abs=1e-9)
    assert estimate_subset_sum(sample, set()) == 0.0
    total = 0.0
    trials = 100000
    for _ in range(trials):
        total += estimate_subset_sum(sampler.draw(rng), {1})
    assert total / trials == pytest.approx(0.3, abs=0.005)


def test_exact_size_and_weight_sum_over_random_vectors():
    gen = np.random.default_rng(5)
    rng = RngStream(29)
    for _ in range(300):
        size = int(gen.integers(1, 50))
        weights = gen.random(size)
        weights[gen.random(size) < 0.2] = 0.0
        if not (weights > 0).any():
            weights[int(gen.integers(size))] = 0.3
        k = int(gen.integers(1, 20))
        positive = int((weights > 0).sum())
        sampler = VarOptSampler(range(size), weights, k)
        probs = sampler.probabilities()
        sample = sampler.draw(rng)
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
    rng = RngStream(37)
    heavy = [i for i, p in sampler.probabilities().items() if p >= 1.0]
    assert heavy
    for _ in range(500):
        sample = sampler.draw(rng)
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
        rng = RngStream(41)
        trials = 100000
        hits = np.zeros(len(weights))
        joint = np.zeros((len(weights), len(weights)))
        for _ in range(trials):
            included = sampler.draw(rng)
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
        sample = sampler.draw(RngStream(seed))
        assert len(sample) == size
        assert list(sample) == sorted(set(sample))
        assert all(weights[i] > 0 for i in sample)
        total = sum(weights)
        assert sum(weights[i] / probs[i] for i in sample) == pytest.approx(total, abs=1e-9 * max(1.0, total))

    check()


def test_draw_matches_the_array_oracle():
    # Supports of 35-61 items at k = 3, 5, 10 are the four-family table's; the
    # small ones, the heavy items and the ties reach the other branches.
    gen = np.random.default_rng(2024)
    draws = 0
    for case in range(240):
        size = int(gen.choice([2, 5, 12, 35, 48, 61]))
        weights = gen.random(size) ** 3
        weights[gen.random(size) < 0.1] = 0.0
        weights[gen.random(size) < 0.1] = 0.25  # ties
        weights[0] = 5.0 * (case % 3 == 0) + 0.5  # a heavy item in a third of the cases
        sampler = VarOptSampler(gen.permutation(size) * 3, weights, int(gen.choice([3, 5, 10])))
        rng = RngStream(int(gen.integers(2**64, dtype=np.uint64)), case)
        streams = ArrivalStreams(rng, 50)
        for i in range(50):
            assert sampler.draw(streams[i]) == varopt_draw_oracle(sampler, rng.substream("arrival", i))
            draws += 1
    assert draws >= 10_000


class _FixedDraws:
    """A stream whose generator draws the permutation ``perm`` and the uniform ``u``."""

    def __init__(self, perm: np.ndarray, u: float):
        self.generator = self
        self.perm, self.u = perm, u

    def permutation(self, n: int) -> np.ndarray:
        return self.perm.copy()

    def random(self) -> float:
        return self.u


def test_draw_matches_the_oracle_on_the_sub_ulp_completion():
    # With m = 3 and u just below 1, the last point 2 + u rounds to 3.0.  About
    # one order in twenty of nine light items makes the rescaled cumulative sum
    # end a rounding step below 3.0: that point falls outside, and the draw
    # completes the sample greedily.
    u = float(np.nextafter(1.0, 0.0))
    gen = np.random.default_rng(5)
    found = 0
    while found < 20:
        sampler = VarOptSampler(range(9), gen.random(9) + 0.5, 3)
        perm = gen.permutation(9)
        cum = np.cumsum(np.asarray(sampler._light_probs)[perm])
        if sampler._light_draws != 3 or cum[-1] * (3 / cum[-1]) >= u + 2:
            continue
        found += 1
        sample = sampler.draw(_FixedDraws(perm, u))
        assert sample == varopt_draw_oracle(sampler, _FixedDraws(perm, u))
        assert len(sample) == 3
