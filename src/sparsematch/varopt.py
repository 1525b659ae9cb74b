"""Variance-optimal fixed-size weighted sampling.

Given items with nonnegative weights and a budget ``k``, a single threshold
multiplier ``tau`` assigns each item the inclusion probability
``min(1, tau * weight)`` so that the probabilities sum to ``min(k, |E+|)``
over the positively weighted items ``E+``.  Items at probability one are
included deterministically; the rest are drawn by systematic probability-
proportional sampling over a randomly permuted order, which keeps the sample
size exact and pairwise inclusion correlations non-positive.  A draw returns
the chosen ids in ascending order.  The inverse-probability weight of a chosen
item is ``weight / probabilities()[id]``; summed over the chosen ids they equal
the total input weight on every single draw, not just in expectation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .rng import RngStream


class AllZeroWeights(ValueError):
    """Every supplied weight is zero; the caller must fall back to other weights."""


class VarOptSampler:
    """Threshold solution for a fixed (items, k), reusable across many draws.

    Solving for the threshold costs a sort; drawing costs a permutation plus a
    single uniform.  Callers that repeatedly sample the same weight vector
    (one per demand type, say) should build the sampler once.
    """

    def __init__(self, item_ids: Sequence[int], weights: Sequence[float], k: int):
        if k < 1:
            raise ValueError(f"budget k must be >= 1, got {k}")
        ids = [int(i) for i in item_ids]
        if len(set(ids)) != len(ids):
            raise ValueError("item ids must be unique")
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(ids),):
            raise ValueError("weights must align with item ids")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        positive = w > 0
        if not positive.any():
            raise AllZeroWeights("all item weights are zero")

        self._zero_ids = [i for i, keep in zip(ids, positive) if not keep]
        pos_ids = np.asarray([i for i, keep in zip(ids, positive) if keep])
        pos_w = w[positive]
        # Sort descending by weight, ties by id, so the threshold is deterministic.
        order = np.lexsort((pos_ids, -pos_w))
        pos_ids = pos_ids[order]
        pos_w = pos_w[order]

        npos = len(pos_ids)
        sample_size = min(k, npos)
        if k >= npos:
            # Budget covers the support: everything is deterministic.
            self.threshold = 1.0 / float(pos_w[-1])
            probs = np.ones(npos)
        else:
            # Find how many leading items cap at probability one: the split is
            # the smallest h with (k - h) * w[h] <= sum(w[h:]).
            suffix = np.cumsum(pos_w[::-1])[::-1]
            h = 0
            while (k - h) * pos_w[h] > suffix[h]:
                h += 1
            self.threshold = (k - h) / float(suffix[h])
            probs = np.minimum(1.0, self.threshold * pos_w)

        self._pos_ids = pos_ids
        self._probs = probs
        deterministic = probs >= 1.0
        self._det_ids = pos_ids[deterministic]
        self._light_ids = pos_ids[~deterministic]
        self._light_probs = probs[~deterministic]
        self._light_draws = sample_size - len(self._det_ids)

    def probabilities(self) -> dict[int, float]:
        """Inclusion probability per item id, zero-weight items included at 0."""
        out = {int(i): float(p) for i, p in zip(self._pos_ids, self._probs)}
        out.update({i: 0.0 for i in self._zero_ids})
        return out

    def draw(self, rng: RngStream) -> tuple[int, ...]:
        """The chosen item ids, ascending."""
        ids = self._det_ids
        m = self._light_draws
        if m > 0:
            gen = rng.generator
            perm = gen.permutation(len(self._light_ids))
            cum = np.cumsum(self._light_probs[perm])
            # Light probabilities sum to m by construction; rescale away float
            # residue so the systematic point set always lands inside.
            cum *= m / cum[-1]
            points = gen.random() + np.arange(m)
            picks = np.unique(np.searchsorted(cum, points, side="left"))
            picks = picks[picks < len(cum)]
            if len(picks) < m:
                # Sub-ulp boundary collision; complete the sample greedily.
                chosen = set(picks.tolist())
                missing = [i for i in np.argsort(-self._light_probs[perm]) if i not in chosen]
                picks = np.sort(np.concatenate([picks, missing[: m - len(picks)]]).astype(int))
            ids = np.concatenate([ids, self._light_ids[perm[picks]]])
        return tuple(sorted(ids.tolist()))
