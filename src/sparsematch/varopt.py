"""Variance-optimal fixed-size weighted sampling.

Given items with nonnegative weights and a budget ``k``, a single threshold
multiplier ``tau`` assigns each item the inclusion probability
``min(1, tau * weight)`` so that the probabilities sum to ``min(k, |E+|)``
over the positively weighted items ``E+``.  Items at probability one are
included deterministically; the rest are drawn by systematic probability-
proportional sampling over a randomly permuted order, which keeps the sample
size exact and pairwise inclusion correlations non-positive.
:class:`BatchSampler` draws many rows at once, each from its stream's
``permutation`` and one ``random()``, with the float operations of the array
draw in tests/helpers.py (tests/test_varopt.py).  The inverse-probability
weight of a chosen item is ``weight / probabilities()[id]``; summed over the
chosen ids they equal the total input weight on every single draw, not just
in expectation.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .rng import StreamRows


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
            raise ValueError("all item weights are zero")

        self._zero_ids = [i for i, keep in zip(ids, positive) if not keep]
        pos_ids = np.asarray([i for i, keep in zip(ids, positive) if keep])
        pos_w = w[positive]
        # Sort descending by weight, ties by id, so the threshold is deterministic.
        order = np.lexsort((pos_ids, -pos_w))
        pos_ids, pos_w = pos_ids[order], pos_w[order]

        npos = len(pos_ids)
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

        self._pos_ids, self._probs = pos_ids, probs
        deterministic = probs >= 1.0
        self._det_ids = pos_ids[deterministic].tolist()
        self._light_ids = pos_ids[~deterministic].tolist()
        self._light_probs = probs[~deterministic].tolist()
        self._light_draws = min(k, npos) - len(self._det_ids)

    @cached_property
    def fixed_mask(self) -> int:
        """The ids at probability one as a bitmask, bit i for id i (ids must be >= 0)."""
        return sum(1 << i for i in self._det_ids)

    def probabilities(self) -> dict[int, float]:
        """Inclusion probability per item id, zero-weight items included at 0."""
        return {**{int(i): float(p) for i, p in zip(self._pos_ids, self._probs)},
                **dict.fromkeys(self._zero_ids, 0.0)}


def _complete(picks: list[int], probs: np.ndarray, m: int) -> list[int]:
    """The distinct positions ``picks`` of a row whose systematic points collide
    below an ulp, completed greedily to m: the other positions in descending
    order of ``probs``, the row's light probabilities in permuted order."""
    return picks + [p for p in np.argsort(-probs).tolist() if p not in picks][:m - len(picks)]


class BatchSampler:
    """The samplers of many types (``None`` for a type without one), drawn for
    many rows at once: their light items as padded arrays, built once."""

    def __init__(self, samplers: Sequence[VarOptSampler | None]):
        self.lengths = np.array([0 if s is None else len(s._light_ids) for s in samplers])
        self.draws = np.array([0 if s is None else s._light_draws for s in samplers])
        self.probs = np.zeros((len(samplers), max(1, self.lengths.max(initial=0))))
        self.ids = np.zeros(self.probs.shape, np.int64)
        for q, s in enumerate(samplers):
            if s is not None:
                self.probs[q, :self.lengths[q]], self.ids[q, :self.lengths[q]] = s._light_probs, s._light_ids

    def draw(self, which: np.ndarray, streams: StreamRows) -> np.ndarray:
        """The light ids that ``samplers[which[r]]`` draws for row r from its
        stream in ``streams``, all rows in one vectorized pass, padded with -1
        (each row's sampler draws at least one light id).  The cumulative sum,
        its rescaling and the count of sums below each point are the array
        draw's float operations, over rows padded with infinite sums; a row
        whose points collide below an ulp keeps its distinct picks and is
        completed by ``_complete``."""
        m, lengths = self.draws[which], self.lengths[which]
        top = int(lengths.max())
        perm = streams.permutation(lengths)
        u = streams.random()
        cum = self.probs[which[:, None], perm]
        cum.cumsum(axis=1, out=cum)
        cum *= (m / cum[streams.rows, lengths - 1])[:, None]
        cum[np.arange(top) >= lengths[:, None]] = np.inf
        drawn = np.arange(m.max()) < m[:, None]
        picks = np.column_stack([(cum < u[:, None] + j).sum(axis=1) for j in range(m.max())])
        picks[~drawn] = top
        collided = (((picks >= lengths[:, None]) & drawn).any(axis=1)
                    | ((np.diff(picks, axis=1) <= 0) & drawn[:, 1:]).any(axis=1))
        items = np.take_along_axis(perm, np.minimum(picks, top - 1), axis=1)
        chosen = np.where(drawn, self.ids[which[:, None], items], -1)
        for r in np.flatnonzero(collided).tolist():
            row = perm[r, :lengths[r]]
            kept = np.unique(picks[r][picks[r] < lengths[r]]).tolist()
            chosen[r, :m[r]] = self.ids[which[r], row[_complete(kept, self.probs[which[r], row], m[r])]]
        return chosen
