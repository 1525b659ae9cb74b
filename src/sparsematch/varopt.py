"""Variance-optimal fixed-size weighted sampling.

Given items with nonnegative weights and a budget ``k``, a single threshold
multiplier ``tau`` assigns each item the inclusion probability
``min(1, tau * weight)`` so that the probabilities sum to ``min(k, |E+|)``
over the positively weighted items ``E+``.  Items at probability one are
included deterministically; the rest are drawn by systematic probability-
proportional sampling over a randomly permuted order, which keeps the sample
size exact and pairwise inclusion correlations non-positive.
:class:`BatchSampler` solves the thresholds of many item sets (rows) of one
budget in one padded numpy pass, with the float operations of the one-set
scalar solve in tests/helpers.py, and draws many rows at once, each from its
stream's ``permutation`` and one ``random()``, with the float operations of
the array draw there (tests/test_varopt.py).  The inverse-probability weight
of a chosen item is its weight over its inclusion probability, which is one
for an id of its row's fixed mask and else its row's light probability.
Summed over the chosen ids these weights equal the total input weight on
every single draw, not just in expectation.
"""

from __future__ import annotations

import numpy as np

from .rng import StreamRows


def _solve(row: np.ndarray, ids: np.ndarray, w: np.ndarray, size: int, k: int):
    """The threshold solution at budget k of ``size`` item sets (rows), item e
    being id ``ids[e]`` of weight ``w[e]`` in row ``row[e]``: the row, id and
    inclusion probability of each positively weighted item, sorted by row,
    then descending weight, ties by id, and each row's threshold (nan for a
    row without items).  A row of at most k items takes all of them; one of
    more finds how many leading items cap at probability one, the first h with
    (k - h) * w[h] <= sum(w[h:]), which is below k.  Those rows are solved in
    zero-padded blocks of sizes within a power of two; the padding leads each
    reversed cumulative sum, so every suffix sum is the row's own."""
    positive = w > 0
    row, ids, w = row[positive], ids[positive], w[positive]
    order = np.lexsort((ids, -w, row))
    row, ids, w = row[order], ids[order], w[order]
    n = np.bincount(row, minlength=size)
    start = np.cumsum(n) - n
    thresholds = np.full(size, np.nan)
    thresholds[n > 0] = 1.0 / w[(start + n - 1)[n > 0]]
    cut = k < n
    block = np.frexp(n - 1)[1]  # the bit length of n - 1
    for b in set(block[cut].tolist()):
        solved = cut & (block == b)
        items, local = np.flatnonzero(solved[row]), np.cumsum(solved) - 1
        padded = np.zeros((int(solved.sum()), int(n[solved].max())))
        padded[local[row[items]], items - start[row[items]]] = w[items]
        suffix = np.cumsum(padded[:, ::-1], axis=1)[:, ::-1]
        h = ((k - np.arange(padded.shape[1])) * padded > suffix).argmin(axis=1)
        thresholds[solved] = (k - h) / suffix[np.arange(len(padded)), h]
    probs = np.minimum(1.0, thresholds[row] * w)
    probs[~cut[row]] = 1.0
    return row, ids, probs, thresholds


def _complete(picks: list[int], probs: np.ndarray, m: int) -> list[int]:
    """The distinct positions ``picks`` of a row whose systematic points collide
    below an ulp, completed greedily to m: the other positions in descending
    order of ``probs``, the row's light probabilities in permuted order."""
    return picks + [p for p in np.argsort(-probs).tolist() if p not in picks][:m - len(picks)]


class BatchSampler:
    """Budget-k threshold solutions of many item sets (rows), solved in one pass
    and drawn for many rows at once.  Per row: its ``thresholds`` entry, its
    ids at probability one as ``fixed_masks`` (bit i for id i), how many light
    ids it ``draws``, and its light ids and probabilities in solution order,
    as arrays padded to the widest row.  Item e is id ``ids[e]`` of weight
    ``weights[e]`` in row ``row[e] < size``, in any order.  Ids must be >= 0
    and distinct within a row; an empty row, or one of zero weights, draws
    nothing."""

    def __init__(self, row: np.ndarray, ids: np.ndarray, weights: np.ndarray, size: int, k: int):
        row, ids, probs, self.thresholds = _solve(row, ids, weights, size, k)
        fixed = probs >= 1.0
        self.fixed_masks = [0] * size
        for r, i in zip(row[fixed].tolist(), ids[fixed].tolist()):
            self.fixed_masks[r] |= 1 << i
        self.draws = np.minimum(k, np.bincount(row, minlength=size)) - np.bincount(row[fixed], minlength=size)
        row, ids, probs = row[~fixed], ids[~fixed], probs[~fixed]
        self.lengths = np.bincount(row, minlength=size)
        col = np.arange(len(row)) - (np.cumsum(self.lengths) - self.lengths)[row]
        self.probs = np.zeros((size, max(1, self.lengths.max(initial=0))))
        self.ids = np.zeros(self.probs.shape, np.int64)
        self.probs[row, col], self.ids[row, col] = probs, ids

    def draw(self, which: np.ndarray, streams: StreamRows) -> np.ndarray:
        """The light ids that batch row ``which[r]`` draws for stream row r of
        ``streams``, all rows in one vectorized pass, padded with -1 (each
        batch row drawn draws at least one light id).  The cumulative sum,
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
