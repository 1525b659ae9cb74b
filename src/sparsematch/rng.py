"""Deterministic, splittable random streams, and cheap exact draws from them.

Every source of randomness in the library flows through a stream keyed by
``(seed, stream_id)``.  Streams backed by the counter-based Philox generator
reproduce identical draw sequences for identical keys, so results depend only
on the keys and trials, arrivals and learning phases can run in any order.
:class:`StreamRows` draws many fresh streams at once, one row each: it
computes their Philox4x64-10 words in numpy (``philox_blocks``) and replays
numpy ``Generator``'s ``permutation`` and ``choice`` without replacement (a
row's first draw), ``random`` and ``integers`` (which ``choice(n)`` draws)
on them over padded rows, byte for byte, with numpy's buffered 32-bit half.
These replays are checked against numpy in tests/test_rng.py, the VarOpt
rows and mgs suggestions drawn on them against their per-row oracles in
test_varopt.py and test_strategies.py, and mgs's weighted-choice cdfs against
numpy's (``choice_cdf`` in tests/helpers.py) in test_weights.py and
test_strategies.py.
"""

from __future__ import annotations

import zlib
from itertools import count

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    # Finalizer from the splitmix64 generator; good 64-bit avalanche.
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _splitmix64_array(values: np.ndarray) -> np.ndarray:
    # _splitmix64 over a uint64 array; uint64 arithmetic wraps as ``& _MASK64`` does.
    z = values + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _tag_to_int(tag: int | str) -> int:
    if isinstance(tag, str):
        # crc32 is stable across runs and platforms (unlike hash()).
        return zlib.crc32(tag.encode("utf-8")) & _MASK64
    return int(tag) & _MASK64


def philox_key(seed: int, stream_id: int) -> np.ndarray:
    # numpy infers float64 for a key list with one entry >= 2^63 and one below,
    # rounding the large one to 53 bits; seeded outputs depend on that rounding.
    return np.asarray([seed, stream_id]).astype(np.uint64)


class RngStream:
    """A named random stream, reproducible from its ``(seed, stream_id)`` key.

    The underlying generator is created lazily and then consumed statefully:
    repeated draws continue one deterministic sequence.  Derive independent
    child streams with :meth:`substream`; children never share state with the
    parent or with each other.
    """

    __slots__ = ("seed", "stream_id", "_generator")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            bitgen = np.random.Philox(key=philox_key(self.seed, self.stream_id))
            self._generator = np.random.Generator(bitgen)
        return self._generator

    def substream(self, *tags: int | str) -> "RngStream":
        """Derive an independent stream keyed by this stream plus ``tags``."""
        sid = self.stream_id
        for tag in tags:
            sid = _splitmix64(sid ^ _splitmix64(_tag_to_int(tag)))
        return RngStream(self.seed, sid)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def philox_keys(seeds: np.ndarray, stream_ids: np.ndarray) -> np.ndarray:
    """``philox_key(seed, sid)`` for each pair of two uint64 arrays, as rows of one array."""
    keys = np.stack(np.broadcast_arrays(seeds, stream_ids), axis=1)
    mixed = (keys[:, 0] >= 1 << 63) != (keys[:, 1] >= 1 << 63)  # the pairs philox_key rounds
    keys[mixed] = keys[mixed].astype(np.float64).astype(np.uint64)
    return keys


_LOW32 = np.uint64(0xFFFFFFFF)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_LANES = 8192  # blocks per vectorized pass, which bounds its temporaries


def philox_blocks(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 block ``counters[i] >= 1`` under ``keys[i]``, one row each: the
    words 4(c - 1) .. 4c - 1 that ``np.random.Philox(key=keys[i]).random_raw`` returns.

    The ten rounds run in place on preallocated (2, lanes) buffers: x holds
    words 0 and 2, and y words 3 and 1, so that each round multiplies both x
    words by their constant at once and y is that product, unreversed."""
    key = keys.T.copy()
    x = np.zeros_like(key)
    x[0] = counters
    y, x_lo, t, w, hi = (np.zeros_like(key) for _ in range(5))
    m_lo, m_hi = _PHILOX_M & _LOW32, _PHILOX_M >> 32
    for r in range(10):
        if r:
            key += _PHILOX_W
        # the high word of x * M from 32-bit halves (Hacker's Delight mulhu)
        np.bitwise_and(x, _LOW32, out=x_lo)
        np.multiply(x_lo, m_lo, out=t)
        t >>= 32
        np.right_shift(x, 32, out=hi)  # x_hi until it becomes the high word
        np.multiply(hi, m_lo, out=w)
        t += w
        np.bitwise_and(t, _LOW32, out=w)
        x_lo *= m_hi
        w += x_lo
        hi *= m_hi
        t >>= 32
        hi += t
        w >>= 32
        hi += w
        # words (0, 2) <- (hi2 ^ word 1, hi0 ^ word 3) ^ key, words (3, 1) <- x * M
        hi ^= y
        np.bitwise_xor(hi[::-1], key, out=y)
        x *= _PHILOX_M
        x, y = y, x
    return np.stack([x[0], y[1], x[1], y[0]], axis=1)


def substream_ids(stream_ids: np.ndarray | np.uint64, *tags: int | str | np.ndarray) -> np.ndarray:
    """The stream id of ``RngStream(seed, stream_ids[r]).substream(*tags)`` for each r,
    in one pass; a tag may also be an array of int tags, entry r for row r, which
    broadcasts against ``stream_ids`` (one stream's trials, say)."""
    for tag in tags:
        mixed = (_splitmix64_array(tag.astype(np.uint64)) if isinstance(tag, np.ndarray)
                 else np.uint64(_splitmix64(_tag_to_int(tag))))
        stream_ids = _splitmix64_array(stream_ids ^ mixed)
    return stream_ids


class StreamRows:
    """Fresh streams ``RngStream(seeds[r], stream_ids[r])``, one row each, drawn as
    each row's own numpy ``Generator`` draws, in vectorized passes over the rows.

    A row's Philox words are computed in 4-word blocks as its draws reach them
    (or ahead, by ``reserve``) and kept.  As in numpy, a 64-bit draw takes the
    row's next whole word, and a 32-bit draw takes the half the row buffered,
    else the low half of its next word, buffering the high half.
    ``permutation`` and ``choice`` are a row's first draw and replay numpy's
    algorithm on those halves, one half of every unfinished row per pass;
    ``random`` and ``integers`` continue any row at its own place, except
    after ``choice``, which is a row's last draw too.
    """

    def __init__(self, seeds: np.ndarray, stream_ids: np.ndarray):
        self.seeds, self.stream_ids = seeds, stream_ids
        self.keys = philox_keys(seeds, stream_ids)
        self.rows = np.arange(len(stream_ids))
        self.next = np.zeros(len(stream_ids), np.int64)  # words handed out
        self.spare = np.full(len(stream_ids), -1, np.int64)  # the buffered half's column, or -1
        self.blocks = np.zeros(len(stream_ids), np.int64)  # blocks computed
        self.halves = np.zeros((len(stream_ids), 0), "<u4")  # a word is its low half, then its high half

    def stream(self, r: int) -> RngStream:
        return RngStream(int(self.seeds[r]), int(self.stream_ids[r]))

    def reserve(self, words: int) -> None:
        """Compute every row's first ``words`` words in one pass, ahead of the
        draws that would otherwise compute them as they reach them."""
        self._reserve(self.rows, -(-words // 4))

    def _reserve(self, rows: np.ndarray, blocks: np.ndarray | int) -> None:
        """Compute blocks until each of ``rows`` holds ``blocks`` of them."""
        count = blocks - self.blocks[rows]
        if not (lacking := count > 0).any():
            return
        rows, count = rows[lacking], count[lacking]
        first = self.blocks[rows]
        width = 8 * int((first + count).max())
        if width > self.halves.shape[1]:
            more = np.zeros((len(self.rows), width - self.halves.shape[1]), self.halves.dtype)
            self.halves = np.concatenate([self.halves, more], axis=1)
        lane_row = np.repeat(rows, count)
        block = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(lane_row))
        by_block = self.halves.reshape(len(self.rows), -1, 8)
        for s in range(0, len(lane_row), _PHILOX_LANES):
            lanes = slice(s, s + _PHILOX_LANES)
            words = philox_blocks(self.keys[lane_row[lanes]], block[lanes].astype(np.uint64) + np.uint64(1))
            by_block[lane_row[lanes], block[lanes]] = words.astype("<u8").view("<u4")
        self.blocks[rows] += count

    def _first_draw(self) -> None:
        if self.next.any():
            raise ValueError("permutation and choice without replacement replay a row's first draw; "
                             "these rows have drawn before")

    def _next(self, rows: np.ndarray) -> np.ndarray:
        """The next word of each of ``rows``, which must not have drawn a subset."""
        if ((at := self.next[rows]) < 0).any():
            raise ValueError("choice without replacement is a row's last draw: numpy's final shuffle "
                             "of the set is not replayed")
        return at

    def _column(self, p: int, active: np.ndarray) -> np.ndarray:
        """Half p of every row, computed first for the active rows that lack it."""
        if p % 8 == 0 and (lacking := active & (self.blocks <= p // 8)).any():
            self._reserve(self.rows[lacking], p // 8 + 1)
        return self.halves[:, p]

    def random(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The next ``random()`` of each of ``rows`` (default: every row),
        ``(next64 >> 11) * 2**-53`` of the row's next whole word."""
        rows = self.rows if rows is None else rows
        at = self._next(rows)
        self._reserve(rows, at // 4 + 1)
        self.next[rows] = at + 1
        return (self.halves.view("<u8")[rows, at] >> 11) * 2.0**-53

    def _uint32(self, rows: np.ndarray) -> np.ndarray:
        """The next 32-bit draw of each of ``rows``."""
        spare = self.spare[rows]
        fresh = spare < 0
        at = np.where(fresh, 2 * self._next(rows), spare)
        self._reserve(rows, at // 8 + 1)
        self.spare[rows] = np.where(fresh, at + 1, -1)
        self.next[rows] += fresh
        return self.halves[rows, at]

    def integers(self, n: int, rows: np.ndarray) -> np.ndarray:
        """The next ``integers(0, n)``, which ``choice(n)`` draws, of each of ``rows``,
        0 < n <= 2^32: Lemire's method on 32-bit draws, a rejected draw repeated;
        n = 1 draws nothing."""
        picked = np.zeros(len(rows), np.int64)
        todo = np.arange(len(rows) if n > 1 else 0)
        bound, threshold = np.uint64(n), (2**32 - n) % n
        while len(todo):
            m = self._uint32(rows[todo]) * bound
            take = (m & _LOW32) >= threshold
            picked[todo[take]] = m[take] >> 32
            todo = todo[~take]
        return picked

    def permutation(self, lengths: np.ndarray) -> np.ndarray:
        """Row r's ``permutation(lengths[r])`` in its first lengths[r] columns, the
        rest ``arange``: Fisher-Yates from the last index down, each index i drawn
        by masked rejection; a rejected half leaves the row at index i.

        A first walk over the halves writes each half at the index it is drawn
        for, so the last write at an index is its accepted draw; the swaps then
        run column by column, from the top index down."""
        self._first_draw()
        self._reserve(self.rows, (3 * lengths + 32) // 16)  # 1.5 halves an index, and two blocks more
        top = int(lengths.max(initial=0))
        mask = (1 << np.array([i.bit_length() for i in range(max(top, 1))])) - 1
        drawn = np.tile(np.arange(top), (len(lengths), 1))
        flat, start = drawn.reshape(-1), self.rows * top
        i = np.maximum(lengths - 1, 0)  # the index each row draws next; a finished row writes 0 at 0
        used = np.zeros(len(lengths), np.int64)
        for p in count():
            active = i > 0
            if p % 8 == 0 and not active.any():  # a finished row writes 0 at 0 and takes nothing
                break
            half = self._column(p, active) & mask[i]
            flat[start + i] = half
            used += active
            i -= active & (half <= i)
        self.next, self.spare = (used + 1) // 2, np.where(used & 1, used, -1)  # halves taken, in 32-bit draws
        perm = np.tile(np.arange(top), (len(lengths), 1))
        cells = perm.reshape(-1)
        for i in range(top - 1, 0, -1):
            at = start + drawn[:, i]
            swapped = cells[at]
            cells[at] = perm[:, i]
            perm[:, i] = swapped
        return perm

    def choice(self, pops: np.ndarray, k: int) -> np.ndarray:
        """Row r's set ``choice(pops[r], k, replace=False)``, 0 < k < pops[r], as k
        columns.  For d <= 10000 numpy runs Floyd's algorithm, each index in
        [0, j] drawn by Lemire's method on a half; its final shuffle only
        reorders the set.  Larger populations call numpy's ``choice``.  It is
        a row's last draw too: a later one raises."""
        self._first_draw()
        self._reserve(self.rows, -(-k // 8))
        chosen = np.full((len(pops), k), -1)
        picks = np.where(pops > 10000, k, 0)  # per row
        for p in count():
            if not (active := picks < k).any():
                break
            j = pops - k + np.minimum(picks, k - 1)
            bound = (j + 1).astype(np.uint64)
            m = self._column(p, active) * bound
            take = self.rows[active & ((m & _LOW32) >= (_LOW32 + 1 - bound) % bound)]  # Lemire's threshold
            picked = (m >> 32).astype(np.int64)
            repeated = (chosen == picked[:, None]).any(axis=1)
            chosen[take, picks[take]] = np.where(repeated, j, picked)[take]
            picks[take] += 1
        for r in np.flatnonzero(pops > 10000):  # where numpy may take a tail shuffle instead
            chosen[r] = self.stream(r).generator.choice(pops[r], k, replace=False)
        self.next[:] = -1  # numpy's final shuffle draws too, and is not replayed
        return chosen

