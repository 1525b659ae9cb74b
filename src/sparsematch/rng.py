"""Deterministic, splittable random streams, and cheap exact draws from them.

Every source of randomness in the library flows through a stream keyed by
``(seed, stream_id)``.  Streams backed by the counter-based Philox generator
reproduce identical draw sequences for identical keys, so results depend only
on the keys and trials, arrivals and learning phases can run in any order.
:class:`ArrivalStreams` serves one call's one-shot arrival streams from one
Philox, re-keyed in place; they are not shareable across threads.  Two draws
replay numpy ``Generator`` internals on Python numbers, byte for byte, and
are checked against numpy: ``choice_without_replacement`` (and the key rows)
in tests/test_rng.py, a weighted choice by ``choice_cdf`` in test_strategies.
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


_ARRIVAL_HASH = _splitmix64(_tag_to_int("arrival"))


def philox_keys(seed: int, stream_ids: np.ndarray) -> list[list[int]]:
    """``philox_key(seed, sid).tolist()`` for each sid of a uint64 array, in one pass."""
    keys = np.stack([np.full_like(stream_ids, seed), stream_ids], axis=1)
    mixed = (stream_ids >= 1 << 63) != (seed >= 1 << 63)  # the pairs philox_key rounds
    keys[mixed] = keys[mixed].astype(np.float64).astype(np.uint64)
    return keys.tolist()


class ArrivalStreams:
    """The streams ``rng.substream("arrival", i)`` of one call's n arrivals.

    ``self[i]`` selects arrival i and returns these streams, whose
    ``generator`` then draws what that substream's own generator draws.  All
    arrivals share one Philox, built for the first arrival that asks and
    re-keyed in place for each later one, so a selection is valid until the
    next; arrivals that draw nothing cost none.
    """

    def __init__(self, rng: RngStream, n: int):
        prefix = np.uint64(_splitmix64(rng.stream_id ^ _ARRIVAL_HASH))
        stream_ids = _splitmix64_array(prefix ^ _splitmix64_array(np.arange(n, dtype=np.uint64)))
        self.seed, self.stream_ids = rng.seed, stream_ids.tolist()
        self._keys = philox_keys(rng.seed, stream_ids)
        self._generator = self._state = None
        self._selected = self._keyed_for = -1  # the arrival asked for; the one keyed

    def __getitem__(self, i: int) -> "ArrivalStreams":
        self._selected = i
        return self

    @property
    def generator(self) -> np.random.Generator:
        """The selected arrival's generator: the shared Philox, re-keyed unless it holds that key."""
        i = self._selected
        if i != self._keyed_for:
            self._keyed_for = i
            if self._generator is None:
                self._generator = RngStream(self.seed, self.stream_ids[i]).generator
                state = self._state = self._generator.bit_generator.state
                state["state"]["counter"] = state["buffer"] = [0] * 4  # as ints, which set faster
            else:  # a fresh Philox's state (zero counter, empty buffer) under the new key
                self._state["state"]["key"] = self._keys[i]
                self._generator.bit_generator.state = self._state
        return self._generator


def choice_without_replacement(gen: np.random.Generator, d: int, k: int) -> set[int]:
    """The set ``gen.choice(d, k, replace=False)`` picks, 0 < k < d, if ``gen`` holds no
    unused 32-bit half.  For d <= 10000 numpy runs Floyd's algorithm, each index
    in [0, j] drawn by Lemire's method on ``next_uint32`` (a 64-bit word's low
    half, then its high half); this replays it on Python ints, pulling words as
    rejections need them.  numpy's final shuffle only reorders the set."""
    if d > 10000:  # where numpy may take a tail shuffle instead
        return set(gen.choice(d, k, replace=False).tolist())
    raw = gen.bit_generator.random_raw
    halves = (half for _ in count() for word in raw((k + 1) // 2).tolist()
              for half in (word & 0xFFFFFFFF, word >> 32))
    chosen: set[int] = set()
    for j in range(d - k, d):
        m = next(halves) * (j + 1)
        if m & 0xFFFFFFFF < j + 1:  # maybe biased: reject below 2^32 mod (j + 1)
            threshold = (0xFFFFFFFF - j) % (j + 1)
            while m & 0xFFFFFFFF < threshold:
                m = next(halves) * (j + 1)
        chosen.add(j if m >> 32 in chosen else m >> 32)
    return chosen


def choice_cdf(p: np.ndarray) -> list[float]:
    """The cdf in which ``gen.choice(len(p), p=p)`` looks up ``bisect_right(cdf, gen.random())``."""
    cdf = p.cumsum()
    return (cdf / cdf[-1]).tolist()
