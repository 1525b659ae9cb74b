"""Deterministic, splittable random streams.

Every source of randomness in the library flows through a stream keyed by
``(seed, stream_id)``.  Streams backed by the counter-based Philox generator
reproduce identical draw sequences for identical keys, so results depend only
on the keys and trials, arrivals and learning phases can run in any order.
One-shot arrival streams (:class:`ArrivalStreams`) share one re-keyed Philox
within a call: each is valid until the next arrival's stream is used, and they
are not shareable across threads.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple

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
_index_hashes = np.empty(0, dtype=np.uint64)  # _splitmix64(i) at index i, grown on demand


class ArrivalStreams:
    """The streams ``rng.substream("arrival", i)`` of one call's n arrivals.

    ``self[i].generator`` draws what that substream's own generator draws, but
    all arrivals share one Philox, built for the first arrival that asks and
    re-keyed in place for each later one; arrivals that draw nothing cost none.
    """

    def __init__(self, rng: RngStream, n: int):
        global _index_hashes
        hashes = _index_hashes
        if len(hashes) < n:
            hashes = _index_hashes = _splitmix64_array(np.arange(2 * n, dtype=np.uint64))
        prefix = np.uint64(_splitmix64(rng.stream_id ^ _ARRIVAL_HASH))
        self.seed, self.stream_ids = rng.seed, _splitmix64_array(prefix ^ hashes[:n]).tolist()
        self._generator = self._state = None
        self._keyed_for = -1  # the arrival whose key the generator holds

    def __getitem__(self, i: int) -> _OneShotStream:
        return _OneShotStream(self, i)

    def generator_of(self, i: int) -> np.random.Generator:
        """Arrival i's generator: the shared Philox, re-keyed unless it holds i's key."""
        if i != self._keyed_for:
            self._keyed_for = i
            if self._generator is None:
                self._generator = RngStream(self.seed, self.stream_ids[i]).generator
                self._state = self._generator.bit_generator.state
            else:  # a fresh Philox's state (zero counter, empty buffer) under the new key
                self._state["state"]["key"] = philox_key(self.seed, self.stream_ids[i])
                self._generator.bit_generator.state = self._state
        return self._generator


class _OneShotStream(NamedTuple):
    streams: ArrivalStreams
    index: int
    generator = property(lambda self: self.streams.generator_of(self.index))
