import numpy as np
import pytest

from helpers import arrival_rows, choice_without_replacement, one_block_at_a_time
from sparsematch.rng import RngStream, StreamRows, arrival_stream_ids, philox_blocks, philox_key, philox_keys


def test_identical_keys_reproduce_sequences():
    a = RngStream(42, 7).generator.random(100)
    b = RngStream(42, 7).generator.random(100)
    assert np.array_equal(a, b)


def test_different_stream_ids_differ():
    a = RngStream(42, 0).generator.random(16)
    b = RngStream(42, 1).generator.random(16)
    assert not np.array_equal(a, b)


def test_substream_is_deterministic_and_independent():
    base = RngStream(5)
    s1 = base.substream("realize", 3)
    s2 = base.substream("realize", 3)
    assert s1.stream_id == s2.stream_id
    assert np.array_equal(s1.generator.random(8), s2.generator.random(8))
    other = base.substream("realize", 4)
    assert other.stream_id != s1.stream_id


def test_substream_order_sensitivity():
    base = RngStream(5)
    assert base.substream("a", "b").stream_id != base.substream("b", "a").stream_id


def test_parent_state_not_shared_with_children():
    base = RngStream(9)
    child = base.substream(1)
    before = child.generator.random(4)
    base.generator.random(100)
    again = RngStream(9).substream(1).generator.random(4)
    assert np.array_equal(before, again)


def test_substream_tags_chain():
    # the harness derives trial streams from per-phase prefixes
    base = RngStream(5)
    assert base.substream("nyc-strategy", 2, 7, "varopt k=5").stream_id == (
        base.substream("nyc-strategy", 2).substream(7, "varopt k=5").stream_id
    )
    assert base.substream("bound", 3, 10).stream_id == base.substream("bound").substream(3).substream(10).stream_id


@pytest.mark.parametrize("seed", [5, 2**63 + 5])
@pytest.mark.parametrize("stream_id", [7, 11868062223170588123])
def test_philox_key_matches_numpy_list_conversion(seed, stream_id):
    # numpy rounds a list's entries to float64 when only one of them is >= 2^63
    expected = np.random.Philox(key=[seed, stream_id]).state["state"]["key"]
    assert philox_key(seed, stream_id).tolist() == expected.tolist()


def test_philox_key_rounds_a_lone_large_entry():
    assert philox_key(0, 11868062223170588123).tolist() == [0, 11868062223170588672]


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
def test_arrival_streams_match_their_substreams(seed):
    # Each row draws as its arrival's own substream: a permutation and a
    # uniform (a VarOpt draw's sequence) on one set of rows, a subset on another.
    for n in (5, 600):  # 600 covers large-lp's n=500
        rng = RngStream(seed).substream("strategy", n, "varopt k=5")
        shuffled, subsets = arrival_rows(rng, n), arrival_rows(rng, n)
        perms = shuffled.permutation(np.full(n, 9))
        uniforms = shuffled.random()
        picks = subsets.choice(np.full(n, 20), 4)
        for i in range(n):
            own = rng.substream("arrival", i)
            assert int(shuffled.stream_ids[i]) == own.stream_id
            ref = own.generator
            assert np.array_equal(perms[i], ref.permutation(9))
            assert uniforms[i] == ref.random()
            assert set(picks[i].tolist()) == set(rng.substream("arrival", i).generator.choice(20, 4, replace=False).tolist())


def test_arrival_rows_compute_words_only_as_draws_reach_them():
    rows = arrival_rows(RngStream(3), 50)
    assert not rows.blocks.any() and rows.halves.size == 0
    first = rows.random()  # a fresh stream's random() reads its first word
    assert rows.blocks.tolist() == [1] * 50
    assert first[9] == RngStream(3).substream("arrival", 9).generator.random()


TOP = 2**64 - 1
# Both sides of 2^63, the float64 rounding's halfway points above it, and the
# top 2^10, where a rounded entry reaches 2^64.
KEY_EDGES = [0, 5, 2**53 + 1, 2**62 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**63 + 2**10,
             2**63 + 3 * 2**10, 2**64 - 2**11, 2**64 - 2**10 - 1, 2**64 - 2**10, TOP - 512, TOP]


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
def test_key_rows_match_philox_key():
    gen = np.random.default_rng(8)
    ids = np.array(KEY_EDGES + gen.integers(2**64, size=200, dtype=np.uint64).tolist(), dtype=np.uint64)
    for seed in KEY_EDGES + gen.integers(2**64, size=20, dtype=np.uint64).tolist():
        expected = [philox_key(seed, int(sid)).tolist() for sid in ids]
        assert philox_keys(np.uint64(seed), ids).tolist() == expected, seed


def test_philox_blocks_match_numpy_random_raw():
    # 10^5 keys: random pairs on both sides of 2^63, the rounded mixed pairs of a
    # seed below 2^63 and of one above (the big-seed golden's), and the key edges.
    gen = np.random.default_rng(11)
    ids = gen.integers(2**64, size=33_000, dtype=np.uint64)
    keys = np.concatenate([gen.integers(2**64, size=(34_000, 2), dtype=np.uint64),
                           philox_keys(np.uint64(0), ids), philox_keys(np.uint64(13835058055282163729), ids),
                           np.array([(a, b) for a in KEY_EDGES[:10] for b in KEY_EDGES[:10]], dtype=np.uint64)])
    counters = np.arange(len(keys), dtype=np.uint64) % np.uint64(3) + np.uint64(1)
    blocks = philox_blocks(keys, counters)
    bitgen = np.random.Philox(key=[0, 0])
    state = bitgen.state
    for key, counter, block in zip(keys.tolist(), counters.tolist(), blocks.tolist()):
        state["state"]["key"], state["state"]["counter"], state["buffer_pos"] = key, [counter - 1, 0, 0, 0], 4
        bitgen.state = state
        assert bitgen.random_raw(4).tolist() == block, (key, counter)
    assert len(keys) >= 100_000


# Lengths just above a power of two reject about half of their halves.
LENGTHS = [1, 2, 3, 4, 5, 9, 17, 33, 35, 48, 61, 65, 129]


def _check_permutations(seed: int, lengths: list[int]) -> None:
    rng = RngStream(seed).substream("permutation")
    rows = arrival_rows(rng, len(lengths))
    perms, uniforms = rows.permutation(np.array(lengths)), rows.random()
    for i, length in enumerate(lengths):
        own = rng.substream("arrival", i).generator
        assert perms[i, :length].tolist() == own.permutation(length).tolist(), (seed, i, length)
        assert perms[i, length:].tolist() == list(range(length, perms.shape[1]))
        assert uniforms[i] == own.random(), (seed, i, length)


@pytest.mark.parametrize("seed", [0, 2**63 + 5])
def test_permutation_rows_match_numpy(seed):
    # Each row's permutation and the uniform after it, as a VarOpt draw takes
    # them, against that arrival's own generator.
    _check_permutations(seed, LENGTHS * 300)


def test_rows_that_run_past_their_words_get_more(monkeypatch):
    one_block_at_a_time(monkeypatch)
    _check_permutations(1, LENGTHS * 20)
    _check_subsets(1, [0], [(d, k) for d in (2, 11, 100, 10000) for k in (1, 3, 9, 10) if k < d] * 20)


def _powers_of_two_and_neighbours(top: int) -> list[int]:
    return sorted({2**e + s for e in range(2, 14) for s in (-1, 0, 1)} | {top})


def _check_subsets(seed: int, tags: list[int], cases: list[tuple[int, int]]) -> int:
    # Every tag's arrival i draws cases[i] = (d, k): its row of one batch per k
    # against the Python-int replay and numpy's own choice(d, k, replace=False)
    # on the arrival's fresh stream.  One Philox generator serves every arrival:
    # before each of the two draws it is set to the state a new Philox(key=...)
    # of the arrival's key has, counter 0 and an empty buffer.
    rngs = [RngStream(seed).substream("subset", tag) for tag in tags]
    parents = np.array([rng.stream_id for rng in rngs], dtype=np.uint64)
    bitgen = np.random.Philox(key=philox_key(seed, 0))
    gen, fresh = np.random.Generator(bitgen), bitgen.state
    for k in sorted({k for _, k in cases}):
        arrivals = [i for i, (_, kk) in enumerate(cases) if kk == k]
        trial, arrival = np.repeat(np.arange(len(rngs)), len(arrivals)), np.tile(arrivals, len(rngs))
        rows = StreamRows(np.full(len(trial), seed, dtype=np.uint64), arrival_stream_ids(parents[trial], arrival))
        batch = rows.choice(np.array([cases[i][0] for i in arrival.tolist()]), k)
        for t, i, picked in zip(trial.tolist(), arrival.tolist(), batch.tolist()):
            d = cases[i][0]
            fresh["state"]["key"] = philox_key(seed, rngs[t].substream("arrival", i).stream_id)
            bitgen.state = fresh
            replay = choice_without_replacement(gen, d, k)
            bitgen.state = fresh
            drawn = gen.choice(d, k, replace=False)
            assert sorted(replay) == sorted(drawn.tolist()) == sorted(picked), (seed, tags[t], i, d, k)
    return len(tags) * len(cases)


def test_subset_replay_matches_numpy_choice():
    # Every arrival's subset as a sorted set against numpy's own choice(d, k,
    # replace=False) on that arrival's fresh stream; seeds and stream ids on
    # both sides of 2^63.
    small = [(d, k) for d in range(2, 101) for k in sorted({1, 3, 5, 10, d - 1}) if k < d]
    edge = [(d, k) for d in _powers_of_two_and_neighbours(10000) for k in (1, 3, 5, 10) if k < d]
    checked = 0
    for seed in (0, 12345, 2**63 + 5, 2**64 - 2**11):
        checked += _check_subsets(seed, list(range(50)), small)
        checked += _check_subsets(seed, list(range(50, 75)), edge)
    # Subsets of all but one item draw an index for every j < d, the most per call.
    checked += _check_subsets(0, [99], [(d, d - 1) for d in _powers_of_two_and_neighbours(10000)])
    assert checked >= 100_000


def _halves_used(gen: np.random.Generator) -> int:
    # 32-bit halves a fresh Philox generator has handed out: the counter counts
    # 4-word blocks, buffer_pos the words used of the last, has_uint32 an unused half.
    state = gen.bit_generator.state
    words = 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]
    return 2 * words - state["has_uint32"]


# Found by scanning stream ids 0, 1, 2, ... of each seed for the first three whose
# fresh generator, after choice(10000, 9999, replace=False, shuffle=False), had
# used more than 9999 halves: each of those took Lemire's rejection loop.
REJECTING = [(0, 240), (0, 536), (0, 616), (2**63 + 5, 22), (2**63 + 5, 48), (2**63 + 5, 84)]


@pytest.mark.parametrize("seed,stream_id", REJECTING)
def test_subset_replay_through_lemire_rejections(seed, stream_id):
    d, k = 10000, 9999
    probe = RngStream(seed, stream_id).generator
    drawn = probe.choice(d, k, replace=False, shuffle=False)
    assert _halves_used(probe) > k
    replay = choice_without_replacement(RngStream(seed, stream_id).generator, d, k)
    batch = StreamRows(np.array([seed], dtype=np.uint64), np.array([stream_id], dtype=np.uint64)).choice(np.array([d]), k)
    assert sorted(replay) == sorted(drawn.tolist()) == sorted(batch[0].tolist())


@pytest.mark.parametrize("d,k", [(20000, 5), (20000, 401), (10001, 9000)])
def test_subset_above_10000_stays_on_numpy_choice(d, k):
    # k > d // 50 is numpy's tail-shuffle branch; the smaller k its Floyd branch.
    batch = StreamRows(np.full(3, 7, dtype=np.uint64), np.arange(3, dtype=np.uint64)).choice(np.full(3, d), k)
    for stream_id in range(3):
        replay = choice_without_replacement(RngStream(7, stream_id).generator, d, k)
        drawn = RngStream(7, stream_id).generator.choice(d, k, replace=False)
        assert replay == set(drawn.tolist()) == set(batch[stream_id].tolist())
