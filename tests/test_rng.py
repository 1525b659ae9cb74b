import numpy as np
import pytest

from sparsematch.rng import ArrivalStreams, RngStream, choice_without_replacement, philox_key, philox_keys


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
    for n in (5, 600):  # 600 covers large-lp's n=500
        rng = RngStream(seed).substream("strategy", n, "varopt k=5")
        streams = ArrivalStreams(rng, n)
        for i in range(n):
            own = rng.substream("arrival", i)
            assert streams.stream_ids[i] == own.stream_id
            shared = streams[i].generator
            ref = own.generator
            assert np.array_equal(shared.permutation(9), ref.permutation(9))
            assert shared.random() == ref.random()
            assert np.array_equal(shared.choice(20, size=4, replace=False),
                                  ref.choice(20, size=4, replace=False))


def test_arrival_streams_build_one_generator_and_only_when_asked():
    streams = ArrivalStreams(RngStream(3), 50)
    streams[4]
    assert streams._generator is None
    first = streams[4].generator
    assert streams[9].generator is first
    assert first.random() == RngStream(3).substream("arrival", 9).generator.random()


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
        assert philox_keys(seed, ids) == expected, seed


def _powers_of_two_and_neighbours(top: int) -> list[int]:
    return sorted({2**e + s for e in range(2, 14) for s in (-1, 0, 1)} | {top})


def _check_subsets(seed: int, tag: int, cases: list[tuple[int, int]]) -> int:
    rng = RngStream(seed).substream("subset", tag)
    streams = ArrivalStreams(rng, len(cases))
    for i, (d, k) in enumerate(cases):
        replay = choice_without_replacement(streams[i].generator, d, k)
        drawn = rng.substream("arrival", i).generator.choice(d, k, replace=False)
        assert sorted(replay) == sorted(drawn.tolist()), (seed, tag, i, d, k)
    return len(cases)


def test_subset_replay_matches_numpy_choice():
    # Every arrival's subset as a sorted set against numpy's own choice(d, k,
    # replace=False) on that arrival's fresh stream; seeds and stream ids on
    # both sides of 2^63.
    small = [(d, k) for d in range(2, 101) for k in sorted({1, 3, 5, 10, d - 1}) if k < d]
    edge = [(d, k) for d in _powers_of_two_and_neighbours(10000) for k in (1, 3, 5, 10) if k < d]
    checked = 0
    for seed in (0, 12345, 2**63 + 5, 2**64 - 2**11):
        for tag in range(50):
            checked += _check_subsets(seed, tag, small)
        for tag in range(50, 75):
            checked += _check_subsets(seed, tag, edge)
    # Subsets of all but one item draw an index for every j < d, the most per call.
    checked += _check_subsets(0, 99, [(d, d - 1) for d in _powers_of_two_and_neighbours(10000)])
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
    assert sorted(replay) == sorted(drawn.tolist())


@pytest.mark.parametrize("d,k", [(20000, 5), (20000, 401), (10001, 9000)])
def test_subset_above_10000_stays_on_numpy_choice(d, k):
    # k > d // 50 is numpy's tail-shuffle branch; the smaller k its Floyd branch.
    for stream_id in range(3):
        replay = choice_without_replacement(RngStream(7, stream_id).generator, d, k)
        drawn = RngStream(7, stream_id).generator.choice(d, k, replace=False)
        assert replay == set(drawn.tolist())
