import numpy as np
import pytest

from sparsematch.rng import ArrivalStreams, RngStream, philox_key


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
