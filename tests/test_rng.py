import numpy as np

from sparsematch.rng import RngStream


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
