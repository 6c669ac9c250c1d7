import numpy as np
import pytest

from cfdyn.seeding import RngSeed, StreamDrawer


def test_same_stream_same_draws():
    a = RngSeed(7, 3).generator().normal(size=8)
    b = RngSeed(7, 3).generator().normal(size=8)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngSeed(7, 3).generator().normal(size=8)
    b = RngSeed(7, 4).generator().normal(size=8)
    c = RngSeed(8, 3).generator().normal(size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_child_is_deterministic_and_tag_sensitive():
    base = RngSeed(123)
    assert base.child("sim") == base.child("sim")
    assert base.child("sim") != base.child("obs")
    assert base.child("lane", 1) != base.child("lane", 2)
    assert base.child("lane", 1, 2) != base.child("lane", 2, 1)


def test_child_chain_order_matters():
    base = RngSeed(5)
    assert base.child("a").child("b") != base.child("b").child("a")


def test_seed_bounds_validated():
    with pytest.raises(ValueError):
        RngSeed(-1)
    with pytest.raises(ValueError):
        RngSeed(0, 1 << 64)


def test_stream_drawer_matches_child_generator():
    base = RngSeed(99).child("stage")
    drawer = StreamDrawer(base)
    for tag, ix in [("lane", 0), ("lane", 3), ("inner_resample", 17)]:
        got = drawer.generator(tag, ix).normal(size=6)
        want = base.child(tag, ix).generator().normal(size=6)
        assert np.array_equal(got, want)
    # uniform path exercises the 32-bit buffer reset
    assert drawer.generator("u", 1).uniform() == base.child("u", 1).generator().uniform()
    # re-keying after a partial draw must discard the buffered words and counter
    def draws(gen):
        return gen.integers(0, 1 << 30, size=3, dtype=np.int32), gen.normal(size=5)

    partials = (
        lambda g: g.uniform(),
        lambda g: g.integers(0, 7, dtype=np.int32),
        lambda g: g.standard_normal(out=np.empty(5)),
        lambda g: g.random(),
    )
    for partial in partials:
        partial(drawer.generator("partial", 0))
        got = draws(drawer.generator("lane", 5))
        want = draws(base.child("lane", 5).generator())
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

