"""Deterministic random streams."""

import numpy as np

from avfp import rng


def test_derive_key_values_are_pinned():
    """Keys as every earlier checkpoint derived them: a change here moves
    every draw of every run.  A seed is taken modulo 2**64."""
    assert rng.derive_key(0, "init", "phi") == 0x52b3e20b0f82c6d87ac2d726df60cea3
    assert rng.derive_key(7, "noise", 3, 0) == 0x98292625c4903501d97d9996db25146f
    key = 0x310cb349dc5c3b4b0421fc9050b2852b
    assert rng.derive_key(2**64 + 5, "fit-phi", 2000) == key
    assert rng.derive_key(5, "fit-phi", 2000) == key


def test_normal_draws_what_a_fresh_stream_draws():
    for seed, shape, ids in ((0, (18, 2), ("fit-phi", 1)),
                             (7, (3,), ("noise", 3, 0)),
                             (2**64 + 5, (4, 1, 2), (9, "mc-elbo", "x", 2)),
                             (1, (), ())):
        want = rng.stream(seed, *ids).standard_normal(shape)
        assert rng.normal(seed, shape, *ids).tobytes() == want.tobytes()


def test_normal_carries_nothing_between_draws():
    """An odd-length draw leaves half a Philox block buffered and a
    stream drawn in between has its own generator; neither moves the
    next draw."""
    first = rng.normal(3, (5, 2), "noise", 1)
    rng.normal(3, (7,), "noise", 2)
    rng.stream(3, "noise", 1).standard_normal(3)
    rng.normal(3, (1,), "noise", 1)
    assert rng.normal(3, (5, 2), "noise", 1).tobytes() == first.tobytes()


def test_stream_values_are_pinned():
    """First draws of two streams: a change here moves every run's noise."""
    for draw in (rng.normal(0, (4,), "fit-phi", 1),
                 rng.stream(0, "fit-phi", 1).standard_normal(4)):
        assert draw.tolist() == [-0.1322878694824632, -0.5857530684907468,
                                 -1.055068220962795, 0.11245157794387237]
    for draw in (rng.normal(7, (4,), "noise", 3, 0),
                 rng.stream(7, "noise", 3, 0).standard_normal(4)):
        assert draw.tolist() == [-0.6865599430045146, -0.7320668602852539,
                                 0.8363754668580758, -0.9080668804120734]
