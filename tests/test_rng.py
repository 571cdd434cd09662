"""Deterministic random streams."""

from avfp import rng


def test_derive_key_values_are_pinned():
    """Keys as every earlier checkpoint derived them: a change here moves
    every draw of every run.  A seed is taken modulo 2**64."""
    assert rng.derive_key(0, "init", "phi") == 0x52b3e20b0f82c6d87ac2d726df60cea3
    assert rng.derive_key(7, "noise", 3, 0) == 0x98292625c4903501d97d9996db25146f
    key = 0x310cb349dc5c3b4b0421fc9050b2852b
    assert rng.derive_key(2**64 + 5, "fit-phi", 2000) == key
    assert rng.derive_key(5, "fit-phi", 2000) == key
