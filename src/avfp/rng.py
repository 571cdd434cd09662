"""Deterministic random streams keyed by (seed, stream ids).

Every consumer of randomness derives its own named stream instead of
sharing a mutable global generator.  A stream is identified by the run
seed plus a tuple of ids (strings or ints, e.g. ("noise", epoch, step)),
mixed into a 128-bit Philox key with a splitmix64 finalizer.  Streams
are stateless from the caller's point of view: the same (seed, ids)
always yields the same draws, which is what makes checkpoint resume
bit-exact without serializing generator internals.  normal() re-keys
one counter-based Philox per draw, which draws what a fresh one would.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix(z: int) -> int:
    # splitmix64 finalizer; full 64-bit avalanche of the running hash
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@lru_cache(maxsize=256)
def _fold_text(state: int, token: str) -> int:
    # a run names its streams with a few strings, folded at a few states
    for byte in token.encode("utf-8"):
        state = _splitmix(state ^ byte)
    return state


def _fold(state: int, token: int | str) -> int:
    if isinstance(token, str):
        return _fold_text(state, token)
    if isinstance(token, (bool, np.bool_)):
        raise TypeError("stream ids must be ints or strings")
    return _splitmix(state ^ (int(token) & _MASK))


@lru_cache(maxsize=256)
def _salted(seed: int) -> tuple[int, int]:
    """The (lo, hi) hash states of a 64-bit seed before any stream id;
    a run derives every stream from a few seeds, so they are cached."""
    state = _splitmix(seed)
    return _fold(state, "avfp-lo"), _fold(state, "avfp-hi")


def derive_key(seed: int, *ids: int | str) -> int:
    """128-bit Philox key for the stream named by (seed, *ids)."""
    lo, hi = _salted(int(seed) & _MASK)
    for token in ids:
        lo = _fold(lo, token)
        hi = _fold(hi, token)
    return (hi << 64) | lo


def stream(seed: int, *ids: int | str) -> np.random.Generator:
    """Fresh generator for the named stream, independent of all others."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *ids)))


@lru_cache(maxsize=1)
def _drawer() -> tuple[np.random.Generator, dict]:
    """normal()'s generator and a fresh Philox state, made on first use."""
    gen = np.random.Generator(np.random.Philox(0))
    return gen, gen.bit_generator.state


def normal(seed: int, shape: tuple[int, ...], *ids: int | str) -> np.ndarray:
    """Standard-normal draws from the named stream, as stream(seed, *ids)
    draws them, by one generator re-keyed per draw (one thread only)."""
    gen, fresh = _drawer()
    key = derive_key(seed, *ids)
    fresh["state"]["key"] = np.array([key & _MASK, key >> 64], np.uint64)
    gen.bit_generator.state = fresh
    return gen.standard_normal(shape, dtype=np.float64)
