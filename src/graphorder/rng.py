"""Seed handling: one 64-bit root seed split into independent Philox streams.

Philox is counter based, so streams derived from (seed, key) are stable across
runs and independent of how many other streams were created first.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise InputError("seed must be an integer")
    if not 0 <= int(seed) < 2**64:
        raise InputError("seed must fit in 64 bits")
    return int(seed)


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Derive the stream identified by ``key`` from the root seed."""
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
