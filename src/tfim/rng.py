"""Reproducible random-number streams.

All randomness in the package flows from a single 64-bit master seed.  Chain
k draws from ``Generator(Philox(key=master_seed).jumped(k))``: Philox is
counter-based, and ``jumped`` advances the counter by 2^128 per step, so the
per-chain streams are non-overlapping and the mapping (seed, chain) -> stream
is a fixed, documented function of the two integers.  Runs are therefore
bit-reproducible for any worker count.
"""

from __future__ import annotations

import numpy as np


def chain_generator(seed: int, chain: int) -> np.random.Generator:
    if chain < 0:
        raise ValueError(f"chain index must be nonnegative, got {chain}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)).jumped(chain))
