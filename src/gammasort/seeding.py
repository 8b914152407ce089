"""Deterministic random-number streams.

Every stochastic operation in this package draws from a Philox counter-based
generator keyed through ``numpy.random.SeedSequence``.  Streams for individual
work items are derived from a master seed plus an integer spawn key, so each
item's draws are independent of the order in which items are built, and
reruns with the same seed reproduce every draw.
"""

from __future__ import annotations

import numpy as np


def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence for ``seed``, optionally namespaced by integer subkeys."""
    if key:
        return np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.SeedSequence(entropy=seed)


def rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for ``seed`` and optional subkeys."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *key)))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, subkeys) into a single 128-bit integer seed.

    Used where an API accepts one integer seed but the stream must be
    independent per work item.
    """
    state = seed_sequence(seed, *key).generate_state(4, np.uint32)
    out = 0
    for word in state:
        out = (out << 32) | int(word)
    return out
