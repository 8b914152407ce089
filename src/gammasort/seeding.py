"""Deterministic random-number streams.

Every stochastic operation in this package draws from a Philox counter-based
generator keyed through ``numpy.random.SeedSequence``.  Streams for individual
work items are derived from a master seed plus an integer spawn key, so each
item's draws are independent of the order in which items are built, and
reruns with the same seed reproduce every draw.

:func:`philox_keys` computes the Philox keys of many such item streams at
once: it runs numpy's documented ``SeedSequence`` hash on whole columns of
subkeys, so the keys equal those of the per-item objects bit for bit, and
:func:`keyed_rngs` draws from them through one re-keyed generator.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

import numpy as np

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a 4-word pool
# of 32-bit words, mixed from the entropy words, then hashed into the state.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence for ``seed``, optionally namespaced by integer subkeys."""
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


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


def philox_keys(seed: int, ci, si) -> np.ndarray:
    """(n, 2) uint64 Philox keys of ``rng(derive_seed(seed, ci[k], si[k]))``, row k.

    ``ci`` and ``si`` are equal-length columns of subkeys, each below 2**32.
    Both ``SeedSequence`` passes run on whole columns: the first gives the
    ``derive_seed`` words, the second hashes them into the key.
    """
    ci = np.asarray(ci, dtype=np.uint64)
    si = np.asarray(si, dtype=np.uint64)
    if ci.ndim != 1 or ci.shape != si.shape:
        raise ValueError(f"subkey columns of shapes {ci.shape} and {si.shape} are not one length")
    if ci.size and max(ci.max(), si.max()) > _MASK32:
        raise ValueError("subkeys must be below 2**32")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    # The seed's words, least significant first; a spawn key pads them to the pool.
    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    derived = _seed_sequence_state([*words, ci, si])  # derive_seed's words, most significant first
    # rng(int) drops the int's high zero words; mix_entropy hashes a missing word as 0.
    key = _seed_sequence_state(derived[::-1])
    return np.stack([key[0] | key[1] << 32, key[2] | key[3] << 32], axis=1)


def keyed_rngs(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """A generator at the start of the Philox stream of each row of ``keys``, in turn.

    Every row yields the same generator, re-keyed, so draw from it before
    taking the next.
    """
    bit_generator = np.random.Philox(0)
    generator = np.random.Generator(bit_generator)
    for key in keys:
        bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield generator


def _seed_sequence_state(entropy: list) -> list:
    """``SeedSequence(entropy).generate_state(4)`` as four words.

    ``entropy`` holds at least four words, each an int or a uint64 column of
    32-bit values; columns give columns.  Arithmetic is 64-bit, masked to 32
    bits: no product of two 32-bit words overflows, and a sum that wraps
    wraps by a multiple of 2**32.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    # generate_state hashes each pool word as hashmix does, with its own constants.
    hash_state = _hasher(_INIT_B, _MULT_B)
    return [hash_state(word) for word in pool]


def _hasher(init: int, mult: int):
    """SeedSequence's ``hashmix``: each call steps the shared hash constant."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x, y):
    # (L*x - R*y) mod 2**32, without a negative intermediate.
    result = (_MIX_MULT_L * x + (2**32 - _MIX_MULT_R) * y) & _MASK32
    return result ^ (result >> _XSHIFT)
