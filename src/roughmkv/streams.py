"""Deterministic random streams.

All randomness in the package flows through counter-based Philox generators
keyed by ``(seed, *tags)``.  Tags are small integers naming the consumer (one
per particle, one for the driving signal, one per backward start time, ...),
so distinct consumers never share a stream and every draw is reproducible
from the seed alone, independent of evaluation order.

A Philox stream is fixed by its 128-bit key; the counter starts at zero.  The
key of ``(seed, *tags)`` is what ``numpy.random.SeedSequence`` derives from
that tuple, so ``substream_keys`` can compute the keys of a whole indexed
family ``(seed, *tags, i)`` in one array pass, and ``normal_rows`` draws each
row through one re-keyed generator instead of building a generator per row.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "substream",
    "substream_keys",
    "normal_rows",
    "TAG_DRIVER",
    "TAG_PARTICLE",
    "TAG_INITIAL",
    "TAG_BACKWARD",
]

# Stream namespaces.  Values are arbitrary but frozen: changing them changes
# every sampled number in the package.
TAG_DRIVER = 101
TAG_PARTICLE = 202
TAG_INITIAL = 303
TAG_BACKWARD = 404

# Constants of numpy's SeedSequence hash (default pool of four 32-bit words).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Independent generator for the consumer named by ``(seed, *tags)``."""
    seq = np.random.SeedSequence((int(seed),) + tuple(int(t) for t in tags))
    return np.random.Generator(np.random.Philox(seq))


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n``, split as SeedSequence splits it."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def substream_keys(seed: int, *tags: int, indices) -> np.ndarray:
    """Philox keys of ``substream(seed, *tags, i)`` for each ``i``, shape ``(n, 2)``.

    Row ``r`` equals ``SeedSequence((seed, *tags, indices[r])).generate_state(2,
    np.uint64)``: the SeedSequence hash runs on uint32 arrays, which wrap
    modulo 2**32 exactly as its 32-bit arithmetic does.  Indices must lie in
    ``[0, 2**32)`` so each contributes one entropy word.
    """
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError("indices must be a 1-d integer array")
    if idx.size and (idx.min() < 0 or idx.max() > _MASK32):
        raise ValueError("indices must lie in [0, 2**32)")
    fixed = [w for part in (seed, *tags) for w in _words(part)]
    entropy = [np.full(idx.size, w, dtype=np.uint32) for w in fixed]
    entropy.append(idx.astype(np.uint32))

    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(idx.size, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(2, np.uint64): four output words read as two
    # little-endian 64-bit words.
    const = _INIT_B
    state = []
    for word in pool:
        word = word ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        word = word * np.uint32(const)
        state.append((word ^ (word >> _XSHIFT)).astype(np.uint64))
    return np.stack(
        [state[0] | (state[1] << np.uint64(32)), state[2] | (state[3] << np.uint64(32))],
        axis=1,
    )


def normal_rows(out: np.ndarray, seed: int, *tags: int) -> np.ndarray:
    """Fill row ``i`` of ``out`` from the stream ``(seed, *tags, i)``; returns ``out``.

    Row ``i`` holds bit for bit what ``substream(seed, *tags, i)
    .standard_normal(out.shape[1:])`` returns.  One Philox is re-keyed per row
    through its public state (counter zero, buffer empty), which is the state
    a freshly seeded Philox starts in.  ``out`` must be C-contiguous float64.
    """
    keys = substream_keys(seed, *tags, indices=np.arange(out.shape[0]))
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    for row, key in zip(out, keys):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        gen.standard_normal(out=row)
    return out
