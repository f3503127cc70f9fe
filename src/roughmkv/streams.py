"""Deterministic random streams.

Every random draw in the package comes from a generator keyed by ``(seed,
*tags)``.  Tags are small integers naming the consumer (one per particle, one
for the driving signal, one per backward grid cell, ...), so distinct
consumers never share a stream and every draw is reproducible from the seed
alone, independent of evaluation order.  ``numpy.random.SeedSequence`` turns
the tuple into the generator's seed, and one bit generator reads it:
counter-based Philox (``substream``, ``normal_rows``).  ``derive_seed`` hashes
mixed entropy into the plain integer seeds that run configurations carry.

A Philox stream is fixed by its 128-bit key; the counter starts at zero.  The
key of ``(seed, *tags)`` is what ``SeedSequence`` derives from that tuple, so
``substream_keys`` can compute the keys of a whole indexed family ``(seed,
*tags, i)`` in one array pass, and ``normal_rows`` draws each row through one
re-keyed generator instead of building a generator per row, deriving the
keys in blocks of rows.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "derive_seed",
    "substream",
    "substream_keys",
    "normal_rows",
    "TAG_DRIVER",
    "TAG_PARTICLE",
    "TAG_INITIAL",
    "TAG_BACKWARD",
    "TAG_CHECKS",
]

# Stream namespaces.  Values are arbitrary but frozen: changing them changes
# every sampled number in the package.
TAG_DRIVER = 101
TAG_PARTICLE = 202
TAG_INITIAL = 303
TAG_BACKWARD = 404
TAG_CHECKS = 505

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

# Rows keyed per ``substream_keys`` call in ``normal_rows``; the hash peaks
# at about 100 bytes per row, so a block costs about 0.4 MiB.
_KEY_BLOCK = 4096


def _sequence(seed: int, tags: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(seed),) + tuple(int(t) for t in tags))


def derive_seed(*parts: int) -> int:
    """Stable small integer from mixed entropy; keeps config seeds plain ints."""
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Independent Philox generator for the consumer named by ``(seed, *tags)``."""
    return np.random.Generator(np.random.Philox(_sequence(seed, tags)))


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
    a freshly seeded Philox starts in.  Keys are derived for at most
    ``_KEY_BLOCK`` rows at a time, so the hashing temporaries stay a few
    hundred kB whatever the row count.  ``out`` must be C-contiguous float64.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    # The state setter reads every word by index, which is cheapest on
    # Python ints; keys are converted row by row, which keeps no second copy
    # of a key block alive.
    fresh = bitgen.state
    fresh["state"]["counter"] = fresh["state"]["counter"].tolist()
    fresh["buffer"] = fresh["buffer"].tolist()
    for start in range(0, out.shape[0], _KEY_BLOCK):
        rows = out[start : start + _KEY_BLOCK]
        keys = substream_keys(seed, *tags, indices=np.arange(start, start + rows.shape[0]))
        for row, key in zip(rows, keys):
            fresh["state"]["key"] = key.tolist()
            bitgen.state = fresh
            gen.standard_normal(out=row)
    return out
