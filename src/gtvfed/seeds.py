"""Named, reproducible random streams derived from a single master seed."""

from __future__ import annotations

import numpy as np

# Fixed stream table. Adding a stream must never renumber existing entries,
# otherwise old configs stop reproducing.
STREAMS = {
    "graph": 0,
    "data": 1,
    "batches": 2,
    "schedule": 3,
    "attacks": 4,
    "noise": 5,
}


def stream(master_seed: int, name: str, *members: int) -> np.random.Generator:
    """Generator for the named stream, optionally split per member id.

    Each (stream, members) combination yields an independent generator, so
    toggling one randomized component never reshuffles the draws of another.
    """
    try:
        key = STREAMS[name]
    except KeyError:
        raise ValueError(
            f"unknown stream name {name!r}; expected one of {sorted(STREAMS)}"
        ) from None
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(key, *map(int, members)))
    return np.random.default_rng(ss)


# numpy's SeedSequence mixing constants and PCG64's multiplier. numpy keeps
# both streams stable across releases; stream_states reproduces them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value: int) -> list:
    """An int as little-endian uint32 words, as SeedSequence splits it."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed words must be nonnegative, got {value}")
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


def stream_states(master_seed: int, name: str, count: int, *members: int) -> list:
    """PCG64 (state, inc) pairs of stream(master_seed, name, i, *members).

    One entry per i in range(count). The SeedSequence pools of all count
    keys are mixed in one uint32 numpy pass; setting a PCG64 to an entry's
    state gives exactly the generator stream() would build.
    """
    try:
        key = STREAMS[name]
    except KeyError:
        raise ValueError(
            f"unknown stream name {name!r}; expected one of {sorted(STREAMS)}"
        ) from None
    count = int(count)
    if not 0 <= count <= _MASK32:
        raise ValueError(f"member count must lie in 0..2**32-1, got {count}")
    run = _words(master_seed)
    # SeedSequence pads a short run entropy to the pool size when a spawn
    # key follows, so keys never collide with longer seeds.
    run += [0] * (_POOL - len(run))
    cols = [np.full(count, w, np.uint32) for w in run + _words(key)]
    cols.append(np.arange(count, dtype=np.uint32))
    for member in members:
        cols += [np.full(count, w, np.uint32) for w in _words(member)]
    hash_const = _INIT_A
    shift = np.uint32(16)

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> shift)

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ (out >> shift)

    pool = [hashmix(cols[i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(cols)):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(cols[src]))
    # generate_state(4, uint64): eight uint32 words cycled from the pool.
    hash_const = _INIT_B
    words = []
    for t in range(8):
        value = pool[t % _POOL] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append(value ^ (value >> shift))
    seeds64 = np.stack(words, axis=1).astype("<u4").view("<u8").tolist()
    states = []
    for s_hi, s_lo, i_hi, i_lo in seeds64:
        # PCG64's setseq seeding: inc = 2 initseq + 1, then two LCG steps
        # around adding the initial state.
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def as_rng(seed) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(int(seed))
