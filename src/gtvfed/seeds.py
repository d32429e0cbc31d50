"""Named, reproducible random streams derived from a single master seed."""

from __future__ import annotations

import functools

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
_MASK64 = (1 << 64) - 1
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


# SeedSequence's two word maps. Each takes Python ints or uint32 arrays; the
# masks keep ints to 32 bits and leave arrays, which wrap, unchanged.
def _hashmix(value, hash_const):
    """(hash of value, next hash constant)."""
    value = value ^ hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    out = (((_MIX_L * x) & _MASK32) - ((_MIX_R * y) & _MASK32)) & _MASK32
    return out ^ (out >> 16)


def _mix_in(pool, hash_const, words):
    """Mix entropy words into a (4, count) uint32 pool. A word is an int,
    the same for every entry, or a (count,) uint32 column."""
    for word in words:
        hashes = []
        for _ in range(_POOL):
            h, hash_const = _hashmix(word, hash_const)
            hashes.append(h)
        pool = _mix(pool, np.array(hashes, dtype=np.uint32).reshape(_POOL, -1))
    return pool, hash_const


@functools.lru_cache(maxsize=8)
def _member_pool(master_seed: int, key: int, count: int):
    """Pool and hash constant of stream(master_seed, key, i) for i in
    range(count), before any further member words are mixed in."""
    run = _words(master_seed)
    # SeedSequence pads a short run entropy to the pool size when a spawn
    # key follows, so keys never collide with longer seeds.
    run += [0] * (_POOL - len(run))
    hash_const, pool = _INIT_A, []
    for word in run[:_POOL]:
        h, hash_const = _hashmix(word, hash_const)
        pool.append(h)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                h, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], h)
    tail = run[_POOL:] + _words(key) + [np.arange(count, dtype=np.uint32)]
    pool, hash_const = _mix_in(np.array(pool, dtype=np.uint32)[:, None], hash_const, tail)
    pool.flags.writeable = False
    return pool, hash_const


def _state_constants():
    """XOR and multiplier rows of generate_state's eight output words."""
    xor, mul, hash_const = [], [], _INIT_B
    for _ in range(8):
        xor.append(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        mul.append(hash_const)
    return (np.array(v, dtype=np.uint32)[:, None] for v in (xor, mul))


_STATE_XOR, _STATE_MUL = _state_constants()
_CYCLE = np.arange(8) % _POOL


def _mulhi(x, y: int):
    """High 64 bits of the products of uint64 array x with the int y < 2**64."""
    lo32, s32 = np.uint64(_MASK32), np.uint64(32)
    x0, x1 = x & lo32, x >> s32
    y0, y1 = y & _MASK32, y >> 32
    p01, p10 = x0 * y1, x1 * y0
    mid = ((x0 * y0) >> s32) + (p01 & lo32) + (p10 & lo32)
    return x1 * y1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)


def stream_states(master_seed: int, name: str, count: int, *members: int) -> list:
    """PCG64 (state, inc) pairs of stream(master_seed, name, i, *members).

    One entry per i in range(count). The SeedSequence pools of all count
    keys are mixed as uint32 arrays; the pool up to the member index is
    cached per (master_seed, name, count), so a call mixes only members.
    Setting a PCG64 to an entry's state gives exactly the generator
    stream() would build.
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
    pool, hash_const = _member_pool(int(master_seed), key, count)
    words = [w for member in members for w in _words(member)]
    pool, _ = _mix_in(pool, hash_const, words)
    # generate_state(4, uint64): eight uint32 words cycled from the pool,
    # read as the seed (hi, lo) and initseq (hi, lo) halves.
    out = pool[_CYCLE] ^ _STATE_XOR
    out *= _STATE_MUL
    out ^= out >> np.uint32(16)
    s_hi, s_lo, i_hi, i_lo = np.ascontiguousarray(out.T).view("<u8").T
    # PCG64's setseq seeding in 128-bit (hi, lo) halves: inc = 2 initseq + 1,
    # state = (inc + seed) * multiplier + inc.
    one = np.uint64(1)
    inc_hi = (i_hi << one) | (i_lo >> np.uint64(63))
    inc_lo = (i_lo << one) | one
    a_lo = inc_lo + s_lo
    a_hi = inc_hi + s_hi + (a_lo < inc_lo)
    m_hi, m_lo = _PCG_MULT >> 64, _PCG_MULT & _MASK64
    p_lo = a_lo * m_lo
    p_hi = _mulhi(a_lo, m_lo) + a_lo * m_hi + a_hi * m_lo
    st_lo = p_lo + inc_lo
    st_hi = p_hi + inc_hi + (st_lo < p_lo)
    return [
        ((sh << 64) | sl, (ih << 64) | il)
        for sh, sl, ih, il in zip(
            st_hi.tolist(), st_lo.tolist(), inc_hi.tolist(), inc_lo.tolist()
        )
    ]


def streams(master_seed: int, name: str, count: int, *members: int):
    """Yield stream(master_seed, name, i, *members) for i in range(count).

    All count states come from one stream_states pass, and one Generator is
    restated to each in turn, so a run builds one Generator instead of
    count. The yielded object is valid only until the next iteration, which
    overwrites its state: draw from it before advancing, and never keep it.
    """
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    pair = {}
    state = {"bit_generator": "PCG64", "state": pair, "has_uint32": 0, "uinteger": 0}
    for s, inc in stream_states(master_seed, name, count, *members):
        pair["state"], pair["inc"] = s, inc
        bitgen.state = state
        yield gen


def as_rng(seed) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(int(seed))
