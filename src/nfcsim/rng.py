"""Seeded substreams: the one way the simulator makes a random generator."""

from __future__ import annotations  # keeps numpy.random unimported until first use

import numpy as np

_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# The purpose keys of a run's streams. failures.seed defaults to the
# scenario seed, so the four must differ. An rlnc trial t draws
# substream(seed, t) and an rlnc run draws no other stream.
DATA, LOSS, INIT, DROPOUT = 0, 1, 2, 3


def substream(seed: int, *key: int) -> np.random.Generator:
    """Named substream: independent draws per (seed, purpose, ...) key.

    Each randomness source (source data, weight init, dropout, message
    loss, one RLNC trial) draws from its own substream, so enabling or
    disabling one never perturbs another's draws.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _hash_constants(init: int, mult: int, start: int, stop: int) -> np.ndarray:
    """(2, stop - start): SeedSequence's xor and multiply words for hashes start..stop-1."""
    pairs = [(init, init := init * mult & 0xFFFFFFFF) for _ in range(stop)]
    return np.array(pairs[start:], dtype=np.uint32).T


def _hashmix(value, x, y):
    value = (value ^ x) * y
    return value ^ value >> 16


def _mix(a, b):
    a = a * 0xCA01F9DD - b * 0x4973F715
    return a ^ a >> 16


def substream_integers(seed: int, start: int, stop: int, size: int, bits: int,
                       dtype: np.dtype) -> np.ndarray:
    """Row i is ``substream(seed, start + i).integers(0, 2**bits, size, dtype)``.

    dtype is uint8 or uint16. SeedSequence's hash constants do not depend
    on the data, so its spawn-key rounds run as uint32 arrays over the
    block. One PCG64 is re-seeded per row through its state (two 128-bit
    LCG steps); over a power-of-two range, numpy's buffered Lemire draw
    is the top ``bits`` of each raw byte or half-word.
    """
    pool = np.random.SeedSequence(seed).pool  # the key's words mix in after the seed's
    skip = 4 * max(4, -(-int(seed).bit_length() // 32))  # hashes spent on the seed's words
    xor, mul = _hash_constants(0x43B0D7E5, 0x931E8875, skip, skip + 8).reshape(2, 2, 4)
    t = np.arange(start, stop, dtype=np.uint64)[:, None]
    for word in (0, 1) if stop > 1 << 32 else (0,):  # key t takes two words from 2^32
        mixed = _mix(pool, _hashmix((t >> 32 * word).astype(np.uint32), xor[word], mul[word]))
        pool = np.where(t >> 32 > 0, mixed, pool) if word else mixed
    generate = _hash_constants(0x8B51F9DD, 0x58F38DED, 0, 8).reshape(2, 2, 4)
    state = _hashmix(pool[:, None], *generate).reshape(-1, 8)  # generate_state(4, uint64)
    dtype = np.dtype(dtype).newbyteorder("<")
    raw = np.empty((stop - start, -(-size * dtype.itemsize // 8)), dtype="<u8")
    bit_generator = np.random.PCG64(0)
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(raw, state.astype("<u4").view("<u8").tolist()):
        inc = (i_hi << 65 | i_lo << 1 | 1) % (1 << 128)
        lcg = (((s_hi << 64 | s_lo) + inc) * _PCG64_MULTIPLIER + inc) % (1 << 128)
        bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": lcg, "inc": inc}}
        row[:] = bit_generator.random_raw(row.size)
    draws = raw.view(dtype)[:, :size] >> (8 * dtype.itemsize - bits)
    return draws.astype(dtype.newbyteorder("="), copy=False)
