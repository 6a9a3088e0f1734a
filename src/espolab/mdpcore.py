"""Numeric primitives and keyed random streams.

Policies are categorical distributions over a small token vocabulary,
represented as unnormalized logit vectors. Everything here is a pure function
over value data. keyed_uniforms computes a block of keyed streams at once and
gives the same bits as numpy's SeedSequence -> PCG64 -> Generator per stream.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

__all__ = [
    "derived_rng",
    "keyed_uniforms",
    "log_softmax",
]

# Stream tags keep training / evaluation / initialization draws on disjoint
# branches of the same master seed.
TRAIN_STREAM = 0
EVAL_STREAM = 1
INIT_STREAM = 2


def log_softmax(logits, axis: int = -1) -> np.ndarray:
    """Convert logits to log-probabilities with max-subtraction stability.

    Works on a single logit vector or row-wise on a 2-D table. Adding a
    constant to all logits leaves the output unchanged (up to float rounding),
    and logit differences are preserved exactly up to rounding, which is what
    makes the regret signal computable from either representation.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.shape[axis] < 2:
        raise ValueError("log_softmax requires a vocabulary of at least 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("log_softmax requires finite logits")
    shifted = arr - arr.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - lse


def derived_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (master_seed, key...).

    Streams are keyed, not sequential, so any draw order across workers or
    call sites yields identical results.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


# numpy's SeedSequence hash constants (a pool of four uint32 words) and the
# PCG64 multiplier, reproduced by keyed_uniforms.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(const: int, mult: int):
    """Successive (xor, multiply) constant pairs of a SeedSequence hash
    chain: each step XORs the running constant in, then advances it by one
    multiplication and multiplies by the result."""
    while True:
        xor, const = const, const * mult & _MASK32
        yield xor, const


def _hash(value, xor, mult):
    """One hash step on uint32 words, Python ints or uint32 arrays."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    out = ((_MIX_L * x & _MASK32) - _MIX_R * y) & _MASK32
    return out ^ out >> 16


# generate_state's chain: eight words for four uint64s
_WORD_XORS, _WORD_MULTS = np.array(list(islice(_hash_consts(_INIT_B, _MULT_B), 8)),
                                   dtype=np.uint32).T[..., None]


def _words(value: int) -> list[int]:
    """uint32 words of a non-negative int, least significant first, as
    SeedSequence splits its entropy and spawn key."""
    value = int(value)
    if value < 0:
        raise ValueError("stream keys must be non-negative")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _keyed_pools(master_seed: int, key_prefix, first: int, count: int) -> np.ndarray:
    """SeedSequence(master_seed, spawn_key=(*key_prefix, i)).pool for each
    row index i in first .. first + count - 1, as the columns of a 4 x count
    uint32 array. Only the last entropy word, the row index, differs between
    rows, so every earlier word is mixed in once in Python ints."""
    if first < 0 or first + count > 1 << 32:
        raise ValueError("keyed stream row indices must lie in [0, 2**32)")
    seed_words = _words(master_seed)
    entropy = seed_words + [0] * (4 - len(seed_words))  # padded: the key is non-empty
    for key in key_prefix:
        entropy += _words(key)
    chain = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hash(word, *next(chain)) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(chain)))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, *next(chain)))
    xors, mults = np.array(list(islice(chain, 4)), dtype=np.uint32).T[..., None]
    rows = np.arange(first, first + count, dtype=np.uint32)
    return _mix(np.array(pool, dtype=np.uint32)[:, None], _hash(rows, xors, mults))


def _state_words(pools: np.ndarray) -> np.ndarray:
    """generate_state(4, np.uint64) of each pool column of a 4 x count uint32
    array, as the columns of a 4 x count uint64 array."""
    words = _hash(np.concatenate((pools, pools)), _WORD_XORS, _WORD_MULTS)
    return words[0::2].astype(np.uint64) | words[1::2].astype(np.uint64) << np.uint64(32)


def _pcg64_seed(initstate: int, initseq: int) -> tuple[int, int]:
    """(state, inc) that pcg64_set_seed gives for 128-bit initstate, initseq."""
    inc = (initseq << 1 | 1) & _MASK128
    return ((inc + initstate) * _PCG64_MULT + inc) & _MASK128, inc


def keyed_uniforms(master_seed: int, key_prefix: tuple[int, ...], first: int, count: int,
                   n: int) -> np.ndarray:
    """count x n uniforms whose row j is, bit for bit,
    derived_rng(master_seed, *key_prefix, first + j).random(n).

    The rows' SeedSequence pools and state words are hashed together as
    arrays; each row then seeds one reused PCG64 through its state setter and
    fills its row through numpy's own Generator.random. Row indices must fit
    one uint32 word.
    """
    words = _state_words(_keyed_pools(master_seed, key_prefix, first, count)).T.tolist()
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    seeded = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    out = np.empty((count, n))
    for row, (s_hi, s_lo, q_hi, q_lo) in zip(out, words):
        state, inc = _pcg64_seed(s_hi << 64 | s_lo, q_hi << 64 | q_lo)
        seeded["state"] = {"state": state, "inc": inc}
        bit_generator.state = seeded
        generator.random(out=row)
    return out
