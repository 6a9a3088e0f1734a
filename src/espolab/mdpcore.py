"""Numeric primitives and keyed random streams.

Policies are categorical distributions over a small token vocabulary,
represented as unnormalized logit vectors. Every function here is a pure
function of its arguments. keyed_seeds seeds a block of keyed streams at once
as uint64 arrays, and keyed_uniforms draws from them the same bits as numpy's
SeedSequence -> PCG64 -> Generator per stream: a wide, short block all at
once as PCG64 lanes, and any other block row by row through numpy's own
generator. The one thing kept between calls is the last block keyed_uniforms
made, its lanes or its seeds, for its next call.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

__all__ = [
    "derived_rng",
    "keyed_seeds",
    "keyed_uniforms",
    "log_softmax",
    "seeded_uniforms",
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
# PCG64 multiplier, reproduced by keyed_seeds.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MULT_HI, _MULT_LO = map(np.uint64, divmod(0x2360ED051FC65DA44385DF649FCCF645, 1 << 64))

# keyed_uniforms seeds up to KEY_BLOCK consecutive last keys, aligned, at
# once, and at most SEED_ROWS rows. KEY_BLOCK is a power of two, so an aligned
# block never spans a change in the key's word count (at 2**32, 2**64, ...).
KEY_BLOCK = 32
SEED_ROWS = 2048

# keyed_uniforms draws a block as PCG64 lanes, one draw of all its streams at
# a time, when it has at least LANE_RATIO streams per draw and at most
# LANE_CELLS uniforms (1 MiB); one draw of up to 2,048 lanes costs about as
# much as filling 10-12 rows. Any other block is filled row by row.
LANE_RATIO = 16
LANE_CELLS = 1 << 17
_kept_block = {}  # keyed_uniforms' last block, its lanes or its seeds, keyed by (seeding, n)


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


def _keyed_pools(master_seed: int, key_prefix, first: int, count: int,
                 keys: int = 1) -> np.ndarray:
    """SeedSequence(master_seed, spawn_key=(*key_prefix[:-1], key_prefix[-1] + k, i)).pool
    for each k in 0 .. keys - 1 and row index i in first .. first + count - 1, as
    the columns of a 4 x (keys * count) uint32 array, k-major. The keys must
    share their word count. The first four entropy words, the seed's, are
    mixed in Python ints; every later word is mixed in as a uint32 array
    broadcast over (keys, rows)."""
    if first < 0 or first + count > 1 << 32:
        raise ValueError("keyed stream row indices must lie in [0, 2**32)")
    *head, last = key_prefix
    seed_words = _words(master_seed)
    entropy = seed_words + [0] * (4 - len(seed_words))  # padded: the key is non-empty
    for key in head:
        entropy += _words(key)
    chain = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hash(word, *next(chain)) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(chain)))
    last_words = np.array([_words(k) for k in range(last, last + keys)], dtype=np.uint32)
    rows = np.arange(first, first + count, dtype=np.uint32)
    pool = np.array(pool, dtype=np.uint32).reshape(4, 1, 1)  # (dst, key, row)
    for word in [*entropy[4:], *last_words.T[..., None], rows]:
        xors, mults = np.array(list(islice(chain, 4)), dtype=np.uint32).T.reshape(2, 4, 1, 1)
        pool = _mix(pool, _hash(word, xors, mults))
    return pool.reshape(4, keys * count)


def _state_words(pools: np.ndarray) -> np.ndarray:
    """generate_state(4, np.uint64) of each pool column of a 4 x count uint32
    array, as the columns of a 4 x count uint64 array."""
    words = _hash(np.concatenate((pools, pools)), _WORD_XORS, _WORD_MULTS)
    return words[0::2].astype(np.uint64) | words[1::2].astype(np.uint64) << np.uint64(32)


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of each 128-bit product a * b, from 32-bit halves."""
    a_hi, a_lo, b_hi, b_lo = a >> 32, a & _MASK32, b >> 32, b & _MASK32
    cross, mid = a_hi * b_lo, a_lo * b_hi
    carry = ((a_lo * b_lo >> 32) + (cross & _MASK32) + (mid & _MASK32)) >> 32
    return a_hi * b_hi + (cross >> 32) + (mid >> 32) + carry


def _lcg_step(s_hi, s_lo, inc_hi, inc_lo) -> tuple:
    """PCG64's LCG step, (state * M + inc) mod 2**128, in uint64 halves, as
    (high, low): the low word is s_lo * M_lo + inc_lo and the high word
    mulhi(s_lo, M_lo) + s_lo * M_hi + s_hi * M_lo + inc_hi plus the low
    addition's carry, each mod 2**64."""
    lo = s_lo * _MULT_LO + inc_lo
    return _mulhi(s_lo, _MULT_LO) + s_lo * _MULT_HI + s_hi * _MULT_LO + inc_hi + (lo < inc_lo), lo


def _pcg64_seeds(words: np.ndarray) -> np.ndarray:
    """(state, inc) that pcg64_set_seed gives each column's initstate
    w0 * 2**64 + w1 and initseq w2 * 2**64 + w3: inc = initseq << 1 | 1 and
    state = ((inc + initstate) * M + inc) mod 2**128, in uint64 halves. Rows
    of the 4 x count uint64 result: state high, state low, inc high, inc low."""
    s_hi, s_lo, q_hi, q_lo = words
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    t_lo = inc_lo + s_lo
    t_hi = inc_hi + s_hi + (t_lo < inc_lo)
    return np.stack((*_lcg_step(t_hi, t_lo, inc_hi, inc_lo), inc_hi, inc_lo))


def _xsl_rr_columns(seeds: np.ndarray, n: int):
    """The first n PCG64 outputs of every column of a keyed_seeds array, as
    one uint64 array a draw. Each draw steps every lane's state, then outputs
    XSL-RR of the new state, rotr64(high ^ low, high >> 58), as pcg64 does."""
    s_hi, s_lo, inc_hi, inc_lo = seeds
    for _ in range(n):
        s_hi, s_lo = _lcg_step(s_hi, s_lo, inc_hi, inc_lo)
        word, rot = s_hi ^ s_lo, s_hi >> 58
        yield word >> rot | word << (-rot & 63)


def keyed_seeds(master_seed: int, key_prefix: tuple[int, ...], first: int, count: int,
                keys: int = 1) -> np.ndarray:
    """PCG64 (state, inc) of derived_rng(master_seed, *key_prefix[:-1],
    key_prefix[-1] + k, i) for each k in 0 .. keys - 1 and row index i in
    first .. first + count - 1, as the columns of a 4 x (keys * count) uint64
    array, k-major (rows as in _pcg64_seeds). Row indices must fit one uint32
    word, and the keys must share their word count."""
    return _pcg64_seeds(_state_words(_keyed_pools(master_seed, key_prefix, first, count, keys)))


def seeded_uniforms(seeds: np.ndarray, n: int) -> np.ndarray:
    """n uniforms per column of a keyed_seeds array, one row each: one reused
    PCG64 takes the column's (state, inc) through its state setter, and
    numpy's own Generator.random fills the row."""
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    state = {}
    seeded = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    out = np.empty((seeds.shape[1], n))
    for row, (s_hi, s_lo, inc_hi, inc_lo) in zip(out, seeds.T.tolist()):
        state["state"], state["inc"] = s_hi << 64 | s_lo, inc_hi << 64 | inc_lo
        bit_generator.state = seeded
        generator.random(out=row)
    return out


def keyed_uniforms(master_seed: int, key_prefix: tuple[int, ...], first: int, count: int,
                   n: int) -> np.ndarray:
    """count x n uniforms whose row j is, bit for bit,
    derived_rng(master_seed, *key_prefix, first + j).random(n).

    The streams are seeded a block of consecutive last keys at a time (up to
    KEY_BLOCK of them, aligned, and at most SEED_ROWS rows). A block of at
    least LANE_RATIO streams per draw and at most LANE_CELLS uniforms is drawn
    whole as lanes, (x >> 11) * 2**-53 of each XSL-RR word x as
    Generator.random converts, and the result is a read-only view of them.
    Other blocks fill only the call's rows from the block's seeds. The lanes
    or the seeds are kept in place of the last block made, so consecutive
    batch indices of a run share one block. Row indices must fit one uint32
    word.
    """
    *head, last = key_prefix
    keys = KEY_BLOCK
    while keys > 1 and keys * count > SEED_ROWS:
        keys //= 2
    start = last - last % keys
    at = (last - start) * count
    lanes = keys * count
    seeding = (master_seed, (*head, start), first, count, keys)
    as_lanes = LANE_RATIO * n <= lanes and lanes * n <= LANE_CELLS
    if (seeding, n) not in _kept_block:
        _kept_block.clear()  # the old block goes before the new one is made
        block = seeds = keyed_seeds(*seeding)
        if as_lanes:
            block = np.empty((n, lanes))
            for row, words in zip(block, _xsl_rr_columns(seeds, n)):
                np.multiply(words >> 11, 2.0 ** -53, out=row)
            block.flags.writeable = False
        _kept_block[seeding, n] = block
    block = _kept_block[seeding, n][:, at:at + count]
    return block.T if as_lanes else seeded_uniforms(block, n)
