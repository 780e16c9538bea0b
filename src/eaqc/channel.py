"""Depolarizing Pauli noise with optional first-order Markov correlation.

Each qubit's marginal is (1-p_d, p_d/3, p_d/3, p_d/3) over (I, X, Y, Z);
conditioned on the previous qubit the distribution is the mixture
(1-eta)*marginal + eta*delta_previous.  The chain runs along qubit index
order with no wrap-around.

Draw order per sample, frozen for reproducibility: one uniform array u of
length n (mixture coin, u[0] unused), then one uniform array v (category
draw).  Qubit 0 takes category(v[0]); qubit j copies qubit j-1 when
u[j] < eta and takes category(v[j]) otherwise.  A generator's first 2n
uniforms are u then v, so drawing them in one call keeps this order.

Trial t of master seed s draws the uniforms of
np.random.default_rng((s, t)), reproduced without building a generator
per trial.  That generator's PCG64 state comes from SeedSequence((s, t)):
the little-endian 32-bit words of s, then those of t, are hashed into a
pool of four words, and the pool is drawn out into eight words, the
128-bit seed and the 128-bit stream.  `_seed_sequence_words` runs that
hash for every trial at once in uint32 numpy (numpy's bit_generator.pyx:
the INIT_A/MULT_A hash, the MIX_MULT_L/MIX_MULT_R mix, the INIT_B/MULT_B
draw).  PCG64's seeding step (O'Neill, "PCG", HMC-CS-2014-0905) then
gives inc = 2·stream + 1 and state = (inc + seed)·mult + inc mod 2^128,
which one reused PCG64 takes through its public `state` setter before
drawing the trial's 2n uniforms.

The uniforms of one call depend on (2n, master seed, trial count, first
trial) alone, so the last such draw is kept (`functools.lru_cache` of
one slot on `_draw`) and handed out again, marked read-only; the chain
only reads it, and every call returns fresh x and z arrays.  The
arguments are read as `gf2._count`s before the cache is consulted, so a
float seed such as 0.0 or a bool such as True raises TypeError rather
than hitting the key of seed 0 or 1.  The points of a sweep share one
seed and one trial count, and so does each decoder's sweep of one code:
when a point fits one decode chunk (every point of the criterion-08 grid
does), all of them read one draw.  A draw is one chunk's array, 16n
bytes per trial of the chunk: a full chunk is 2.8 MB on [[49,12;1]] and
[[390,132;128]], 4.2 MB on [[25,8;1]] and 8.4 MB on [[9,4;1]].  The cache
makes a new draw before it drops the kept one, so two such draws may
exist for a moment.  A point of several chunks never asks for a chunk's
draw again, so `harness.run_trials` clears the cache once each chunk is
sampled: such a point holds one draw at a time and peaks no higher than
it would without the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from eaqc.gf2 import _count

__all__ = [
    "ChannelParams",
    "category_bits",
    "sample_error_batch",
]

# numpy's SeedSequence constants, and PCG64's 128-bit multiplier
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _probability(value, name: str) -> None:
    """Raise unless value, the probability named name, lies in [0, 1].

    A bool raises TypeError, so True is not read as 1; a value outside
    [0, 1], NaN included, raises ValueError.
    """
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class ChannelParams:
    p_d: float
    eta: float

    def __post_init__(self) -> None:
        _probability(self.p_d, "p_d")
        _probability(self.eta, "eta")


def category_bits(cats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) bit arrays of Pauli categories (I, X, Y, Z) = (0, 1, 2, 3)."""
    x = ((cats == 1) | (cats == 2)).astype(np.uint8)
    z = ((cats == 2) | (cats == 3)).astype(np.uint8)
    return x, z


def _categories(v: np.ndarray, p_d: float) -> np.ndarray:
    """Map uniforms to (I, X, Y, Z) = (0, 1, 2, 3) with the marginal split."""
    cats = np.zeros(v.shape, dtype=np.int64)
    if p_d > 0.0:
        tail = v >= 1.0 - p_d
        frac = (v[tail] - (1.0 - p_d)) / p_d
        cats[tail] = 1 + np.minimum(2, (frac * 3.0).astype(np.int64))
    return cats


def _chain(u: np.ndarray, v: np.ndarray, params: ChannelParams) -> np.ndarray:
    n = u.shape[-1]
    cats = _categories(v, params.p_d)
    fresh = u >= params.eta
    fresh[..., 0] = True
    pos = np.broadcast_to(np.arange(n), u.shape)
    src = np.maximum.accumulate(np.where(fresh, pos, -1), axis=-1)
    return np.take_along_axis(cats, src, axis=-1)


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative int; [0] for 0."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _consts(start: int, mult: int, count: int) -> np.ndarray:
    """start, start·mult, start·mult², ... mod 2^32: count uint32 columns."""
    out = [start]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, np.uint32)[:, None]


def _scramble(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """((value ^ xor)·mult mod 2^32) ^ its top 16 bits, row by row."""
    value = value ^ xor
    value *= mult
    value ^= value >> np.uint32(16)
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    value = x * np.uint32(_MIX_MULT_L)
    value -= y * np.uint32(_MIX_MULT_R)
    value ^= value >> np.uint32(16)
    return value


def _seed_sequence_words(entropy: np.ndarray) -> np.ndarray:
    """generate_state(8) of SeedSequence(e) for each column e of entropy.

    entropy is a (words, trials) uint32 array; returns (8, trials) uint32.
    SeedSequence hashes one word at a time, advancing its multiplier by
    MULT_A after each, but the hashes of one mixing round are
    independent, so each round here is one call on rows that take
    successive multipliers: the pool's first hash, then each pool word's
    hash mixed into the other three, then each word beyond the pool
    mixed into all four.
    """
    size = _POOL_SIZE
    extra = max(0, len(entropy) - size)
    a = _consts(_INIT_A, _MULT_A, 1 + size * size + size * extra)
    words = np.zeros((size, entropy.shape[1]), np.uint32)
    words[:min(size, len(entropy))] = entropy[:size]
    pool = _scramble(words, a[:size], a[1:size + 1])
    k = size
    for src in range(size):
        dst = [d for d in range(size) if d != src]
        hashes = _scramble(pool[src], a[k:k + size - 1], a[k + 1:k + size])
        pool[dst] = _mix(pool[dst], hashes)
        k += size - 1
    for word in entropy[size:]:
        pool = _mix(pool, _scramble(word, a[k:k + size], a[k + 1:k + size + 1]))
        k += size
    b = _consts(_INIT_B, _MULT_B, 9)
    return _scramble(pool[np.arange(8) % size], b[:8], b[1:])


def _pcg64_states(master_seed: int, first: int, trials: int) -> list[tuple[int, int]]:
    """(state, inc) of default_rng((master_seed, t)).bit_generator, per trial."""
    states = []
    # t takes one 32-bit word below 2^32 and two from there up to 2^64
    cut = min(max(first, 2**32), first + trials)
    for lo, hi in ((first, cut), (cut, first + trials)):
        if lo == hi:
            continue
        t = np.arange(lo, hi, dtype=np.uint64)
        entropy = [np.full(hi - lo, word, np.uint32) for word in _words(master_seed)]
        entropy.append((t & np.uint64(_MASK32)).astype(np.uint32))
        if lo >= 2**32:
            entropy.append((t >> np.uint64(32)).astype(np.uint32))
        w = _seed_sequence_words(np.array(entropy)).astype(np.uint64)
        # generate_state(4, uint64) reads the words in little-endian pairs
        w = w[0::2] | w[1::2] << np.uint64(32)
        for s_hi, s_lo, q_hi, q_lo in w.T.tolist():
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
            states.append((state, inc))
    return states


def _uniforms(width: int, master_seed: int, trials: int, first: int) -> np.ndarray:
    """(trials, width): row i holds default_rng((master_seed, first + i)).random(width).

    The array is read-only and may be the one the previous call returned
    (see the module docstring).  Raises ValueError for a negative master
    seed, a negative first trial, or a trial index from 2^64 up.
    """
    width, trials = _count(width, "width"), _count(trials, "trials")
    master_seed, first = _count(master_seed, "master seed"), _count(first, "first trial")
    if master_seed < 0:
        raise ValueError(f"master seed must be non-negative, got {master_seed}")
    if first < 0 or first + trials > 2**64:
        raise ValueError(f"trials {first}..{first + trials - 1} leave [0, 2^64)")
    return _draw(width, master_seed, trials, first)


@lru_cache(maxsize=1)
def _draw(width: int, master_seed: int, trials: int, first: int) -> np.ndarray:
    """`_uniforms` of validated ints, kept for the last key.

    One PCG64 is set to each trial's state in turn.
    """
    uv = np.empty((trials, width))
    bits = np.random.PCG64(0)  # every draw follows a state set below
    gen = np.random.Generator(bits)
    for row, (state, inc) in enumerate(_pcg64_states(master_seed, first, trials)):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        gen.random(out=uv[row])
    uv.flags.writeable = False
    return uv


def sample_error_batch(
    n: int, params: ChannelParams, master_seed: int, trials: int, first: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """x and z bit arrays of shape (trials, n): trials first, first + 1, ...

    Trial t chains the first 2n uniforms of default_rng((master_seed, t)),
    so any way of splitting the trial range into batches reproduces the
    same rows.  Raises ValueError for an empty register, a negative master
    seed, a negative first trial, or a trial index from 2^64 up, and
    TypeError for a count or seed that is not an integer (`gf2._count`).
    """
    n = _count(n, "n")
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    uv = _uniforms(2 * n, master_seed, trials, first)
    return category_bits(_chain(uv[:, :n], uv[:, n:], params))
