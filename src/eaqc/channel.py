"""Depolarizing Pauli noise with optional first-order Markov correlation.

Each qubit's marginal is (1-p_d, p_d/3, p_d/3, p_d/3) over (I, X, Y, Z);
conditioned on the previous qubit the distribution is the mixture
(1-eta)*marginal + eta*delta_previous.  The chain runs along qubit index
order with no wrap-around.

Draw order per sample, frozen for reproducibility: one uniform array u of
length n (mixture coin, u[0] unused), then one uniform array v (category
draw).  Qubit 0 takes category(v[0]); qubit j copies qubit j-1 when
u[j] < eta and takes category(v[j]) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eaqc.clifford import PauliVector, category_bits

__all__ = [
    "ChannelParams",
    "trial_seed",
    "sample_error",
    "sample_error_batch",
    "max_burst_length",
]


@dataclass(frozen=True)
class ChannelParams:
    p_d: float
    eta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_d <= 1.0:
            raise ValueError(f"p_d must lie in [0, 1], got {self.p_d}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")


def trial_seed(master_seed: int, trial: int) -> tuple[int, int]:
    """Counter-style per-trial seed; feed to np.random.default_rng."""
    return (int(master_seed), int(trial))


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


def sample_error(n: int, params: ChannelParams, seed) -> PauliVector:
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    v = rng.random(n)
    x, z = category_bits(_chain(u, v, params))
    return PauliVector(x, z)


def sample_error_batch(
    n: int, params: ChannelParams, master_seed: int, trials: int
) -> tuple[np.ndarray, np.ndarray]:
    """x and z bit arrays of shape (trials, n), one row per trial seed.

    Row t equals sample_error(n, params, trial_seed(master_seed, t)), so
    any way of splitting the trial range across workers reproduces the
    same rows.
    """
    xs = np.empty((trials, n), dtype=np.uint8)
    zs = np.empty((trials, n), dtype=np.uint8)
    for t in range(trials):
        rng = np.random.default_rng(trial_seed(master_seed, t))
        u = rng.random(n)
        v = rng.random(n)
        xs[t], zs[t] = category_bits(_chain(u, v, params))
    return xs, zs


def max_burst_length(e: PauliVector) -> int:
    """Longest run of consecutive non-identity Paulis."""
    hit = (e.x | e.z).astype(np.int64)
    best = run = 0
    for h in hit:
        run = run + 1 if h else 0
        best = max(best, run)
    return best
