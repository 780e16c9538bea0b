"""Syndrome-based sum-product decoders on one Tanner graph.

`build_graphs` returns a single graph over the rows of [hx; hz].  Its
variables are the 2n columns of an [x | z] layout of the n transmitted
qubits: X-check rows read the z half (columns n + j) and Z-check rows
read the x half (columns j); ebit columns are not part of decoding.
Summing check messages per column thus gives [s_one | s_omega], where
s_one collects the Z-check (label 1) messages into each qubit and s_omega
the X-check (label omega) ones.

One flooding loop, `_flood`, serves all three algorithms:

* binary-spa takes prior + [s_one | s_omega] as the log ratios of the x
  and z bits, and runs each check block as a graph of its own: the X-check
  rows explain the z half from sx, the Z-check rows the x half from sz.
  A block freezes its half of a trial's estimate when it meets its own
  syndrome, so the outputs equal two separate graph runs; a trial
  converges when both blocks have and reports the later of the two
  iteration counts.
* quaternary-spa and quaternary-minsum (Poulin & Chung, QIC 8, 987, 2008)
  take l_x = m0 - s_one, l_z = m0 - s_omega and l_y = l_x - s_omega as
  the log ratios of X, Y and Z against I.  Each edge sends the single log
  ratio fmax(0, a) - fmax(l_y + mu, b + mu) of the pair commuting with its
  row against the anticommuting pair, where a and b are the commuting and
  anticommuting single-Pauli ratios (l_x and l_z on an X-check row, l_z
  and l_x on a Z-check row).  fmax is the Jacobian logarithm, or max under
  min-sum.  Both blocks freeze together.

Messages pass through the tanh check rule (or its min-sum form) with the
syndrome sign.  Everything is vectorized over a batch of trials, and each
row depends only on its own syndrome; there are no single-shot wrappers.
A trial leaves the batch once all its blocks have converged: each pass
runs only the trials still decoding, so a batch costs the sum of its
trials' iterations rather than its slowest trial times the batch size.
Numerical guards: tanh-domain clip at 1 - 1e-12 and a message clamp at
|mu| <= 30.  Hard decisions break ties toward the lowest Pauli index in
the order (I, X, Y, Z).  Convergence, the parity of the hard decision
gathered over each row's edges against the syndrome, is checked before
the first message exchange and after every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eaqc.clifford import category_bits
from eaqc.eacode import EaCode
from eaqc.gf2 import BinaryMatrix, DimensionMismatch, matmul

__all__ = [
    "TannerGraph",
    "DecoderConfig",
    "build_graphs",
    "syndrome_batch",
    "decode_batch",
    "decode_binary_batch",
    "decode_quaternary_batch",
]

_ALGORITHMS = ("binary-spa", "quaternary-spa", "quaternary-minsum")
_CLIP = 1.0 - 1e-12
_CLAMP = 30.0


@dataclass(frozen=True)
class TannerGraph:
    """The rows of [hx; hz] over the [x | z] columns.

    Rows below x_checks are X checks.  Row b has edges to the columns
    idx[b][mask[b]]; padding slots point at column 0 and are masked.
    edges lists the flat positions of the edges in idx, sorted by column,
    and starts[i] is the first edge into column var_ids[i].
    """

    n: int
    x_checks: int
    idx: np.ndarray
    mask: np.ndarray
    edges: np.ndarray
    starts: np.ndarray
    var_ids: np.ndarray

    @property
    def checks(self) -> int:
        return self.idx.shape[0]


def _graph(hx: np.ndarray, hz: np.ndarray) -> TannerGraph:
    h = np.block([[np.zeros_like(hx), hx], [hz, np.zeros_like(hz)]])
    rows, cols = np.nonzero(h)
    degree = np.bincount(rows, minlength=h.shape[0])
    slot = np.arange(rows.size) - np.repeat(np.cumsum(degree) - degree, degree)
    idx = np.zeros((h.shape[0], max(1, int(degree.max(initial=0)))), np.int64)
    mask = np.zeros(idx.shape, dtype=bool)
    idx[rows, slot] = cols
    mask[rows, slot] = True
    order = np.argsort(cols, kind="stable")
    var_ids, starts = np.unique(cols[order], return_index=True)
    edges = (rows * idx.shape[1] + slot)[order]
    return TannerGraph(hx.shape[1], hx.shape[0], idx, mask, edges, starts, var_ids)


def build_graphs(code: EaCode) -> TannerGraph:
    """The Tanner graph of [hx; hz] on the n transmitted qubits."""
    return _graph(code.hx.to_dense(), code.hz.to_dense())


def syndrome_batch(
    code: EaCode, x: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """GF(2) syndromes of a batch of errors on the n transmitted qubits.

    x and z are (T, n) bit arrays; returns the uint8 bits sx = z·Hxᵀ and
    sz = x·Hzᵀ with one row per error, both packed products of
    `gf2.matmul`.  Ebits are noise-free.  Raises DimensionMismatch unless
    x and z are both (T, n) with one T.
    """
    if x.ndim != 2 or x.shape != z.shape or x.shape[1] != code.n:
        raise DimensionMismatch(
            f"error bits of shapes {x.shape} and {z.shape}; expected (T, {code.n}) each"
        )
    sx = matmul(BinaryMatrix.from_dense(z), code.hx.transpose())
    sz = matmul(BinaryMatrix.from_dense(x), code.hz.transpose())
    return sx.to_dense(), sz.to_dense()


@dataclass(frozen=True)
class DecoderConfig:
    algorithm: str
    p_d: float
    l_max: int = 100

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.l_max < 1:
            raise ValueError("l_max must be at least 1")
        if not 0.0 <= self.p_d <= 1.0:
            raise ValueError("p_d must lie in [0, 1]")


def _safe_p(p_d: float) -> float:
    return min(max(p_d, 1e-12), 1.0 - 1e-12)


def _exclusive_prod(a: np.ndarray) -> np.ndarray:
    pre = np.ones_like(a)
    pre[..., 1:] = np.cumprod(a, axis=-1)[..., :-1]
    rev = np.cumprod(a[..., ::-1], axis=-1)[..., ::-1]
    suf = np.ones_like(a)
    suf[..., :-1] = rev[..., 1:]
    return pre * suf


def _exclusive_min(a: np.ndarray) -> np.ndarray:
    pre = np.full_like(a, np.inf)
    pre[..., 1:] = np.minimum.accumulate(a, axis=-1)[..., :-1]
    rev = np.minimum.accumulate(a[..., ::-1], axis=-1)[..., ::-1]
    suf = np.full_like(a, np.inf)
    suf[..., :-1] = rev[..., 1:]
    return np.minimum(pre, suf)


def _check_messages_exact(m: np.ndarray, mask: np.ndarray,
                          sign_row: np.ndarray) -> np.ndarray:
    tt = np.where(mask, np.tanh(m / 2.0), 1.0)
    pe = _exclusive_prod(tt)
    mu = 2.0 * sign_row[:, :, None] * np.arctanh(np.clip(pe, -_CLIP, _CLIP))
    return np.where(mask, np.clip(mu, -_CLAMP, _CLAMP), 0.0)


def _check_messages_minsum(m: np.ndarray, mask: np.ndarray,
                           sign_row: np.ndarray) -> np.ndarray:
    sgn = np.where(mask & (m < 0), -1.0, 1.0)
    mag = np.where(mask, np.abs(m), np.inf)
    ex_sign = np.prod(sgn, axis=-1, keepdims=True) * sgn
    ex_min = np.minimum(_exclusive_min(mag), _CLAMP)
    mu = sign_row[:, :, None] * ex_sign * ex_min
    return np.where(mask, mu, 0.0)


def _jacobian_log(a, b):
    """log(e^a + e^b); symmetric in a and b bit for bit."""
    return np.maximum(a, b) + np.log1p(np.exp(-np.abs(a - b)))


def _scatter(mu: np.ndarray, g: TannerGraph) -> np.ndarray:
    """[s_one | s_omega]: the check messages summed into each column."""
    trials = mu.shape[0]
    out = np.zeros((trials, 2 * g.n))
    if g.edges.size:
        contrib = mu.reshape(trials, -1)[:, g.edges]
        out[:, g.var_ids] = np.add.reduceat(contrib, g.starts, axis=1)
    return out


def _flood(
    g: TannerGraph, sx: np.ndarray, sz: np.ndarray, cfg: DecoderConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pass messages until every block of every trial meets its syndrome."""
    sx, sz = np.atleast_2d(sx, sz)
    if sx.shape[1] != g.x_checks or sz.shape[1] != g.checks - g.x_checks:
        raise DimensionMismatch(
            f"syndromes have {sx.shape[1]} X and {sz.shape[1]} Z columns, the "
            f"graph {g.x_checks} X-check and {g.checks - g.x_checks} Z-check rows"
        )
    if sx.shape[0] != sz.shape[0]:
        raise DimensionMismatch(
            f"sx holds {sx.shape[0]} trials but sz holds {sz.shape[0]}"
        )
    n, l_max = g.n, cfg.l_max
    s = np.concatenate([sx, sz], axis=1)
    sign_row = 1.0 - 2.0 * s.astype(np.float64)
    p = _safe_p(cfg.p_d)
    binary = cfg.algorithm == "binary-spa"
    if binary:
        prior = float(np.log((1.0 - p) / p))
        # (rows, columns) of each block that freezes on its own
        blocks = ((slice(None, g.x_checks), slice(n, None)),
                  (slice(g.x_checks, None), slice(None, n)))
    else:
        m0 = float(np.log(p / (3.0 * (1.0 - p))))
        blocks = ((slice(None), slice(None)),)
        cross = (g.idx + n) % (2 * n)  # the edge's column in the other half
        qubit = g.idx % n
    minsum = cfg.algorithm == "quaternary-minsum"
    kernel = _check_messages_minsum if minsum else _check_messages_exact
    fmax = np.maximum if minsum else _jacobian_log

    trials = s.shape[0]
    mu = np.zeros((trials,) + g.mask.shape)
    est = np.zeros((trials, 2 * n), dtype=np.uint8)
    conv = np.zeros((len(blocks), trials), dtype=bool)
    iters = np.full((len(blocks), trials), l_max, dtype=np.int64)
    # the trials still decoding; mu, s, sign_row, tot and l_y hold their rows
    act = np.arange(trials)
    for it in range(l_max + 1):
        summed = _scatter(mu, g)
        if binary:
            tot = prior + summed
            cur = (tot < 0.0).astype(np.uint8)
        else:
            tot = m0 - summed  # [l_x | l_z]
            l_y = tot[:, :n] - summed[:, n:]
            stacked = np.stack(
                [np.zeros_like(l_y), tot[:, :n], l_y, tot[:, n:]], axis=-1)
            cur = np.concatenate(category_bits(np.argmax(stacked, axis=-1)), axis=1)
        met = np.bitwise_xor.reduce(cur[:, g.idx] & g.mask, axis=2) == s
        for k, (rows, cols) in enumerate(blocks):
            hit = met[:, rows].all(axis=1) & ~conv[k, act]
            est[act[hit], cols] = cur[hit, cols]
            iters[k, act[hit]] = it
            conv[k, act[hit]] = True
        if it == l_max:
            break
        keep = ~conv[:, act].all(axis=0)
        if not keep.any():
            break
        if not keep.all():
            act, mu, s, sign_row = act[keep], mu[keep], s[keep], sign_row[keep]
            tot = tot[keep]
            if not binary:
                l_y = l_y[keep]
        if binary:
            m = tot[:, g.idx] - mu
        else:
            m = fmax(0.0, tot[:, cross]) - fmax(l_y[:, qubit] + mu, tot[:, g.idx] + mu)
        mu = kernel(m, g.mask, sign_row)
    for k, (_, cols) in enumerate(blocks):
        stalled = ~conv[k, act]
        est[act[stalled], cols] = cur[stalled, cols]
    return est[:, :n], est[:, n:], conv.all(axis=0), iters.max(axis=0)


def decode_binary_batch(
    graph: TannerGraph, sx: np.ndarray, sz: np.ndarray, cfg: DecoderConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(est_x, est_z, conv, iters) of each trial under binary-spa."""
    if cfg.algorithm != "binary-spa":
        raise ValueError("binary decoding requires the binary-spa algorithm")
    return _flood(graph, sx, sz, cfg)


def decode_quaternary_batch(
    graph: TannerGraph, sx: np.ndarray, sz: np.ndarray, cfg: DecoderConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(est_x, est_z, conv, iters) of each trial under a quaternary algorithm."""
    if cfg.algorithm not in ("quaternary-spa", "quaternary-minsum"):
        raise ValueError("joint decoding requires a quaternary algorithm")
    return _flood(graph, sx, sz, cfg)


def decode_batch(
    graph: TannerGraph, sx: np.ndarray, sz: np.ndarray, cfg: DecoderConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode with whichever of the two entry points cfg.algorithm names."""
    if cfg.algorithm == "binary-spa":
        return decode_binary_batch(graph, sx, sz, cfg)
    return decode_quaternary_batch(graph, sx, sz, cfg)
