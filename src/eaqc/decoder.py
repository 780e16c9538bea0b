"""Syndrome-based sum-product decoders on Tanner graphs.

Binary decoding runs two independent graphs: the X-check graph explains
the Z error component from sx, the Z-check graph explains the X component
from sz.  Quaternary decoding works on the joint graph whose X-check rows
carry edge label omega and Z-check rows label 1; messages are scalarized
per edge into a single log ratio of the commuting pair against the
anticommuting pair, pushed through the same tanh check rule, and fanned
back out by commutation class.

All cores are vectorized over a batch of trials; the single-shot
functions wrap a batch of one.  Numerical guards: tanh-domain clip at
1 - 1e-12 and a message clamp at |mu| <= 30.  Hard decisions break ties
toward the lowest Pauli index in the order (I, X, Y, Z).  Convergence is
checked before the first message exchange and after every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eaqc.clifford import PauliVector, category_bits
from eaqc.eacode import EaCode
from eaqc.gf2 import DimensionMismatch

__all__ = [
    "LABEL_NONE",
    "LABEL_ONE",
    "LABEL_OMEGA",
    "TannerGraph",
    "DecoderConfig",
    "DecodeOutcome",
    "build_graphs",
    "syndrome",
    "syndrome_batch",
    "decode_binary",
    "decode_binary_batch",
    "decode_quaternary",
    "decode_quaternary_batch",
]

LABEL_NONE = 0   # plain binary graph
LABEL_ONE = 1    # Z-check rows of the joint graph: {I, Z} commute
LABEL_OMEGA = 2  # X-check rows of the joint graph: {I, X} commute

_ALGORITHMS = ("binary-spa", "quaternary-spa", "quaternary-minsum")
_CLIP = 1.0 - 1e-12
_CLAMP = 30.0


@dataclass(frozen=True)
class _VarGroups:
    """Edges sorted by variable with reduceat segment starts."""

    eb: np.ndarray
    et: np.ndarray
    starts: np.ndarray
    var_ids: np.ndarray


@dataclass(frozen=True)
class TannerGraph:
    n: int
    h: np.ndarray
    idx: np.ndarray
    mask: np.ndarray
    row_kind: np.ndarray
    groups_all: _VarGroups
    groups_one: _VarGroups
    groups_omega: _VarGroups

    @property
    def checks(self) -> int:
        return self.h.shape[0]


def _group(eb: np.ndarray, et: np.ndarray, ev: np.ndarray) -> _VarGroups:
    order = np.argsort(ev, kind="stable")
    eb, et, ev = eb[order], et[order], ev[order]
    if ev.size:
        var_ids, starts = np.unique(ev, return_index=True)
    else:
        var_ids = np.zeros(0, dtype=np.int64)
        starts = np.zeros(0, dtype=np.int64)
    return _VarGroups(eb, et, starts, var_ids)


def _graph(h_dense: np.ndarray, row_kind: np.ndarray) -> TannerGraph:
    h = np.ascontiguousarray(h_dense.astype(np.uint8) & 1)
    checks, n = h.shape
    degrees = h.sum(axis=1, dtype=np.int64)
    dmax = max(1, int(degrees.max(initial=0)))
    idx = np.full((checks, dmax), n, dtype=np.int64)
    mask = np.zeros((checks, dmax), dtype=bool)
    for b in range(checks):
        cols = np.nonzero(h[b])[0]
        idx[b, : cols.size] = cols
        mask[b, : cols.size] = True
    eb, et = np.nonzero(mask)
    ev = idx[eb, et]
    kind = np.ascontiguousarray(row_kind.astype(np.int8))
    one = kind[eb] == LABEL_ONE
    omega = kind[eb] == LABEL_OMEGA
    return TannerGraph(
        n=n,
        h=h,
        idx=idx,
        mask=mask,
        row_kind=kind,
        groups_all=_group(eb, et, ev),
        groups_one=_group(eb[one], et[one], ev[one]),
        groups_omega=_group(eb[omega], et[omega], ev[omega]),
    )


def build_graphs(code: EaCode) -> tuple[TannerGraph, TannerGraph, TannerGraph]:
    """X graph, Z graph, and the labeled joint graph.

    All three range over the n transmitted qubits only; ebit columns are
    not part of decoding.
    """
    hx = code.hx.to_dense()
    hz = code.hz.to_dense()
    graph_x = _graph(hx, np.full(hx.shape[0], LABEL_NONE, np.int8))
    graph_z = _graph(hz, np.full(hz.shape[0], LABEL_NONE, np.int8))
    joint_kind = np.concatenate([
        np.full(hx.shape[0], LABEL_OMEGA, np.int8),
        np.full(hz.shape[0], LABEL_ONE, np.int8),
    ])
    joint = _graph(np.vstack([hx, hz]), joint_kind)
    return graph_x, graph_z, joint


def syndrome_batch(
    code: EaCode, x: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """GF(2) syndromes of a batch of errors on the n transmitted qubits.

    x and z are (T, n) bit arrays; returns sx = z·Hxᵀ and sz = x·Hzᵀ with
    one row per error.  Ebits are noise-free.
    """
    hx = code.hx.to_dense().astype(np.int64)
    hz = code.hz.to_dense().astype(np.int64)
    sx = (z.astype(np.int64) @ hx.T) % 2
    sz = (x.astype(np.int64) @ hz.T) % 2
    return sx.astype(np.uint8), sz.astype(np.uint8)


def syndrome(code: EaCode, e: PauliVector) -> tuple[np.ndarray, np.ndarray]:
    """The syndrome pair (sx, sz) of one error on the n transmitted qubits."""
    if e.qubits != code.n:
        raise DimensionMismatch(
            f"error acts on {e.qubits} qubits, code transmits {code.n}"
        )
    sx, sz = syndrome_batch(code, e.x[None, :], e.z[None, :])
    return sx[0], sz[0]


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


@dataclass(frozen=True)
class DecodeOutcome:
    estimate: PauliVector
    converged: bool
    iterations: int


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


def _scatter_sum(mu: np.ndarray, groups: _VarGroups, n: int) -> np.ndarray:
    trials = mu.shape[0]
    out = np.zeros((trials, n))
    if groups.eb.size:
        contrib = mu[:, groups.eb, groups.et]
        out[:, groups.var_ids] = np.add.reduceat(contrib, groups.starts, axis=1)
    return out


def _padded_gather(tot: np.ndarray, idx: np.ndarray) -> np.ndarray:
    padded = np.concatenate([tot, np.zeros((tot.shape[0], 1))], axis=1)
    return padded[:, idx]


def _binary_graph_core(
    g: TannerGraph, s: np.ndarray, prior: float, l_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    trials = s.shape[0]
    sign_row = 1.0 - 2.0 * s.astype(np.float64)
    mu = np.zeros((trials,) + g.mask.shape)
    est = np.zeros((trials, g.n), dtype=np.uint8)
    conv = np.zeros(trials, dtype=bool)
    iters = np.full(trials, l_max, dtype=np.int64)
    done = np.zeros(trials, dtype=bool)
    ht = g.h.T.astype(np.int64)
    cur = est
    for it in range(l_max + 1):
        tot = prior + _scatter_sum(mu, g.groups_all, g.n)
        cur = (tot < 0.0).astype(np.uint8)
        s_hat = (cur.astype(np.int64) @ ht) % 2
        hit = np.all(s_hat == s, axis=1) & ~done
        est[hit] = cur[hit]
        iters[hit] = it
        conv[hit] = True
        done |= hit
        if done.all() or it == l_max:
            break
        nu = _padded_gather(tot, g.idx) - mu
        mu = _check_messages_exact(nu, g.mask, sign_row)
    est[~done] = cur[~done]
    return est, conv, iters


def decode_binary_batch(
    graph_x: TannerGraph,
    graph_z: TannerGraph,
    sx: np.ndarray,
    sz: np.ndarray,
    cfg: DecoderConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Estimate (x, z) components trial-wise; also convergence and counts."""
    if cfg.algorithm != "binary-spa":
        raise ValueError("binary decoding requires the binary-spa algorithm")
    p = _safe_p(cfg.p_d)
    prior = float(np.log((1.0 - p) / p))
    est_z, conv_x, it_x = _binary_graph_core(graph_x, sx, prior, cfg.l_max)
    est_x, conv_z, it_z = _binary_graph_core(graph_z, sz, prior, cfg.l_max)
    return est_x, est_z, conv_x & conv_z, np.maximum(it_x, it_z)


def decode_binary(
    graph_x: TannerGraph,
    graph_z: TannerGraph,
    sx: np.ndarray,
    sz: np.ndarray,
    cfg: DecoderConfig,
) -> DecodeOutcome:
    ex, ez, conv, iters = decode_binary_batch(
        graph_x, graph_z, np.atleast_2d(sx), np.atleast_2d(sz), cfg
    )
    return DecodeOutcome(PauliVector(ex[0], ez[0]), bool(conv[0]), int(iters[0]))


def _quat_decision(
    m0: float, s_one: np.ndarray, s_omega: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    l_x = m0 - s_one
    l_y = m0 - s_one - s_omega
    l_z = m0 - s_omega
    stacked = np.stack([np.zeros_like(l_x), l_x, l_y, l_z], axis=-1)
    ex, ez = category_bits(np.argmax(stacked, axis=-1))
    return l_x, l_y, l_z, ex, ez


def _quat_core(
    g: TannerGraph, s: np.ndarray, m0: float, l_max: int, minsum: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    trials = s.shape[0]
    sign_row = 1.0 - 2.0 * s.astype(np.float64)
    kernel = _check_messages_minsum if minsum else _check_messages_exact

    def fmax(a, b):
        if minsum:
            return np.maximum(a, b)
        return np.maximum(a, b) + np.log1p(np.exp(-np.abs(a - b)))

    hx_t = g.h[g.row_kind == LABEL_OMEGA].T.astype(np.int64)
    hz_t = g.h[g.row_kind == LABEL_ONE].T.astype(np.int64)
    s_x = s[:, g.row_kind == LABEL_OMEGA]
    s_z = s[:, g.row_kind == LABEL_ONE]
    is_omega = (g.row_kind[:, None] == LABEL_OMEGA) & g.mask

    mu = np.zeros((trials,) + g.mask.shape)
    est_x = np.zeros((trials, g.n), dtype=np.uint8)
    est_z = np.zeros((trials, g.n), dtype=np.uint8)
    conv = np.zeros(trials, dtype=bool)
    iters = np.full(trials, l_max, dtype=np.int64)
    done = np.zeros(trials, dtype=bool)
    cur_x, cur_z = est_x, est_z
    for it in range(l_max + 1):
        s_one = _scatter_sum(mu, g.groups_one, g.n)
        s_omega = _scatter_sum(mu, g.groups_omega, g.n)
        l_x, l_y, l_z, cur_x, cur_z = _quat_decision(m0, s_one, s_omega)
        s_hat = np.concatenate(
            [(cur_z.astype(np.int64) @ hx_t) % 2,
             (cur_x.astype(np.int64) @ hz_t) % 2],
            axis=1,
        )
        want = np.concatenate([s_x, s_z], axis=1)
        hit = np.all(s_hat == want, axis=1) & ~done
        est_x[hit] = cur_x[hit]
        est_z[hit] = cur_z[hit]
        iters[hit] = it
        conv[hit] = True
        done |= hit
        if done.all() or it == l_max:
            break
        lxg = _padded_gather(l_x, g.idx)
        lyg = _padded_gather(l_y, g.idx)
        lzg = _padded_gather(l_z, g.idx)
        m_omega = fmax(0.0, lxg) - fmax(lyg + mu, lzg + mu)
        m_one = fmax(0.0, lzg) - fmax(lxg + mu, lyg + mu)
        m_edges = np.where(is_omega, m_omega, m_one)
        mu = kernel(m_edges, g.mask, sign_row)
    est_x[~done] = cur_x[~done]
    est_z[~done] = cur_z[~done]
    return est_x, est_z, conv, iters


def decode_quaternary_batch(
    joint: TannerGraph,
    sx: np.ndarray,
    sz: np.ndarray,
    cfg: DecoderConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    if cfg.algorithm not in ("quaternary-spa", "quaternary-minsum"):
        raise ValueError("joint decoding requires a quaternary algorithm")
    p = _safe_p(cfg.p_d)
    m0 = float(np.log(p / (3.0 * (1.0 - p))))
    s = np.concatenate([np.atleast_2d(sx), np.atleast_2d(sz)], axis=1)
    return _quat_core(
        joint, s, m0, cfg.l_max, minsum=cfg.algorithm == "quaternary-minsum"
    )


def decode_quaternary(
    joint: TannerGraph,
    sx: np.ndarray,
    sz: np.ndarray,
    cfg: DecoderConfig,
) -> DecodeOutcome:
    ex, ez, conv, iters = decode_quaternary_batch(
        joint, np.atleast_2d(sx), np.atleast_2d(sz), cfg
    )
    return DecodeOutcome(PauliVector(ex[0], ez[0]), bool(conv[0]), int(iters[0]))
