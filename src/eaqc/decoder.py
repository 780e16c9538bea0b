"""Syndrome-based sum-product decoders on one Tanner graph.

`build_graphs` returns a single graph over the rows of [hx; hz].  Its
variables are the 2n bits of the n transmitted qubits, interleaved:
column 2j is the x bit of qubit j and column 2j + 1 its z bit.  X-check
rows read z bits and Z-check rows x bits; ebit columns are not part of
decoding.  Summing the check messages into each column thus gives, per
qubit, the pair (s_one, s_omega): the Z-check (label 1) and the X-check
(label omega) messages into it.

One flooding loop, `_flood`, serves both algorithms:

* binary-spa takes prior + s as the log ratio of each bit, and runs each
  check block as a graph of its own: the X-check rows explain the z bits
  from sx, the Z-check rows the x bits from sz.  A block freezes its bits
  of a trial's estimate when it meets its own syndrome, so the outputs
  equal two separate graph runs; a trial converges when both blocks have
  and reports the later of the two iteration counts.
* quaternary-spa (Poulin & Chung, QIC 8, 987, 2008) takes
  l_x = m0 - s_one, l_z = m0 - s_omega and l_y = l_x - s_omega as the log
  ratios of X, Y and Z against I.  Each edge sends the single log ratio
  fmax(0, a) - fmax(l_y + mu, b + mu) of the pair commuting with its row
  against the anticommuting pair, where a and b are the commuting and
  anticommuting single-Pauli ratios (l_x and l_z on an X-check row, l_z
  and l_x on a Z-check row), and fmax is the Jacobian logarithm.  Both
  blocks freeze together.

Each pass runs these steps on the trials still decoding, a few numpy
calls each:

1. Sum: one gather of the messages by column and one `np.add.reduceat`.
2. Decide: binary-spa compares prior + s with 0.  Quaternary writes l_x,
   l_y and l_z next to a 0 for I in a (trials, n, 4) buffer, takes the
   argmax (ties go to the lowest index in the order I, X, Y, Z) and looks
   the (x, z) bits of each category up in one table.
3. Check: each row's bits and its own syndrome bit are gathered and
   XOR-reduced, and one boolean product tells which blocks still have an
   unmet row.  Only on a pass where some block meets its syndrome are
   estimates written back, and only then do finished trials leave the
   batch, so a batch costs the sum of its trials' iterations rather than
   its slowest trial times the batch size.
4. Variable-to-check messages: binary-spa sends prior + s - mu.
   Quaternary's fmax(0, a) depends on the column alone, so it is
   evaluated once per column (2n values rather than one per edge) and
   gathered; one fmax call computes it together with each edge's
   fmax(l_y + mu, b + mu).
5. Check rule: tanh of half each message, the product over the other
   slots from two running products (`np.multiply.accumulate` forwards and
   backwards), the clip, 2·atanh times the syndrome sign (doubled once
   per call, not per pass) and the clamp.

Padding slots of rows shorter than the longest point at a column 2n
whose bit is 0 and whose log ratio is +inf, so they send +inf, which the
tanh rule multiplies in as 1; no mask is applied.  Every float operation
has the operands and the order of the plain formulas above, so the
outputs do not depend on batching.
Numerical guards: tanh-domain clip at 1 - 1e-12 and a message clamp at
|mu| <= 30.  Convergence is checked before the first message exchange and
after every iteration.
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

_ALGORITHMS = ("binary-spa", "quaternary-spa")
_CLIP = 1.0 - 1e-12
_CLAMP = 30.0
# (x, z) bits of the categories (I, X, Y, Z)
_BITS = np.stack(category_bits(np.arange(4)), axis=1)


@dataclass(frozen=True)
class TannerGraph:
    """The rows of [hx; hz] over the interleaved columns of n qubits.

    Column 2j is the x bit of qubit j and column 2j + 1 its z bit; rows
    below x_checks are X checks, which read z bits only.  Row b has edges
    to the columns idx[b] below 2n, in increasing order, and its padding
    slots hold 2n.  The check messages of the rows lie in a (checks + 1,
    dmax) block whose last row stays zero; edges lists the flat positions
    that each column sums, sorted by column, a column no check reads
    summing one zero of the last row, and starts[c] is the first edge of
    column c.
    """

    n: int
    x_checks: int
    idx: np.ndarray
    edges: np.ndarray
    starts: np.ndarray

    @property
    def checks(self) -> int:
        return self.idx.shape[0]


def _graph(hx: np.ndarray, hz: np.ndarray) -> TannerGraph:
    n, x_checks = hx.shape[1], hx.shape[0]
    h = np.zeros((x_checks + hz.shape[0], n, 2), np.uint8)
    h[:x_checks, :, 1] = hx
    h[x_checks:, :, 0] = hz
    rows, cols = np.nonzero(h.reshape(len(h), 2 * n))
    degree = np.bincount(rows, minlength=len(h))
    slot = np.arange(rows.size) - np.repeat(np.cumsum(degree) - degree, degree)
    idx = np.full((len(h), max(1, int(degree.max(initial=0)))), 2 * n)
    idx[rows, slot] = cols
    unread = np.setdiff1d(np.arange(2 * n), cols)
    col = np.concatenate([cols, unread])
    order = np.argsort(col, kind="stable")
    edges = np.concatenate([rows * idx.shape[1] + slot, np.full(unread.size, idx.size)])
    starts = np.searchsorted(col[order], np.arange(2 * n))
    return TannerGraph(n, x_checks, idx, edges[order], starts)


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


def _exclusive(a: np.ndarray, pre: np.ndarray, suf: np.ndarray) -> np.ndarray:
    """For each slot of a's last axis, the product of the other slots; overwrites a.

    The slots before it are multiplied in order, the slots after it in
    reverse order, then the two.  pre and suf have one more slot than a on
    that axis, and hold 1 in their first and their last slot; the rest is
    scratch.
    """
    np.multiply.accumulate(a, axis=-1, out=pre[..., 1:])
    np.multiply.accumulate(a[..., ::-1], axis=-1, out=suf[..., -2::-1])
    return np.multiply(pre[..., :-1], suf[..., 1:], out=a)


def _clip(a: np.ndarray, bound: float, out: np.ndarray) -> np.ndarray:
    """np.clip(a, -bound, bound, out=out), in two cheaper calls."""
    return np.minimum(np.maximum(a, -bound, out=out), bound, out=out)


def _check_messages_exact(m, sign, pre, suf, out):
    """The tanh rule, 2·atanh of the product of tanh(m/2) over the other slots.

    The result lands in out, and m (trials, checks, dmax) is overwritten;
    sign (trials, checks, 1) holds each row's syndrome sign times 2; pre
    and suf are `_exclusive` buffers with 1 at their ends.  A padding
    slot's m is +inf, so it multiplies in as 1.
    """
    np.tanh(np.divide(m, 2.0, out=m), out=m)
    pe = _exclusive(m, pre, suf)
    np.arctanh(_clip(pe, _CLIP, out=pe), out=pe)
    return _clip(np.multiply(sign, pe, out=pe), _CLAMP, out=out)


def _jacobian_log(a, b):
    """log(e^a + e^b); symmetric in a and b bit for bit.

    min(a, b) - max(a, b) is -|a - b| exactly, so this equals
    max(a, b) + log1p(exp(-|a - b|)) in every bit.
    """
    hi = np.maximum(a, b)
    d = np.minimum(a, b)
    d -= hi
    np.log1p(np.exp(d, out=d), out=d)
    d += hi
    return d


def _quaternary_messages(llr, mu, pair, cross):
    """fmax(0, a) - fmax(l_y + mu, b + mu) of each edge; see `_flood`."""
    ops = llr.take(pair, axis=1)
    heads = llr.shape[1] // 2  # operands per column before those per edge
    ops[:, :, heads:] += mu.reshape(len(mu), 1, -1)
    f = _jacobian_log(ops[:, 0], ops[:, 1])
    m = f.take(cross, axis=1)
    m -= f[:, heads:].reshape(m.shape)
    return m


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
    checks, width = g.idx.shape
    s = np.concatenate([sx, sz], axis=1)
    trials = s.shape[0]
    p = _safe_p(cfg.p_d)
    binary = cfg.algorithm == "binary-spa"
    if binary:
        prior = float(np.log((1.0 - p) / p))
        # the columns of each block that freezes on its own: X checks
        # explain the z bits, Z checks the x bits
        blocks = (slice(1, 2 * n, 2), slice(0, 2 * n, 2))
        in_block = np.arange(checks)[:, None] < g.x_checks
        in_block = np.hstack([in_block, ~in_block])
        # log ratio per column; the padding column's +inf sends +inf
        llr = np.full((trials, 2 * n + 1), np.inf)
    else:
        m0 = float(np.log(p / (3.0 * (1.0 - p))))
        blocks = (slice(0, 2 * n),)
        in_block = np.ones((checks, 1), bool)
        # per qubit the ratios of (I, X, Y, Z) against I; padding slots
        # read the ratios (0, -inf, 0, +inf) of a qubit n and send +inf
        llr = np.zeros((trials, n + 1, 4))
        llr[:, n] = (0.0, -np.inf, 0.0, np.inf)
        llr = llr.reshape(trials, 4 * n + 4)
        # An edge sends fmax(0, a) - fmax(l_y + mu, b + mu), where b is its
        # own label's ratio (l_z on an X-check row) and a the other's.  One
        # fmax call takes its two operands from the two rows gathered at
        # `pair`: first (0, .) for the l_x and l_z of each column (2n + 2
        # of them, odd slots of llr), then (l_y, b) for each edge.
        heads = 2 * n + 2
        pair = np.stack([
            np.concatenate([np.zeros(heads, int), (2 * (g.idx & ~1) + 2).ravel()]),
            np.concatenate([np.arange(1, 2 * heads, 2), (2 * g.idx + 1).ravel()])])
        cross = g.idx ^ 1  # the column of a, among the first 2n + 2
    # the syndrome sign of each row, times 2
    sign = 2.0 * (1.0 - 2.0 * s.astype(np.float64))[:, :, None]
    pre = np.ones((trials, checks, width + 1))
    suf = pre.copy()
    # each row's parity reads its bits and its own syndrome bit from cur:
    # the 2n bits of the hard decision, a padding bit 0, then the syndrome
    parity = np.vstack([g.idx.T, 2 * n + 1 + np.arange(checks)])
    cur = np.zeros((trials, 2 * n + 1 + checks), np.uint8)
    cur[:, 2 * n + 1:] = s

    mu = np.zeros((trials, checks + 1, width))
    est = np.zeros((trials, 2 * n), dtype=np.uint8)
    conv = np.zeros((len(blocks), trials), dtype=bool)
    iters = np.full((len(blocks), trials), l_max, dtype=np.int64)
    # the trials still decoding, and which of their blocks have not met
    # their syndromes; mu, cur, llr and sign hold their rows
    act = np.arange(trials)
    pending = np.ones((trials, len(blocks)), bool)
    for it in range(l_max + 1 if trials else 0):
        t = act.size
        summed = np.add.reduceat(mu.reshape(t, -1).take(g.edges, axis=1), g.starts, axis=1)
        if binary:
            np.add(prior, summed, out=llr[:, :2 * n])
            np.less(llr[:, :2 * n], 0.0, out=cur[:, :2 * n])
        else:
            q, summed = llr[:, :4 * n].reshape(t, n, 4), summed.reshape(t, n, 2)
            np.subtract(m0, summed, out=q[:, :, 1::2])  # l_x, l_z
            np.subtract(q[:, :, 1], summed[:, :, 1], out=q[:, :, 2])  # l_y
            _BITS.take(q.argmax(axis=2), axis=0, out=cur[:, :2 * n].reshape(t, n, 2))
        bad = np.bitwise_xor.reduce(cur.take(parity, axis=1), axis=1)
        # the pending blocks without an unmet row
        hit = np.greater(pending, bad.view(bool) @ in_block)
        if hit.any():
            for k, cols in enumerate(blocks):
                done = act[hit[:, k]]
                est[done, cols] = cur[hit[:, k], cols]
                iters[k, done] = it
                conv[k, done] = True
            pending &= ~hit
            keep = pending.any(axis=1)
            if it < l_max and not keep.all():
                act, pending, mu, cur, llr, sign = (
                    a[keep] for a in (act, pending, mu, cur, llr, sign))
                t = act.size
                pre, suf = pre[:t], suf[:t]
                if not t:
                    break
        if it == l_max:
            break
        mu_rows = mu[:, :checks]
        if binary:
            m = llr.take(g.idx, axis=1)
            m -= mu_rows
        else:
            m = _quaternary_messages(llr, mu_rows, pair, cross)
        _check_messages_exact(m, sign, pre, suf, out=mu_rows)
    for k, cols in enumerate(blocks):
        est[act[pending[:, k]], cols] = cur[pending[:, k], cols]
    return est[:, 0::2].copy(), est[:, 1::2].copy(), conv.all(axis=0), iters.max(axis=0)


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
    """(est_x, est_z, conv, iters) of each trial under quaternary-spa."""
    if cfg.algorithm != "quaternary-spa":
        raise ValueError("joint decoding requires the quaternary-spa algorithm")
    return _flood(graph, sx, sz, cfg)


def decode_batch(
    graph: TannerGraph, sx: np.ndarray, sz: np.ndarray, cfg: DecoderConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode with whichever of the two entry points cfg.algorithm names."""
    if cfg.algorithm == "binary-spa":
        return decode_binary_batch(graph, sx, sz, cfg)
    return decode_quaternary_batch(graph, sx, sz, cfg)
