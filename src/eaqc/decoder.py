"""Syndrome-based sum-product decoders on one Tanner graph.

`build_graphs` returns a single graph over the rows of [hx; hz].  Its
variables are the 2n bits of the n transmitted qubits, x bits first:
column j is the x bit of qubit j and column n + j its z bit.  X-check
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

Every per-trial array keeps the trials on its last, contiguous axis: the
messages are (dmax·checks + 1, trials), the log ratios (columns, trials)
and the bits (2n + 1 + checks, trials), in the graph's column order.  A
numpy call then runs over whole rows of trials, never once per trial and
row.  Each pass runs these steps on the trials still decoding, a few
numpy calls each:

1. Sum: one gather of each column's message rows from the slot table;
   each column's sum is its first message plus the sum of the rest, added
   left to right, whatever its degree.
2. Decide: binary-spa compares prior + s with 0.  Quaternary writes l_x,
   l_z and l_y as rows of one buffer and finds the largest of 0 (for I),
   l_x, l_y and l_z by seven comparisons; ties go to the first in the
   order I, X, Y, Z, as with argmax.
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
   slots from running products forwards and backwards (as
   np.multiply.accumulate orders them; the two run side by side in one
   stacked array, so one multiply per slot extends both), the clip, and
   2·atanh times the syndrome sign (doubled once per call, not per pass).

Padding slots of rows shorter than the longest point at a column 2n
whose bit is 0 and whose log ratios make them send +inf, which the tanh
rule multiplies in as 1; no mask is applied.  Every float operation
has the operands and the order of the plain formulas above, so the
outputs do not depend on batching.
Numerical guard: the tanh-domain clip at 1 - 1e-12, which bounds every
check message by 2·atanh(1 - 1e-12) ≈ 28.33; no further clamp is needed.
Convergence is checked before the first message exchange and after every
iteration.

A trial's outputs depend on its syndrome alone, so each entry point
decodes the distinct syndromes of its batch: it finds the distinct
[sx | sz] rows (`np.unique` over one void scalar per row), runs `_flood`
once on them and copies each row's outputs to every trial that has it.
Given a `SyndromeTable`, the outputs of distinct rows decoded earlier
under the same graph and DecoderConfig (`decode_table` builds one), it
copies the rows the table holds and decodes only the rest; a table of
another graph or config raises ValueError.  Either way the outputs equal
those of decoding every trial on its own.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from eaqc.eacode import EaCode
from eaqc.gf2 import BinaryMatrix, DimensionMismatch, _matmul_words

__all__ = [
    "TannerGraph",
    "DecoderConfig",
    "build_graphs",
    "syndrome_batch",
    "SyndromeTable",
    "decode_batch",
    "decode_table",
    "decode_binary_batch",
    "decode_quaternary_batch",
]

_ALGORITHMS = ("binary-spa", "quaternary-spa")
_CLIP = 1.0 - 1e-12


@dataclass(frozen=True)
class TannerGraph:
    """The rows of [hx; hz] over the x bits, then the z bits, of n qubits.

    Column j is the x bit of qubit j and column n + j its z bit; rows
    below x_checks are X checks, which read z bits only.  Row b has edges
    to the columns idx[b] below 2n, in increasing order, and its padding
    slots hold 2n.  The check messages of slot s of row b lie in row
    s·checks + b of a (dmax·checks + 1, trials) block whose last row stays
    zero.  slots[d, c] is the row of the d-th edge of column c, its edges
    taken by increasing check row; a column of fewer edges than the most
    any column has, or of none, is padded with the zero row.
    """

    n: int
    x_checks: int
    idx: np.ndarray
    slots: np.ndarray

    @property
    def checks(self) -> int:
        return self.idx.shape[0]


def _ranks(keys: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each item's position among the items of its key; keys sorted."""
    return np.arange(keys.size) - np.repeat(np.cumsum(count) - count, count)


def _graph(hx: np.ndarray, hz: np.ndarray) -> TannerGraph:
    n, x_checks = hx.shape[1], hx.shape[0]
    checks = x_checks + hz.shape[0]
    h = np.zeros((checks, 2 * n), np.uint8)
    h[:x_checks, n:] = hx
    h[x_checks:, :n] = hz
    rows, cols = np.nonzero(h)
    degree = np.bincount(rows, minlength=checks)
    slot = _ranks(rows, degree)
    idx = np.full((checks, max(1, int(degree.max(initial=0)))), 2 * n)
    idx[rows, slot] = cols
    order = np.argsort(cols, kind="stable")
    col_degree = np.bincount(cols, minlength=2 * n)
    slots = np.full((max(1, int(col_degree.max(initial=0))), 2 * n), idx.size)
    slots[_ranks(cols[order], col_degree), cols[order]] = (
        slot[order] * checks + rows[order])
    return TannerGraph(n, x_checks, idx, slots)


def build_graphs(code: EaCode) -> TannerGraph:
    """The Tanner graph of [hx; hz] on the n transmitted qubits."""
    return _graph(code.hx.to_dense(), code.hz.to_dense())


def syndrome_batch(
    code: EaCode, x: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """GF(2) syndromes of a batch of errors on the n transmitted qubits.

    x and z are (T, n) bit arrays; returns the uint8 bits sx = z·Hxᵀ and
    sz = x·Hzᵀ with one row per error, both GF(2) products of the packed
    rows of the errors and of the check matrix, so neither is transposed.
    Ebits are noise-free.  Raises DimensionMismatch unless x and z are
    both (T, n) with one T.
    """
    if x.ndim != 2 or x.shape != z.shape or x.shape[1] != code.n:
        raise DimensionMismatch(
            f"error bits of shapes {x.shape} and {z.shape}; expected (T, {code.n}) each"
        )
    sx = _matmul_words(BinaryMatrix.from_dense(z).words, code.hx.words)
    sz = _matmul_words(BinaryMatrix.from_dense(x).words, code.hz.words)
    return sx, sz


def _set_count(config, name: str) -> None:
    """Store field name of a frozen dataclass as a plain int.

    A bool and anything without __index__ (2.5, or 100.0) raise TypeError,
    so a count field fails when its config is built rather than in the
    loop that reads it; an np.int64 becomes the int of the same value.
    """
    value = getattr(config, name)
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    object.__setattr__(config, name, operator.index(value))


@dataclass(frozen=True)
class DecoderConfig:
    algorithm: str
    p_d: float
    l_max: int = 100

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        _set_count(self, "l_max")
        if self.l_max < 1:
            raise ValueError("l_max must be at least 1")
        if not 0.0 <= self.p_d <= 1.0:
            raise ValueError("p_d must lie in [0, 1]")


def _safe_p(p_d: float) -> float:
    return min(max(p_d, 1e-12), 1.0 - 1e-12)


def _column_sums(mu: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The (columns, trials) sums of each column's messages, in slot order.

    mu is the (dmax·checks + 1, trials) message block and slots the
    graph's slot table.  Each sum is the first message plus the sum of the
    rest added left to right, as np.add.reduceat forms it for up to 8
    messages; a column's padding adds zeros after its messages.
    """
    terms = mu.take(slots, axis=0)
    for x in terms[2:]:
        terms[1] += x
    if len(terms) > 1:
        terms[0] += terms[1]
    return terms[0]


class _RuleScratch:
    """The arrays of the tanh rule on (dmax, checks, trials) messages.

    m takes the variable-to-check messages, and sign (checks, trials) holds
    each row's syndrome sign times 2.  runs (width, 2, checks, trials)
    holds the running products of `_exclusive`: runs[k, 0] of the first k
    slots, runs[k, 1] of the last k, with 1 in runs[0].  ends[k - 1] is
    the pair of slots (k - 1, width - k) that step k multiplies in.  The
    views each step reads and writes are made once, here: on a few trials,
    making them costs more than the multiplies.
    """

    def __init__(self, sign: np.ndarray, width: int):
        checks, trials = sign.shape
        self.m = np.empty((width, checks, trials))
        self.sign = sign
        self.runs = np.empty((width, 2, checks, trials))
        self.runs[0] = 1.0
        k = np.arange(1, width)
        self.ends = np.stack([k - 1, width - k], axis=1)
        runs = list(self.runs)
        self.steps = list(zip(runs[:-1], runs[1:]))
        self.halves = (self.runs[:, 0], self.runs[::-1, 1])


def _exclusive(r: _RuleScratch) -> np.ndarray:
    """For each slot of r.m's first axis, the product of the other slots.

    The slots before it are multiplied in order, the slots after it in
    reverse order, then the two, as two np.multiply.accumulate calls
    would; the result overwrites r.m.  One take puts each step's two new
    slots in place and one multiply per step extends both running
    products.
    """
    r.m.take(r.ends, axis=0, out=r.runs[1:], mode="clip")  # see _quaternary_messages
    for run, nxt in r.steps:
        np.multiply(run, nxt, out=nxt)
    return np.multiply(*r.halves, out=r.m)


def _clip(a: np.ndarray, bound: float, out: np.ndarray) -> np.ndarray:
    """np.clip(a, -bound, bound, out=out), in two cheaper calls."""
    return np.minimum(np.maximum(a, -bound, out=out), bound, out=out)


def _check_messages_exact(r: _RuleScratch, out: np.ndarray) -> np.ndarray:
    """The tanh rule, 2·atanh of the product of tanh(m/2) over the other slots.

    It reads the messages r.m and overwrites them, and the result lands in
    out.  A padding slot's m is +inf, so it multiplies in as 1.
    """
    m = r.m
    np.tanh(np.divide(m, 2.0, out=m), out=m)
    _exclusive(r)
    np.arctanh(_clip(m, _CLIP, out=m), out=m)
    return np.multiply(r.sign, m, out=out)


def _jacobian_log(a, b):
    """log(e^a + e^b), into a; symmetric in a and b bit for bit.

    min(a, b) - max(a, b) is -|a - b| exactly, so this equals
    max(a, b) + log1p(exp(-|a - b|)) in every bit.
    """
    hi = np.maximum(a, b)
    d = np.minimum(a, b, out=a)
    d -= hi
    np.log1p(np.exp(d, out=d), out=d)
    d += hi
    return d


def _quaternary_messages(llr, mu, pair, cross, out):
    """fmax(0, a) - fmax(l_y + mu, b + mu) of each edge, into out; see `_flood`."""
    ops = llr.take(pair, axis=0)
    heads = pair.shape[1] - cross.size  # operands per column before those per edge
    ops[:, heads:] += mu.reshape(-1, mu.shape[-1])
    f = _jacobian_log(ops[0], ops[1])
    # every index is in range; under mode "raise" numpy fills a copy of out
    f.take(cross, axis=0, out=out, mode="clip")
    return np.subtract(out, f[heads:].reshape(out.shape), out=out)


def _categories(l_x, l_y, l_z, x, z):
    """The (x, z) bits of each qubit's most likely category, into x and z.

    l_x, l_y and l_z are the (n, trials) ratios of X, Y and Z against I;
    x and z are boolean.  Of equal maxima the first in the order I, X, Y,
    Z wins, as with argmax.
    """
    top = np.maximum(l_x, 0.0)
    y = np.greater(l_y, top)  # Y beats I and X
    np.maximum(top, l_y, out=top)
    np.greater(l_z, top, out=z)  # Z beats I, X and Y
    np.greater(top, 0.0, out=x)  # X or Y beats I ...
    np.greater(x, z, out=x)  # ... and Z does not win
    np.bitwise_or(z, y, out=z)  # Y or Z wins


def _flood(
    g: TannerGraph, rows: np.ndarray, cfg: DecoderConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pass messages until every block of every trial meets its syndrome.

    rows holds one [sx | sz] syndrome per trial, as `_syndrome_rows` makes it.
    """
    n, l_max = g.n, cfg.l_max
    checks, width = g.idx.shape
    col = g.idx.T.copy()  # the column of each (slot, row); padding reads 2n
    s = rows.T
    trials = s.shape[1]
    p = _safe_p(cfg.p_d)
    binary = cfg.algorithm == "binary-spa"
    if binary:
        prior = float(np.log((1.0 - p) / p))
        # the bits of each block that freezes on its own: X checks
        # explain the z bits, Z checks the x bits
        blocks = (slice(n, 2 * n), slice(0, n))
        in_block = np.arange(checks) < g.x_checks
        in_block = np.vstack([in_block, ~in_block])
        # log ratio per column; the padding column's +inf sends +inf
        llr = np.full((2 * n + 1, trials), np.inf)
    else:
        m0 = float(np.log(p / (3.0 * (1.0 - p))))
        blocks = (slice(0, 2 * n),)
        in_block = np.ones((1, checks), bool)
        # the ratios against I, by row: l_x of each qubit, l_z of each
        # qubit, -inf and +inf, l_y of each qubit, and a 0.  A padding
        # slot reads -inf as its own ratio, +inf as the other and 0 as l_y,
        # so it sends +inf.
        llr = np.zeros((3 * n + 3, trials))
        llr[2 * n:2 * n + 2] = np.array([-np.inf, np.inf])[:, None]
        ys, zero = slice(2 * n + 2, 3 * n + 2), 3 * n + 2
        # An edge sends fmax(0, a) - fmax(l_y + mu, b + mu), where b is its
        # own label's ratio (l_z on an X-check row) and a the other's.  One
        # fmax call takes its two operands from the two rows gathered at
        # `pair`: first (0, .) for the ratio of each column (2n + 2 of
        # them, the padding's two included), then (l_y, b) for each edge.
        heads = 2 * n + 2
        pair = np.stack([
            np.concatenate([np.full(heads, zero), np.where(
                col < 2 * n, 2 * n + 2 + col % n, zero).ravel()]),
            np.concatenate([np.arange(heads), col.ravel()])])
        # the column of a, among the first 2n + 2
        cross = np.where(col < 2 * n, (col + n) % (2 * n), 2 * n + 1)
    # the syndrome sign of each row, times 2
    sign = 2.0 * (1.0 - 2.0 * s.astype(np.float64))
    rule = _RuleScratch(sign, width)
    # each row's parity reads its bits and its own syndrome bit from cur:
    # the 2n bits of the hard decision, a padding bit 0, then the syndrome
    parity = np.vstack([col, 2 * n + 1 + np.arange(checks)])
    cur = np.zeros((2 * n + 1 + checks, trials), bool)
    cur[2 * n + 1:] = s

    mu = np.zeros((width * checks + 1, trials))
    est = np.zeros((2 * n, trials), dtype=np.uint8)
    conv = np.zeros((len(blocks), trials), dtype=bool)
    iters = np.full((len(blocks), trials), l_max, dtype=np.int64)
    # the trials still decoding, and which of their blocks have not met
    # their syndromes; mu, cur, llr and sign hold their columns
    act = np.arange(trials)
    pending = np.ones((len(blocks), trials), bool)
    for it in range(l_max + 1 if trials else 0):
        t = act.size
        summed = _column_sums(mu, g.slots)
        if binary:
            np.add(prior, summed, out=llr[:2 * n])
            np.less(llr[:2 * n], 0.0, out=cur[:2 * n])
        else:
            np.subtract(m0, summed, out=llr[:2 * n])  # l_x, l_z
            np.subtract(llr[:n], summed[n:], out=llr[ys])
            _categories(llr[:n], llr[ys], llr[n:2 * n], cur[:n], cur[n:2 * n])
        del summed  # a view of the gathered messages, which it would keep
        bad = np.bitwise_xor.reduce(cur.take(parity, axis=0), axis=0)
        # the pending blocks without an unmet row
        hit = np.greater(pending, in_block @ bad)
        if np.count_nonzero(hit):
            for k, rows in enumerate(blocks):
                done = act[hit[k]]
                est[rows, done] = cur[rows, hit[k]]
                iters[k, done] = it
                conv[k, done] = True
            pending &= ~hit
            keep = pending.any(axis=0)
            if it < l_max and not keep.all():
                act = act[keep]
                pending, mu, cur, llr, sign = (
                    a[:, keep] for a in (pending, mu, cur, llr, sign))
                t = act.size
                if not t:
                    break
                del rule  # free the old arrays before making the new
                rule = _RuleScratch(sign, width)
        if it == l_max:
            break
        mu_rows = mu[:-1].reshape(width, checks, t)
        if binary:
            llr.take(col, axis=0, out=rule.m, mode="clip")  # see _quaternary_messages
            np.subtract(rule.m, mu_rows, out=rule.m)
        else:
            _quaternary_messages(llr, mu_rows, pair, cross, out=rule.m)
        _check_messages_exact(rule, out=mu_rows)
    for k, rows in enumerate(blocks):
        est[rows, act[pending[k]]] = cur[rows, pending[k]]
    return est[:n].T.copy(), est[n:].T.copy(), conv.all(axis=0), iters.max(axis=0)


@dataclass(frozen=True)
class SyndromeTable:
    """The decoder's outputs on a set of distinct syndromes, each decoded once.

    rows holds the distinct [sx | sz] rows, as uint8 and sorted as
    np.unique sorts their bytes; est_x[i], est_z[i], conv[i] and iters[i]
    are the outputs of rows[i] under graph and config.  A decode call
    given the table copies the outputs of the rows it finds there.
    """

    graph: TannerGraph
    config: DecoderConfig
    rows: np.ndarray
    est_x: np.ndarray
    est_z: np.ndarray
    conv: np.ndarray
    iters: np.ndarray


def _syndrome_rows(g: TannerGraph, sx: np.ndarray, sz: np.ndarray) -> np.ndarray:
    """The (trials, checks) uint8 rows [sx | sz], C-contiguous.

    Raises DimensionMismatch unless sx and sz hold one trial count and the
    graph's X-check and Z-check counts of columns.
    """
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
    return np.ascontiguousarray(np.hstack([sx, sz]), dtype=np.uint8)


def _keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a C-contiguous uint8 array as one void scalar of its bytes."""
    return rows.view(f"V{rows.shape[1]}").ravel()


def _rows(keys: np.ndarray) -> np.ndarray:
    """The uint8 rows of `_keys`' void scalars."""
    return keys.view(np.uint8).reshape(len(keys), keys.dtype.itemsize)


def _same_graph(a: TannerGraph, b: TannerGraph) -> bool:
    return a is b or (a.n == b.n and a.x_checks == b.x_checks
                      and np.array_equal(a.idx, b.idx)
                      and np.array_equal(a.slots, b.slots))


def _decode(
    graph: TannerGraph, sx: np.ndarray, sz: np.ndarray, cfg: DecoderConfig,
    known: SyndromeTable | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode each distinct syndrome of the batch once, and copy to the rest.

    The rows found in known are copied from it; the others go through one
    `_flood` call.  A trial's outputs depend on its syndrome alone, so
    this equals decoding every trial.
    """
    if known is not None and not (known.config == cfg
                                  and _same_graph(known.graph, graph)):
        raise ValueError("the syndrome table was decoded under another "
                         "graph or DecoderConfig")
    keys, inverse = np.unique(_keys(_syndrome_rows(graph, sx, sz)),
                              return_inverse=True)
    rows, count, n = _rows(keys), len(keys), graph.n
    out = (np.empty((count, n), np.uint8), np.empty((count, n), np.uint8),
           np.empty(count, bool), np.empty(count, np.int64))
    new = np.ones(count, bool)
    if known is not None and len(known.rows):
        table = _keys(known.rows)
        at = np.minimum(np.searchsorted(table, keys), len(table) - 1)
        new = table[at] != keys
        for part, value in zip(out, (known.est_x, known.est_z, known.conv, known.iters)):
            part[~new] = value[at[~new]]
    if new.any():
        for part, value in zip(out, _flood(graph, rows[new], cfg)):
            part[new] = value
    return tuple(part[inverse] for part in out)


def decode_binary_batch(
    graph: TannerGraph, sx: np.ndarray, sz: np.ndarray, cfg: DecoderConfig,
    *, known: SyndromeTable | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(est_x, est_z, conv, iters) of each trial under binary-spa."""
    if cfg.algorithm != "binary-spa":
        raise ValueError("binary decoding requires the binary-spa algorithm")
    return _decode(graph, sx, sz, cfg, known)


def decode_quaternary_batch(
    graph: TannerGraph, sx: np.ndarray, sz: np.ndarray, cfg: DecoderConfig,
    *, known: SyndromeTable | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(est_x, est_z, conv, iters) of each trial under quaternary-spa."""
    if cfg.algorithm != "quaternary-spa":
        raise ValueError("joint decoding requires the quaternary-spa algorithm")
    return _decode(graph, sx, sz, cfg, known)


def decode_batch(
    graph: TannerGraph, sx: np.ndarray, sz: np.ndarray, cfg: DecoderConfig,
    *, known: SyndromeTable | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode with whichever of the two entry points cfg.algorithm names.

    known, a table decoded under the same graph and cfg, answers the
    syndromes it holds; a table of another graph or config raises
    ValueError.
    """
    if cfg.algorithm == "binary-spa":
        return decode_binary_batch(graph, sx, sz, cfg, known=known)
    return decode_quaternary_batch(graph, sx, sz, cfg, known=known)


def decode_table(
    graph: TannerGraph, sx: np.ndarray, sz: np.ndarray, cfg: DecoderConfig,
    width: int,
) -> SyndromeTable:
    """Decode each distinct syndrome of the batch once, at most width per call.

    The distinct rows go through `decode_batch` in sorted slices of at
    most width rows, so no decode is wider than width trials.
    """
    rows = _rows(np.unique(_keys(_syndrome_rows(graph, sx, sz))))
    x = graph.x_checks
    parts = [decode_batch(graph, rows[lo:lo + width, :x], rows[lo:lo + width, x:], cfg)
             for lo in range(0, max(len(rows), 1), width)]
    return SyndromeTable(graph, cfg, rows, *map(np.concatenate, zip(*parts)))
