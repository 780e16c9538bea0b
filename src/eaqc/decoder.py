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
  from sx, the Z-check rows the x bits from sz.  The blocks share no
  variable, so each decodes the distinct halves of its own syndromes, sx
  or sz, as a stream of its own (see below), and its outputs equal two
  separate graph runs.  A row's est_z is its sx half's estimate, est_x
  its sz half's; it converges when both halves have and reports the later
  of the two iteration counts.
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
row.  Each pass runs these steps on the columns of the window (see
below), a few numpy calls each:

1. Sum: one gather of each column's message rows from the slot table;
   each column's sum is its first message plus the sum of the rest, added
   left to right, whatever its degree.
2. Decide: binary-spa compares prior + s with 0.  Quaternary writes l_x,
   l_z and l_y as rows of one buffer and finds the largest of 0 (for I),
   l_x, l_y and l_z by seven comparisons; ties go to the first in the
   order I, X, Y, Z, as with argmax.
3. Check: each row's bits and its own syndrome bit are gathered and
   XOR-reduced, and one boolean product tells which blocks still have an
   unmet row.  Only on a pass where some block meets its syndrome, or
   reaches l_max, are its outputs written and its column freed, and only
   after such a pass does the window turn over (see below), so a stream
   costs the sum of its syndromes' iterations rather than its slowest
   syndrome times its length.
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

`_flood` decodes [sx | sz] rows, repeats allowed, through a window of
at most `_WINDOW` columns, one constant for every caller.  Each check
block (a `_Stream`) streams the distinct rows of its own columns:
quaternary-spa's one block the distinct rows, binary-spa's X-check and
Z-check blocks the distinct sx and sz halves.  Per column, each block
keeps its syndrome's stream index and the pass it started on, so its
own iteration count, or `_IDLE` while it holds none.  A column turns
over in two steps.  On the pass where a block meets its syndrome, or
ends unmet after l_max iterations, it writes its outputs and frees its
column.  At the top of the next pass each freed block column takes the
next syndrome of its stream in place (zero messages on its check rows,
its syndrome bits and signs), so it runs as a lone decode of that
syndrome would, or holds none once the stream is empty.  Then, if no
block holds a syndrome in every column, each block's holding columns
move to the left, apart from the other block's, and the window shrinks
to the most any block holds.  The log ratios and hard decisions are
computed again on every pass, so the shrink cuts them rather than moving
them.  A stream then runs about its syndromes' passes divided by the
window, plus one tail of at most l_max + 1; binary-spa's tail carries
neither the met half of a stalled row nor one stalled half once per row
that has it.  The window's arrays are the decode's peak, so it stays
bounded however many syndromes a call brings.  At the end one join gives
each row its blocks' outputs: each block's estimate of its bits,
converged when every block is, and the latest of their iteration counts.

A trial's outputs depend on its syndrome alone, so each entry point runs
`_flood` once on its batch, which decodes each distinct syndrome of a
block once (`np.unique` over one void scalar per row).  Given a
`SyndromeTable`, the outputs of a batch decoded earlier under the same
graph and DecoderConfig, it decodes nothing: a batch whose rows are the
table's, in order, reads the table's outputs, and any other batch, or a
table of another graph or config, raises ValueError.  Either way the
outputs equal those of decoding every trial on its own.

The points of a `harness.sweep` share one decode this way.  When all of
them fit one chunk together, the sweep samples every point and decodes
the rows of them all, in point order, in one `decode_batch` call, so a
syndrome that recurs or stalls in several points runs its passes once.
It cuts the outputs into one `SyndromeTable` per point, and each point's
`run_trials` reads its own rows' outputs from it by position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eaqc.channel import _probability
from eaqc.eacode import EaCode
from eaqc.gf2 import BinaryMatrix, DimensionMismatch, _matmul_words, _set_count

__all__ = [
    "TannerGraph",
    "DecoderConfig",
    "build_graphs",
    "syndrome_batch",
    "SyndromeTable",
    "decode_batch",
    "decode_binary_batch",
    "decode_quaternary_batch",
]

_ALGORITHMS = ("binary-spa", "quaternary-spa")
_CLIP = 1.0 - 1e-12
# The most syndromes `_flood` decodes side by side, whoever calls it.  The
# outputs do not depend on it.  It bounds the decode's peak on the largest
# codes, and of 64 to 512 columns, 100 was the fastest on n = 25, 49 and 121.
_WINDOW = 100


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
        _probability(self.p_d, "p_d")


def _safe_p(p_d: float) -> float:
    """p_d clipped to [1e-12, 1 - 1e-12], so that its log ratios are finite."""
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
    np.tanh(np.multiply(m, 0.5, out=m), out=m)
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


_IDLE = np.iinfo(np.int64).max  # the start pass of a block holding no syndrome


class _Stream:
    """The distinct syndromes one check block of a graph on n qubits
    decodes, in order, and their outputs.

    checks are the block's rows of [hx; hz], bits the columns it reads and
    syn the rows of its syndrome bits in `_flood`'s bit array.  Its
    syndromes are the distinct rows of its columns of rows, and inverse
    gives each row's index among them.  s holds them, one column per
    syndrome, and next is the first column not yet loaded.  Syndrome i's
    bits go to est[i], its flag to conv[i] and its iteration count to
    iters[i], which `finish` writes when it ends.
    """

    def __init__(self, n: int, checks: slice, bits: slice, rows: np.ndarray):
        self.checks, self.bits = checks, bits
        distinct, self.inverse = _distinct(rows[:, checks])
        self.s, count = distinct.T, len(distinct)
        self.est = np.empty((count, bits.stop - bits.start), np.uint8)
        self.conv, self.iters = np.empty(count, bool), np.empty(count, np.int64)
        self.syn = slice(2 * n + 1 + checks.start, 2 * n + 1 + checks.stop)
        self.next = 0
        # its rows of the messages (by slot and check), syndrome bits and
        # signs, as `_block_views` lists those arrays
        self.rows = ((slice(None), checks), self.syn, checks)

    def finish(self, ends, act, start, met, cur, it):
        """Write the outputs of the syndromes that end on pass it.

        ends, act, start and met are the block's rows of the window's
        arrays.  The syndrome of each column where ends is True takes that
        column's bits of cur, whether it met, and its passes since start.
        Its index arrays are freed on return, before the pass forms its
        messages, where the decode peaks.
        """
        cols = np.flatnonzero(ends)
        if cols.size:
            done = act[cols]
            self.conv[done] = met[cols]
            self.est[done] = cur[self.bits, cols].T
            self.iters[done] = it - start[cols]


def _block_views(mu, cur, sign):
    """The arrays that the entries of a `_Stream`'s rows select from."""
    return mu[:-1].reshape(-1, *sign.shape), cur, sign


def _pack(arrays, streams, orders):
    """The window's arrays cut to the width of orders, each block's rows
    with its columns in its own order.

    Every row keeps its first columns, then each stream's rows take theirs
    in its own order.  The rows no block lists, the messages' zero row and
    the hard decision with its padding bit 0, are the same in every
    column or computed again before they are read.  Each new array is
    C-contiguous, trials last; a[..., order] alone would be column-major.
    """
    new = tuple(a[..., :orders.shape[1]].copy() for a in arrays)
    for st, order in zip(streams, orders):
        for a, b, r in zip(_block_views(*arrays), _block_views(*new), st.rows):
            b[r] = a[r][..., order]
    return new


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a uint8 array, sorted by their bytes, and the
    index of each row among them; each row is sorted as one void scalar."""
    rows = np.ascontiguousarray(rows)
    width = rows.shape[1]
    keys, inverse = np.unique(rows.view(f"V{width}").ravel(), return_inverse=True)
    return keys.view(np.uint8).reshape(len(keys), width), inverse


def _flood(
    g: TannerGraph, rows: np.ndarray, cfg: DecoderConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(est_x, est_z, conv, iters) of each of the [sx | sz] rows.

    rows holds [sx | sz] syndromes, as `_syndrome_rows` makes them,
    repeats allowed.  Each check block decodes the stream of its distinct
    syndromes through a window of at most `_WINDOW` columns.  A block that
    finishes writes its outputs and frees its column, which takes the next
    syndrome of its stream at the top of the next pass; then the window
    shrinks if no block fills it.  A row reads each block's estimate of its
    bits, converges when every block has, and reports the latest of their
    iteration counts.
    """
    n, l_max = g.n, cfg.l_max
    checks, dmax = g.idx.shape
    col = g.idx.T.copy()  # the column of each (slot, row); padding reads 2n
    p = _safe_p(cfg.p_d)
    binary = cfg.algorithm == "binary-spa"
    x = g.x_checks
    if binary:
        prior = float(np.log((1.0 - p) / p))
        # each block decodes on its own: the X checks explain the z bits
        # from sx, the Z checks the x bits from sz, and no variable is shared
        streams = [_Stream(n, slice(0, x), slice(n, 2 * n), rows),
                   _Stream(n, slice(x, checks), slice(0, n), rows)]
    else:
        m0 = float(np.log(p / (3.0 * (1.0 - p))))
        streams = [_Stream(n, slice(0, checks), slice(0, 2 * n), rows)]
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
    t = min(_WINDOW, max(st.s.shape[1] for st in streams))
    if binary:
        # log ratio per column; the padding column's +inf sends +inf
        llr = np.full((2 * n + 1, t), np.inf)
    else:
        # the ratios against I, by row: l_x of each qubit, l_z of each
        # qubit, -inf and +inf, l_y of each qubit, and a 0.  A padding
        # slot reads -inf as its own ratio, +inf as the other and 0 as l_y,
        # so it sends +inf.
        llr = np.zeros((3 * n + 3, t))
        llr[2 * n:2 * n + 2] = np.array([-np.inf, np.inf])[:, None]
    in_block = np.zeros((len(streams), checks), bool)
    for k, st in enumerate(streams):
        in_block[k, st.checks] = True
    # each row's parity reads its bits and its own syndrome bit from cur:
    # the 2n bits of the hard decision, a padding bit 0, then the syndrome
    parity = np.vstack([col, 2 * n + 1 + np.arange(checks)])
    cur = np.zeros((2 * n + 1 + checks, t), bool)
    # per block and window column: the stream index of the syndrome it
    # decodes and the pass it started on, _IDLE while it holds none; mu,
    # cur and sign (the syndrome sign of each check times 2) hold the same
    # columns.  A block's columns that hold no syndrome compute finite
    # messages that nothing reads, and never finish
    act = np.zeros((len(streams), t), np.intp)
    start = np.full((len(streams), t), _IDLE)
    sign = np.full((checks, t), 2.0)
    mu = np.zeros((dmax * checks + 1, t))
    rule = _RuleScratch(sign, dmax)
    it, freed = 0, True
    while t:
        if freed:
            # each block column that holds no syndrome takes the next of its
            # stream, with no messages, and runs as a lone decode of it would
            mu_rows = mu[:-1].reshape(dmax, checks, t)
            for st, a, s0 in zip(streams, act, start):
                cols = np.flatnonzero(s0 == _IDLE)[:st.s.shape[1] - st.next]
                if cols.size:
                    fresh = slice(st.next, st.next + cols.size)
                    st.next = fresh.stop
                    a[cols] = np.arange(fresh.start, fresh.stop)
                    s0[cols] = it
                    cur[st.syn, cols] = st.s[:, fresh]
                    sign[st.checks, cols] = np.where(st.s[:, fresh], -2.0, 2.0)
                    mu_rows[:, st.checks, cols] = 0.0
            held = start != _IDLE
            most = int(np.count_nonzero(held, axis=1).max())
            if most < t:
                # each block's columns that hold a syndrome move to the
                # left, in order, and the window shrinks to the most that
                # any block holds
                t = most
                if not t:
                    break
                orders = np.argsort(~held, axis=1, kind="stable")[:, :t]
                at = np.arange(len(streams))[:, None], orders
                act, start, held = act[at], start[at], held[at]
                del rule  # free the old scratch before the packed arrays
                mu, cur, sign = _pack((mu, cur, sign), streams, orders)
                llr = llr[:, :t].copy()  # its constant rows; the rest is computed next
                rule = _RuleScratch(sign, dmax)
            oldest, freed = int(start.min()), False
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
        # the blocks that hold a syndrome and have no unmet row
        met = np.greater(held, in_block @ bad)
        stalled = it - oldest == l_max  # a block has run l_max passes
        if stalled or np.count_nonzero(met):
            # a block ends when it meets its syndrome, or unmet after l_max
            # passes; its outputs are written and its columns freed
            end = (met | (start == it - l_max)) if stalled else met
            for st, ends, a, s0, m in zip(streams, end, act, start, met):
                st.finish(ends, a, s0, m, cur, it)
            start[end] = _IDLE
            freed = True
        mu_rows = mu[:-1].reshape(dmax, checks, t)
        if binary:
            llr.take(col, axis=0, out=rule.m, mode="clip")  # see _quaternary_messages
            np.subtract(rule.m, mu_rows, out=rule.m)
        else:
            _quaternary_messages(llr, mu_rows, pair, cross, out=rule.m)
        _check_messages_exact(rule, out=mu_rows)
        it += 1
    est = np.empty((len(rows), 2 * n), np.uint8)
    for st in streams:
        est[:, st.bits] = st.est[st.inverse]
    conv = np.logical_and.reduce([st.conv[st.inverse] for st in streams])
    iters = np.maximum.reduce([st.iters[st.inverse] for st in streams])
    return est[:, :n], est[:, n:], conv, iters


@dataclass(frozen=True)
class SyndromeTable:
    """The decoder's outputs on one batch of syndromes, decoded earlier.

    rows holds the batch's [sx | sz] rows in order; est_x[i], est_z[i],
    conv[i] and iters[i] are the outputs of rows[i] under graph and
    config.  A decode call of the same batch given the table returns
    these outputs.
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


def _same_graph(a: TannerGraph, b: TannerGraph) -> bool:
    return a is b or (a.n == b.n and a.x_checks == b.x_checks
                      and np.array_equal(a.idx, b.idx)
                      and np.array_equal(a.slots, b.slots))


def _decode(
    graph: TannerGraph, sx: np.ndarray, sz: np.ndarray, cfg: DecoderConfig,
    known: SyndromeTable | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode the batch in one `_flood` call, or read it from known.

    A trial's outputs depend on its syndrome alone, so either way this
    equals decoding every trial.  A table of another graph or config, or
    of rows other than the batch's in order, raises ValueError before any
    decode.
    """
    if known is not None and not (known.config == cfg
                                  and _same_graph(known.graph, graph)):
        raise ValueError("the syndrome table was decoded under another "
                         "graph or DecoderConfig")
    rows = _syndrome_rows(graph, sx, sz)
    if known is None:
        return _flood(graph, rows, cfg)
    if not np.array_equal(known.rows, rows):
        raise ValueError("the syndrome table holds another batch's syndromes")
    return known.est_x, known.est_z, known.conv, known.iters


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

    known, a table of this batch's rows decoded under the same graph and
    cfg, answers them all; a table of another graph, config or batch
    raises ValueError.
    """
    if cfg.algorithm == "binary-spa":
        return decode_binary_batch(graph, sx, sz, cfg, known=known)
    return decode_quaternary_batch(graph, sx, sz, cfg, known=known)

