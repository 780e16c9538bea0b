"""Monte-Carlo logical-error-rate estimation and exhaustive oracles.

A trial fails when the residual (actual XOR estimated error, padded with
zeros on the noise-free ebit coordinates) falls outside the GF(2) row
space of the extended stabilizer in symplectic form.  Every trial the
decoder did not converge on fails so: its residual has a nonzero
syndrome.  Per-trial randomness comes from (master_seed, trial)
counter seeds, so results are independent of how trials are scheduled.

`run_trials` runs a point in chunks of at most `_chunk_trials` trials,
each sampled, decoded and tested before the next.  When all the points of
a `sweep` fit one chunk together, they share one decode of their rows, as
the `decoder` docstring describes with the window it runs through.  Each
point still samples, decodes and tests all its own trials, so its
SimResult can be rebuilt from its own steps.

The exhaustive oracles (ML coset decoding over all 4^n errors, min-weight
decoding by weight layer, and the burst-window audit) read every column
of an error, its x and z bits, syndromes and logical class, as the XOR of
one table of per-qubit letter rows, `_letter_rows`, folded over each
support by one enumerator, `_enumerate`; its order fixes which error
represents a coset and so every table and report they return.  The ML
oracle packs the table into one uint64 word per letter first, so it folds
and reads one word per error.  The burst audit hands all its patterns to
one `decode_batch` call, which decodes each distinct syndrome once.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, islice

import numpy as np

from eaqc.channel import ChannelParams, _draw, _probability, category_bits, sample_error_batch
from eaqc.clifford import logical_operators, symplectic_product
from eaqc.decoder import (
    DecoderConfig,
    SyndromeTable,
    TannerGraph,
    _safe_p,
    build_graphs,
    decode_batch,
    syndrome_batch,
)
from eaqc.eacode import EaCode
from eaqc.gf2 import BinaryMatrix, DimensionMismatch, RowBasis, _count, _set_count

__all__ = [
    "SimConfig",
    "SimResult",
    "BurstReport",
    "BurstTooLarge",
    "wilson_interval",
    "stabilizer_symplectic",
    "residual_in_group",
    "run_trials",
    "min_weight_decoder",
    "ml_coset_decoder",
    "burst_oracle",
    "sweep",
    "write_csv",
    "CSV_COLUMNS",
]

# A point runs its trials in chunks whose (dmax, checks, trials) float64
# check messages would fit in this many bytes: each chunk is sampled,
# decoded and tested for membership before the next.  The rule bounds a
# chunk's uniforms, errors, syndromes and outputs; the decode's own peak
# is set by the decoder's window, `decoder._WINDOW`.
_DECODE_BYTES = 8 * 2**20

# The min-weight oracle enumerates at most this many Pauli patterns at once.
_PATTERN_BLOCK = 2**14

# The ML oracle refuses a code of more than this many Pauli errors, and the
# burst audit a window of more than this many patterns, with BurstTooLarge.
_ML_LIMIT = 2_000_000
_BURST_LIMIT = 1_000_000

# Wilson score intervals are at 95% confidence.
_WILSON_Z = 1.96

CSV_COLUMNS = (
    "family", "n", "k", "c", "p_d", "eta", "decoder",
    "trials", "failures", "LER", "ci_low", "ci_high", "seed",
)


@dataclass(frozen=True)
class SimConfig:
    code: EaCode
    channel: ChannelParams
    decoder: DecoderConfig
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        _set_count(self, "trials")
        _set_count(self, "master_seed")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.master_seed < 0:
            raise ValueError(f"master seed must be non-negative, got {self.master_seed}")


@dataclass(frozen=True)
class SimResult:
    trials: int
    failures: int
    non_converged: int
    ler: float
    ci_low: float
    ci_high: float


class BurstTooLarge(RuntimeError):
    def __init__(self, count: int, limit: int):
        self.count = count
        self.limit = limit
        super().__init__(
            f"burst enumeration needs {count} patterns, above the {limit} limit"
        )


@dataclass(frozen=True)
class BurstReport:
    burst_len: int
    windows: int
    patterns: int
    oracle_corrected: int
    spa_corrected: int
    oracle_failures: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def oracle_fraction(self) -> float:
        return 1.0 if self.patterns == 0 else self.oracle_corrected / self.patterns

    @property
    def spa_fraction(self) -> float:
        return 1.0 if self.patterns == 0 else self.spa_corrected / self.patterns


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """The 95% Wilson score interval of failures out of trials, both `_count`s."""
    failures, trials = _count(failures, "failures"), _count(trials, "trials")
    z = _WILSON_Z
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= failures <= trials:
        raise ValueError("failures must lie in [0, trials]")
    ph = failures / trials
    denom = 1.0 + z * z / trials
    center = (ph + z * z / (2 * trials)) / denom
    half = z * math.sqrt(ph * (1 - ph) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def stabilizer_symplectic(code: EaCode) -> RowBasis:
    """Row basis of the extended stabilizer rows in (x-part | z-part) layout."""
    return RowBasis.build(code.stabilizer_rows())


def residual_in_group(
    basis: RowBasis, code: EaCode, rx: np.ndarray, rz: np.ndarray
) -> np.ndarray:
    """Batch membership of padded residuals; rx, rz have shape (T, n)."""
    rx = np.atleast_2d(rx)
    rz = np.atleast_2d(rz)
    trials = rx.shape[0]
    q = code.n + code.c
    vecs = np.zeros((trials, 2 * q), dtype=np.uint8)
    vecs[:, : code.n] = rx
    vecs[:, q : q + code.n] = rz
    return basis.contains_batch(BinaryMatrix.from_dense(vecs))


@lru_cache(maxsize=1)
def _decoding_setup(code: EaCode) -> tuple[TannerGraph, RowBasis]:
    """The Tanner graph and stabilizer basis of a code, kept for the last code.

    The points of a sweep share one code, so they build both once;
    `burst_oracle` takes its pair from here too.
    """
    return build_graphs(code), stabilizer_symplectic(code)


def _chunk_trials(graph: TannerGraph) -> int:
    """Trials per chunk of a point: the most whose check messages would fit
    _DECODE_BYTES, which bounds the chunk's per-trial arrays (the decode's
    window is `decoder._WINDOW` whatever the chunk)."""
    return max(1, _DECODE_BYTES // (8 * graph.idx.size))


def run_trials(cfg: SimConfig, known: SyndromeTable | None = None) -> SimResult:
    """Sample, decode and test every trial of one point, a chunk at a time.

    known, the table of a point that fits one chunk, as `_sweep_table`
    makes it, goes to that chunk's `decode_batch` call, which reads the
    outputs there; the result is the same without it.
    """
    code = cfg.code
    graph, basis = _decoding_setup(code)
    step = _chunk_trials(graph)
    failures = non_converged = 0
    for lo in range(0, cfg.trials, step):
        xs, zs = sample_error_batch(code.n, cfg.channel, cfg.master_seed,
                                    min(step, cfg.trials - lo), first=lo)
        if cfg.trials > step:
            # no later call asks for a chunk of a point of several chunks,
            # so its kept draw would only add to the peak, beside the next
            # chunk's draw while that is made
            _draw.cache_clear()
        sx, sz = syndrome_batch(code, xs, zs)
        est_x, est_z, conv, _ = decode_batch(graph, sx, sz, cfg.decoder, known=known)
        member = residual_in_group(basis, code, xs ^ est_x, zs ^ est_z)
        # a residual in the group has a zero syndrome, so its trial converged
        failures += int(np.count_nonzero(~member))
        non_converged += int(np.count_nonzero(~conv))
    low, high = wilson_interval(failures, cfg.trials)
    return SimResult(
        trials=cfg.trials,
        failures=failures,
        non_converged=non_converged,
        ler=failures / cfg.trials,
        ci_low=low,
        ci_high=high,
    )


# ── brute-force oracles ───────────────────────────────────────────────

def _letter_rows(code: EaCode, logicals=()) -> np.ndarray:
    """(n, 4, w) bits of each letter I, X, Y, Z on each qubit.

    A row is [x | z | sx | sz | form with each logical] of the one-qubit
    error: its `category_bits`, its `syndrome_batch` and its
    `symplectic_product` with each logical, an (x | z) row on the n
    transmitted qubits.  Every column of an error is the XOR of its
    letters' rows.
    """
    n = code.n
    cats = np.zeros((n, 4, n), np.uint8)
    cats[np.arange(n), :, np.arange(n)] = np.arange(4)
    x, z = category_bits(cats.reshape(4 * n, n))
    cols = [x, z, *syndrome_batch(code, x, z)]
    if len(logicals):
        cols.append(symplectic_product(np.hstack([x, z]), np.asarray(logicals)))
    return np.hstack(cols).reshape(n, 4, -1)


def _enumerate(rows: np.ndarray, supports, letters) -> np.ndarray:
    """XOR of the letter rows of every assignment of letters to each support.

    rows is a letter table such as `_letter_rows` returns, as 0/1 bytes or
    packed into words; the result has its dtype.  The supports share one
    width.  They come in the order given; within one support the
    assignments come in itertools.product order, the last position fastest.
    """
    supports = np.array([list(s) for s in supports], np.intp)
    picked = rows[:, list(letters)][supports]  # (support, position, letter, column)
    out = np.zeros((len(supports), 1, rows.shape[2]), rows.dtype)
    for at in picked.swapaxes(0, 1):  # each position of every support
        out = (out[:, :, None] ^ at[:, None]).reshape(len(out), -1, out.shape[2])
    return out.reshape(-1, out.shape[2])


def _first_rows(bits: np.ndarray) -> np.ndarray:
    """Index of each distinct row's first occurrence, in row order."""
    packed = np.packbits(bits, axis=1)
    return np.sort(np.unique(packed.view(f"V{packed.shape[1]}"), return_index=True)[1])


def min_weight_decoder(code: EaCode, syndromes):
    """Map each (sx, sz) byte pair to a minimum-weight error matching it.

    Sweeps Pauli patterns in weight order, lexicographic within a weight
    layer, and keeps the first hit per syndrome; deterministic, so the
    chosen coset representative is reproducible.  Patterns are built in
    blocks of at most _PATTERN_BLOCK, so memory stays flat.  A key whose
    widths are not the check counts, or whose bytes are not 0/1, raises
    DimensionMismatch before any pattern is built; a key no error has (sx
    outside the column space of hx, or sz outside that of hz) raises
    RuntimeError, also before.
    """
    n, mx, mz = code.n, code.hx.rows, code.hz.rows
    needed = set(syndromes)
    for sx, sz in needed:
        if (len(sx), len(sz)) != (mx, mz) or not set(sx + sz) <= {0, 1}:
            raise DimensionMismatch(f"syndrome of {len(sx)} + {len(sz)} bytes; "
                                    f"expected {mx} + {mz} bytes of 0 or 1")
    # sx = hx·z and sz = hz·x: a key is reachable when each part lies in
    # the column space of its check matrix
    for part, h in enumerate((code.hx, code.hz)):
        bits = np.array([list(key[part]) for key in needed], np.uint8)
        space = RowBasis.build(h.transpose())
        if not space.contains_batch(BinaryMatrix.from_dense(bits.reshape(-1, h.rows))).all():
            raise RuntimeError("some syndromes are not reachable by any Pauli error")
    rows = _letter_rows(code)
    table: dict = {}
    for weight in range(n + 1):
        supports = combinations(range(n), weight)
        per_block = max(1, _PATTERN_BLOCK // 3 ** weight)
        while needed and (block := list(islice(supports, per_block))):
            x, z, sx, sz = np.split(_enumerate(rows, block, (1, 2, 3)),
                                    [n, 2 * n, 2 * n + mx], axis=1)
            # the first pattern of each distinct syndrome, in block order
            for t in _first_rows(np.hstack([sx, sz])):
                key = (sx[t].tobytes(), sz[t].tobytes())
                if key in needed:
                    table[key] = (x[t].copy(), z[t].copy())
                    needed.discard(key)
    return table


def ml_coset_decoder(code: EaCode, p_d: float):
    """Exhaustive maximum-likelihood coset decoding table for tiny codes.

    Enumerates every Pauli error, counts the errors of each weight in each
    (syndrome, logical class) coset, and returns {sx‖sz bytes: the first
    error, in enumeration order, of the syndrome's most likely coset}.
    Refuses when 4^n exceeds _ML_LIMIT, raises ValueError for a p_d
    outside [0, 1] (NaN included) and TypeError for a bool p_d, all before
    any enumeration.

    A coset's probability is one Horner evaluation of its integer weight
    counts, so cosets with equal weight enumerators compare bit-equal.
    Such ties are common on degenerate codes: on [[9,4;1]] at p_d 0.03, 52
    of the 64 syndromes have two or more most likely cosets.  The table
    then holds the one with the largest class bytes; no decoder promises
    the same pick, so a comparison against this table must accept any most
    likely coset on a tied syndrome.

    Each error is one uint64 word: its x and z bits, then its coset.  A
    coset is the (syndrome, class) key written in the coordinates of the
    keys' reduced echelon basis, its most significant column first, and
    those coordinates read as an integer sort like the key itself.  So the
    r coordinates number the 2^r cosets densely, a syndrome's cosets are
    one run of them, and the word is at most 4n bits whatever the number
    of checks.
    """
    _probability(p_d, "p_d")
    n = code.n
    total = 4 ** n
    if total > _ML_LIMIT:
        raise BurstTooLarge(total, _ML_LIMIT)
    # the class bits are the forms with Z1, X1, Z2, X2, ... on the n
    # transmitted qubits; the form with Z_j is the X_j coefficient
    ops = logical_operators(code)[:, ::-1].reshape(-1, 2, n + code.c)
    logicals = ops[:, :, :n].reshape(len(ops), 2 * n)
    letters = _letter_rows(code, logicals)
    syn = code.hx.rows + code.hz.rows
    # the key, most significant column first: the last syndrome bit down
    # to the first, then the class bits in order
    key = letters[..., np.r_[2 * n + syn - 1:2 * n - 1:-1, 2 * n + syn:letters.shape[2]]]
    echelon = RowBasis.build(BinaryMatrix.from_dense(key.reshape(4 * n, -1)))
    # a key's coordinates are its bits at the pivot columns, which are unit
    # vectors; the last pivot is the least significant bit of the coset
    coords = key[..., echelon.pivot_cols[::-1]]
    table = BinaryMatrix.from_dense(
        np.concatenate([letters[..., :2 * n], coords], axis=2).reshape(4 * n, -1))
    # 2n + r <= 4n bits, one word for any n that _ML_LIMIT admits.  The
    # last support position varies fastest, so qubit 0 is the least
    # significant digit; that fixes each coset's first error
    words = _enumerate(table.words.reshape(n, 4, 1), [range(n - 1, -1, -1)], range(4))[:, 0]
    coset = (words >> np.uint64(2 * n)).astype(np.intp)
    weights = np.bitwise_count((words | words >> np.uint64(n)) & np.uint64((1 << n) - 1))
    cosets = 1 << echelon.rank
    counts = np.bincount(coset * (n + 1) + weights,
                         minlength=cosets * (n + 1)).reshape(cosets, n + 1)
    p = _safe_p(p_d)
    ratio = (p / 3.0) / (1.0 - p)  # per unit of weight, up to a constant
    prob = np.zeros(cosets)
    for w in range(n, -1, -1):
        prob = prob * ratio + counts[:, w]
    first = np.full(cosets, total)
    np.minimum.at(first, coset, np.arange(total))
    # the pivots in the syndrome columns lead, so each row holds one
    # syndrome's cosets in class order; take its last most likely coset,
    # and list syndromes as they first occur
    classes = 1 << int(np.count_nonzero(echelon.pivot_cols >= syn))
    prob, first = prob.reshape(-1, classes), first.reshape(-1, classes)
    best = classes - 1 - np.argmax(prob[:, ::-1], axis=1)
    reps = first[np.arange(len(first)), best][np.argsort(first.min(axis=1))]
    bits = np.unpackbits(words[reps, None].view(np.uint8), axis=1, bitorder="little")
    x, z = bits[:, :n], bits[:, n:2 * n]
    sx, sz = syndrome_batch(code, x, z)
    return {np.concatenate([a, b]).tobytes(): (ex.copy(), ez.copy())
            for a, b, ex, ez in zip(sx, sz, x, z)}


def burst_oracle(
    code: EaCode,
    burst_len: int,
    spa_cfg: DecoderConfig | None = None,
) -> BurstReport:
    """Audit every Pauli pattern confined to a window of consecutive qubits.

    A pattern counts as corrected when the decoder's residual lies in the
    extended stabilizer group.  The oracle decoder is exhaustive
    min-weight coset decoding; the SPA column reports the quaternary
    decoder on identical syndromes.

    The oracle count is a lower bound on what a burst-aware decoder could
    reach, not a ceiling: min-weight decoding ignores that the patterns
    sit in a window.  On [[9,4;1]] with window 3 it corrects 51 of 351
    patterns, while grouping the patterns by syndrome and logical class
    shows that the best decoder for this window corrects 65.  A bool, or
    a burst length without __index__, raises TypeError.
    """
    n = code.n
    burst_len = _count(burst_len, "burst length")
    if burst_len < 0:
        raise ValueError(f"burst length {burst_len} is negative")
    if burst_len > n:
        raise ValueError("burst length exceeds the register")
    if burst_len == 0:
        return BurstReport(0, n + 1, 0, 0, 0, ())
    windows = n - burst_len + 1
    raw = windows * (4 ** burst_len - 1)
    if raw > _BURST_LIMIT:
        raise BurstTooLarge(raw, _BURST_LIMIT)
    if spa_cfg is None:
        spa_cfg = DecoderConfig("quaternary-spa", 0.03)
    found = _enumerate(_letter_rows(code),
                       [range(s, s + burst_len) for s in range(windows)], range(4))
    # windows overlap; keep each pattern's first occurrence, in order, since
    # that order is the order of oracle_failures; the first is the identity
    found = found[_first_rows(found[:, :2 * n])[1:]]
    xs, zs, sx, sz = np.split(found, [n, 2 * n, 2 * n + code.hx.rows], axis=1)
    keys = [(a.tobytes(), b.tobytes()) for a, b in zip(sx, sz)]
    table = min_weight_decoder(code, keys)
    graph, basis = _decoding_setup(code)
    est_x, est_z = map(np.stack, zip(*(table[k] for k in keys)))
    oracle_ok = residual_in_group(basis, code, xs ^ est_x, zs ^ est_z)
    dx, dz, conv, _ = decode_batch(graph, sx, sz, spa_cfg)
    spa_ok = residual_in_group(basis, code, xs ^ dx, zs ^ dz) & conv
    failures = tuple((tuple(np.flatnonzero(xs[t]).tolist()),
                      tuple(np.flatnonzero(zs[t]).tolist()))
                     for t in np.flatnonzero(~oracle_ok)[:8])
    return BurstReport(burst_len, windows, len(keys), int(oracle_ok.sum()),
                       int(spa_ok.sum()), failures)


# ── sweeps ────────────────────────────────────────────────────────────

def _sweep_table(cfg: SimConfig, points: list[SimConfig]) -> list[SyndromeTable] | None:
    """Each point's `SyndromeTable`, all decoded in one `decode_batch` call.

    None unless all the points' trials fit one chunk, so that the call's
    per-row arrays are no larger than one chunk's.  Each point is sampled
    as `run_trials` samples it; the call takes every point's rows in point
    order, and its outputs are cut into one table per point.
    """
    code, trials = cfg.code, cfg.trials
    graph, _ = _decoding_setup(code)
    if len(points) * trials > _chunk_trials(graph):
        return None
    syndromes = [syndrome_batch(code, *sample_error_batch(
        code.n, point.channel, cfg.master_seed, trials)) for point in points]
    sx, sz = (np.vstack(part) for part in zip(*syndromes))
    rows, outputs = np.hstack([sx, sz]), decode_batch(graph, sx, sz, cfg.decoder)
    return [SyndromeTable(graph, cfg.decoder, rows[at], *(out[at] for out in outputs))
            for at in (slice(lo, lo + trials) for lo in range(0, len(rows), trials))]


def sweep(cfg: SimConfig, pd_values, eta_values) -> list[dict]:
    """One row per (p_d, eta) grid point, p_d outer, same seed for each.

    A row holds the CSV_COLUMNS and, after failures, non_converged, which
    `write_csv` leaves out.  Each point runs cfg with its channel
    replaced.  It decodes with cfg.decoder as given, so its prior stays at
    cfg.decoder.p_d whatever the point's p_d; `eaqc sweep` sets it to the
    first --pd value.  When all the points' trials fit one chunk, one
    decode of all their rows, which decodes each distinct syndrome among
    them once, comes before the points run, and each point's `run_trials`
    reads its own rows' outputs (`_sweep_table`).  Either axis may be any
    iterable, a one-shot generator included.
    """
    pd_values, eta_values = tuple(pd_values), tuple(eta_values)
    if not pd_values or not eta_values:
        raise ValueError("a sweep needs at least one p_d and one eta")
    points = [replace(cfg, channel=ChannelParams(p_d, eta))
              for p_d in pd_values for eta in eta_values]
    tables = _sweep_table(cfg, points) or [None] * len(points)
    rows = []
    for point, known in zip(points, tables):
        res = run_trials(point, known)
        rows.append({
            "family": cfg.code.family,
            "n": cfg.code.n,
            "k": cfg.code.k,
            "c": cfg.code.c,
            "p_d": point.channel.p_d,
            "eta": point.channel.eta,
            "decoder": cfg.decoder.algorithm,
            "trials": res.trials,
            "failures": res.failures,
            "non_converged": res.non_converged,
            "LER": res.ler,
            "ci_low": res.ci_low,
            "ci_high": res.ci_high,
            "seed": cfg.master_seed,
        })
    return rows


def write_csv(rows: list[dict]) -> str:
    """The CSV text of sweep rows: a header of CSV_COLUMNS, one line per row."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in CSV_COLUMNS})
    return buf.getvalue()
