"""Monte-Carlo logical-error-rate estimation and exhaustive oracles.

A trial fails when the residual (actual XOR estimated error, padded with
zeros on the noise-free ebit coordinates) falls outside the GF(2) row
space of the extended stabilizer in symplectic form, or when the decoder
did not converge.  Per-trial randomness comes from (master_seed, trial)
counter seeds, so results are independent of how trials are scheduled.

The exhaustive oracles (ML coset decoding over all 4^n errors, min-weight
decoding by weight layer, and the burst-window audit) build their Pauli
patterns with one enumerator, `_patterns`; its order fixes which error
represents a coset and so every table and report they return.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from itertools import combinations, islice

import numpy as np

from eaqc.channel import ChannelParams, sample_error_batch
from eaqc.clifford import category_bits, logical_operators, symplectic_product
from eaqc.decoder import DecoderConfig, build_graphs, decode_batch, syndrome_batch
from eaqc.eacode import EaCode
from eaqc.gf2 import BinaryMatrix, RowBasis

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

# Trials decode in chunks whose (trials, checks, dmax) float64 check
# messages fit in this many bytes.  The flooding loop peaks at about four
# times that, whatever the trial count.
_DECODE_BYTES = 8 * 2**20

# The min-weight oracle enumerates at most this many Pauli patterns at once.
_PATTERN_BLOCK = 2**14

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
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


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


def wilson_interval(failures: int, trials: int, z: float = 1.96) -> tuple[float, float]:
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


def run_trials(cfg: SimConfig) -> SimResult:
    code = cfg.code
    graph = build_graphs(code)
    basis = stabilizer_symplectic(code)
    xs, zs = sample_error_batch(code.n, cfg.channel, cfg.master_seed, cfg.trials)
    sx, sz = syndrome_batch(code, xs, zs)
    step = max(1, _DECODE_BYTES // (8 * graph.idx.size))
    chunks = [decode_batch(graph, sx[lo : lo + step], sz[lo : lo + step], cfg.decoder)
              for lo in range(0, cfg.trials, step)]
    est_x, est_z, conv, _ = (np.concatenate(part) for part in zip(*chunks))
    member = residual_in_group(basis, code, xs ^ est_x, zs ^ est_z)
    failed = ~(member & conv)
    failures = int(np.sum(failed))
    low, high = wilson_interval(failures, cfg.trials)
    return SimResult(
        trials=cfg.trials,
        failures=failures,
        non_converged=int(np.sum(~conv)),
        ler=failures / cfg.trials,
        ci_low=low,
        ci_high=high,
    )


# ── brute-force oracles ───────────────────────────────────────────────

def _patterns(n: int, supports, letters) -> np.ndarray:
    """int8 categories of every assignment of letters to each support.

    The supports share one width.  They come in the order given; within
    one support the assignments come in itertools.product order, the last
    position fastest.
    """
    supports = np.array([list(s) for s in supports], np.intp)
    letters = np.asarray(letters, np.int8)
    count, width = supports.shape
    per = len(letters) ** width
    assignments = letters[np.indices((len(letters),) * width).reshape(width, per).T]
    cats = np.zeros((count, per, n), np.int8)
    cats[np.arange(count)[:, None, None], np.arange(per)[:, None],
         supports[:, None, :]] = assignments
    return cats.reshape(count * per, n)


def min_weight_decoder(code: EaCode, syndromes):
    """Map each (sx, sz) byte pair to a minimum-weight error matching it.

    Sweeps Pauli patterns in weight order, lexicographic within a weight
    layer, and keeps the first hit per syndrome; deterministic, so the
    chosen coset representative is reproducible.  Patterns are built in
    blocks of at most _PATTERN_BLOCK, so memory stays flat.
    """
    n = code.n
    needed = set(syndromes)
    table: dict = {}
    zero = (np.zeros(code.hx.rows, np.uint8).tobytes(),
            np.zeros(code.hz.rows, np.uint8).tobytes())
    if zero in needed:
        table[zero] = (np.zeros(n, np.uint8), np.zeros(n, np.uint8))
        needed.discard(zero)
    for weight in range(1, n + 1):
        supports = combinations(range(n), weight)
        per_block = max(1, _PATTERN_BLOCK // 3 ** weight)
        while needed and (block := list(islice(supports, per_block))):
            x, z = category_bits(_patterns(n, block, (1, 2, 3)))
            sx, sz = syndrome_batch(code, x, z)
            # the first pattern of each distinct syndrome, in block order
            packed = np.packbits(np.hstack([sx, sz]), axis=1)
            _, first = np.unique(packed.view(f"V{packed.shape[1]}"), return_index=True)
            for t in np.sort(first):
                key = (sx[t].tobytes(), sz[t].tobytes())
                if key in needed:
                    table[key] = (x[t].copy(), z[t].copy())
                    needed.discard(key)
    if needed:
        raise RuntimeError("some syndromes are not reachable by any Pauli error")
    return table


def _class_bits(code: EaCode, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Logical class bits of each (x, z) row: its forms with Z1, X1, Z2, X2, ...

    The rows act on the n transmitted qubits, so only those columns of the
    logicals count; the form with Z_j is the X_j coefficient.
    """
    n = code.n
    ops = [op for xbar, zbar in logical_operators(code) for op in (zbar, xbar)]
    logicals = np.array([np.concatenate([op.x[:n], op.z[:n]]) for op in ops])
    return symplectic_product(np.hstack([x, z]), logicals)


def ml_coset_decoder(code: EaCode, p_d: float, limit: int = 2_000_000):
    """Exhaustive maximum-likelihood coset decoding table for tiny codes.

    Enumerates every Pauli error, counts the errors of each weight in each
    (syndrome, logical class) coset, and returns {sx‖sz bytes: the first
    error, in enumeration order, of the syndrome's most likely coset}.
    Refuses when 4^n exceeds the limit.

    A coset's probability is one Horner evaluation of its integer weight
    counts, so cosets with equal weight enumerators compare bit-equal.
    Such ties are common on degenerate codes: on [[9,4;1]] at p_d 0.03, 52
    of the 64 syndromes have two or more most likely cosets.  The table
    then holds the one with the largest class bytes; no decoder promises
    the same pick, so a comparison against this table must accept any most
    likely coset on a tied syndrome.
    """
    n = code.n
    total = 4 ** n
    if total > limit:
        raise BurstTooLarge(total, limit)
    # the last support position varies fastest, so qubit 0 is the least
    # significant digit; that fixes each coset's first error and key order
    cats = _patterns(n, [range(n - 1, -1, -1)], range(4))
    x, z = category_bits(cats)
    weights = np.count_nonzero(cats, axis=1)
    syn_bytes = np.concatenate(syndrome_batch(code, x, z), axis=1)
    cls = _class_bits(code, x, z)
    # one integer per (syndrome, class); the first class bit is the most
    # significant, so integer order is class-bytes order
    bits = cls.shape[1]
    key = ((syn_bytes @ (1 << np.arange(syn_bytes.shape[1]))) << bits
           | cls @ (1 << np.arange(bits - 1, -1, -1)))
    cosets, first, inv = np.unique(key, return_index=True, return_inverse=True)
    counts = np.bincount(
        inv * (n + 1) + weights, minlength=len(cosets) * (n + 1)
    ).reshape(len(cosets), n + 1)
    p = min(max(p_d, 1e-12), 1 - 1e-12)
    ratio = (p / 3.0) / (1.0 - p)  # per unit of weight, up to a constant
    prob = np.zeros(len(cosets))
    for w in range(n, -1, -1):
        prob = prob * ratio + counts[:, w]
    # cosets are sorted by syndrome; per syndrome take the last coset in
    # (probability, class) order, and list syndromes as they first occur
    syn_of = cosets >> bits
    order = np.lexsort((cosets, prob, syn_of))
    best = order[np.append(np.flatnonzero(np.diff(syn_of[order])), len(order) - 1)]
    syn_first = np.minimum.reduceat(first, np.flatnonzero(np.diff(syn_of, prepend=-1)))
    table = {}
    for t in first[best[np.argsort(syn_first)]]:
        table[syn_bytes[t].tobytes()] = (x[t].copy(), z[t].copy())
    return table


def burst_oracle(
    code: EaCode,
    burst_len: int,
    spa_cfg: DecoderConfig | None = None,
    limit: int = 1_000_000,
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
    shows that the best decoder for this window corrects 65.
    """
    n = code.n
    if burst_len < 0:
        raise ValueError(f"burst length {burst_len} is negative")
    if burst_len > n:
        raise ValueError("burst length exceeds the register")
    if burst_len == 0:
        return BurstReport(0, n + 1, 0, 0, 0, ())
    windows = n - burst_len + 1
    raw = windows * (4 ** burst_len - 1)
    if raw > limit:
        raise BurstTooLarge(raw, limit)
    if spa_cfg is None:
        spa_cfg = DecoderConfig("quaternary-spa", 0.03)
    cats = _patterns(n, [range(s, s + burst_len) for s in range(windows)], range(4))
    # windows overlap; keep each pattern's first occurrence, in order, since
    # that order is the order of oracle_failures
    _, first = np.unique(cats, axis=0, return_index=True)
    cats = cats[np.sort(first)]
    xs, zs = category_bits(cats[cats.any(axis=1)])
    count = xs.shape[0]
    sx, sz = syndrome_batch(code, xs, zs)
    keys = [(sx[t].tobytes(), sz[t].tobytes()) for t in range(count)]
    table = min_weight_decoder(code, keys)
    basis = stabilizer_symplectic(code)
    est_x = np.stack([table[k][0] for k in keys])
    est_z = np.stack([table[k][1] for k in keys])
    oracle_ok = residual_in_group(basis, code, xs ^ est_x, zs ^ est_z)
    dx, dz, conv, _ = decode_batch(build_graphs(code), sx, sz, spa_cfg)
    spa_ok = residual_in_group(basis, code, xs ^ dx, zs ^ dz) & conv
    failures = []
    for t in np.nonzero(~oracle_ok)[0][:8]:
        failures.append((
            tuple(int(v) for v in np.nonzero(xs[t])[0]),
            tuple(int(v) for v in np.nonzero(zs[t])[0]),
        ))
    return BurstReport(
        burst_len=burst_len,
        windows=windows,
        patterns=count,
        oracle_corrected=int(np.sum(oracle_ok)),
        spa_corrected=int(np.sum(spa_ok)),
        oracle_failures=tuple(failures),
    )


# ── sweeps ────────────────────────────────────────────────────────────

def sweep(cfg: SimConfig, pd_values, eta_values) -> list[dict]:
    """One CSV row per (p_d, eta) grid point, p_d outer, same seed for each.

    Each point runs cfg with its channel replaced.  It decodes with
    cfg.decoder as given, so its prior stays at cfg.decoder.p_d whatever
    the point's p_d; `eaqc sweep` sets it to the first --pd value.
    """
    if not pd_values or not eta_values:
        raise ValueError("a sweep needs at least one p_d and one eta")
    rows = []
    for p_d in pd_values:
        for eta in eta_values:
            res = run_trials(replace(cfg, channel=ChannelParams(p_d, eta)))
            rows.append({
                "family": cfg.code.family,
                "n": cfg.code.n,
                "k": cfg.code.k,
                "c": cfg.code.c,
                "p_d": p_d,
                "eta": eta,
                "decoder": cfg.decoder.algorithm,
                "trials": res.trials,
                "failures": res.failures,
                "LER": res.ler,
                "ci_low": res.ci_low,
                "ci_high": res.ci_high,
                "seed": cfg.master_seed,
            })
    return rows


def write_csv(rows: list[dict], target) -> str:
    """Write sweep rows; returns the CSV text.  target may be a path or None."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in CSV_COLUMNS})
    text = buf.getvalue()
    if target is not None:
        with open(target, "w", newline="") as fh:
            fh.write(text)
    return text
