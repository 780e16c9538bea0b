"""Monte-Carlo logical-error-rate estimation and exhaustive burst audits.

A trial fails when the residual (actual XOR estimated error, padded with
zeros on the noise-free ebit coordinates) falls outside the GF(2) row
space of the extended stabilizer in symplectic form, or when the decoder
did not converge.  Per-trial randomness comes from (master_seed, trial)
counter seeds, so results are independent of how trials are scheduled.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from eaqc.channel import ChannelParams, sample_error_batch
from eaqc.clifford import category_bits, logical_operators
from eaqc.decoder import (
    DecoderConfig,
    build_graphs,
    decode_binary_batch,
    decode_quaternary_batch,
    syndrome_batch,
)
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
    pd_axis: tuple[float, ...] = ()
    eta_axis: tuple[float, ...] = ()

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


def _decode_batch(code, graphs, sx, sz, cfg: DecoderConfig):
    graph_x, graph_z, joint = graphs
    if cfg.algorithm == "binary-spa":
        return decode_binary_batch(graph_x, graph_z, sx, sz, cfg)
    return decode_quaternary_batch(joint, sx, sz, cfg)


def run_trials(cfg: SimConfig) -> SimResult:
    code = cfg.code
    graphs = build_graphs(code)
    basis = stabilizer_symplectic(code)
    xs, zs = sample_error_batch(code.n, cfg.channel, cfg.master_seed, cfg.trials)
    sx, sz = syndrome_batch(code, xs, zs)
    est_x, est_z, conv, _ = _decode_batch(code, graphs, sx, sz, cfg.decoder)
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

def min_weight_decoder(code: EaCode, syndromes):
    """Map each (sx, sz) byte pair to a minimum-weight error matching it.

    Sweeps Pauli patterns in weight order, lexicographic within a weight
    layer, and keeps the first hit per syndrome; deterministic, so the
    chosen coset representative is reproducible.
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
        if not needed:
            break
        assignments = np.array(list(product((1, 2, 3), repeat=weight)), np.int8)
        for support in combinations(range(n), weight):
            cats = np.zeros((assignments.shape[0], n), np.int8)
            cats[:, support] = assignments
            x, z = category_bits(cats)
            sx, sz = syndrome_batch(code, x, z)
            for t in range(x.shape[0]):
                key = (sx[t].tobytes(), sz[t].tobytes())
                if key in needed:
                    table[key] = (x[t].copy(), z[t].copy())
                    needed.discard(key)
                    if not needed:
                        break
            if not needed:
                break
    if needed:
        raise RuntimeError("some syndromes are not reachable by any Pauli error")
    return table


def _logical_coordinates(code: EaCode):
    """Symplectically swapped logical vectors, for coset classification."""
    pairs = logical_operators(code)
    q = code.n + code.c
    vecs = []
    for xbar, zbar in pairs:
        for op in (zbar, xbar):  # products with these give X / Z coefficients
            vecs.append(np.concatenate([op.z, op.x]))
    return np.stack(vecs).astype(np.int64), q


def _class_bits(coords: np.ndarray, q: int, n: int,
                x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Logical class bits of each (x, z) row; the ebit coordinates are zero.

    uint8 sums wrap mod 256, which keeps their parity.
    """
    cx = coords[:, :n].T.astype(np.uint8)
    cz = coords[:, q : q + n].T.astype(np.uint8)
    return (x.astype(np.uint8) @ cx + z.astype(np.uint8) @ cz) & 1


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
    coords, q = _logical_coordinates(code)
    digits = np.arange(total, dtype=np.int64)
    cats = ((digits[:, None] >> (2 * np.arange(n))) & 3).astype(np.int8)
    x, z = category_bits(cats)
    weights = np.count_nonzero(cats, axis=1)
    syn_bytes = np.concatenate(syndrome_batch(code, x, z), axis=1)
    cls = _class_bits(coords, q, n, x, z)
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
    patterns: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    for start in range(windows):
        for assignment in product((0, 1, 2, 3), repeat=burst_len):
            if not any(assignment):
                continue
            cats = np.zeros(n, np.int8)
            cats[start : start + burst_len] = assignment
            x, z = category_bits(cats[None, :])
            patterns.setdefault(cats.tobytes(), (x[0], z[0]))
    xs = np.stack([v[0] for v in patterns.values()])
    zs = np.stack([v[1] for v in patterns.values()])
    count = xs.shape[0]
    sx, sz = syndrome_batch(code, xs, zs)
    keys = [(sx[t].tobytes(), sz[t].tobytes()) for t in range(count)]
    table = min_weight_decoder(code, keys)
    basis = stabilizer_symplectic(code)
    est_x = np.stack([table[k][0] for k in keys])
    est_z = np.stack([table[k][1] for k in keys])
    oracle_ok = residual_in_group(basis, code, xs ^ est_x, zs ^ est_z)
    graphs = build_graphs(code)
    dx, dz, conv, _ = _decode_batch(code, graphs, sx, sz, spa_cfg)
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

def sweep(cfg: SimConfig) -> list[dict]:
    if not cfg.pd_axis and not cfg.eta_axis:
        raise ValueError("a sweep needs at least one axis")
    pd_values = cfg.pd_axis or (cfg.channel.p_d,)
    eta_values = cfg.eta_axis or (cfg.channel.eta,)
    rows = []
    for p_d in pd_values:
        for eta in eta_values:
            point = SimConfig(
                code=cfg.code,
                channel=ChannelParams(p_d, eta),
                decoder=cfg.decoder,
                trials=cfg.trials,
                master_seed=cfg.master_seed,
            )
            res = run_trials(point)
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
