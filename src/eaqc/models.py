"""Model-matrix construction for every quasi-cyclic family.

Each construction rule, and each family's exponent grid and parameter
domain, has one home here:

* the scalar-multiple class over a prime p, row i = scalars[i]·base
  mod p, is `scalar_rows`; the randomized prime family, the deterministic
  grid with exponent ``i*j mod p`` and the identity-free banks of
  `theorem6_models` all build from it;
* Theorem 5's disjoint X and Z banks (`theorem5_selection`) and
  Theorem 7's shared H (`theorem7_model`) are block-rows of that
  deterministic grid;
* the randomized composite-order family rejects each candidate row that
  closes a 4-cycle with the earlier rows, by `girth.has_four_cycle`;
* the wide-girth families build their rows from geometric sequences of
  powers of w, the four-row ones through `_geometric_four_row`.

Every integer parameter is read as a `gf2._count`; a value outside its
family's domain raises ValueError.

All "random" choices consume draws from ``numpy.random.default_rng(seed)``
in a documented order, so outputs are reproducible across platforms.
"""

from __future__ import annotations

import math

import numpy as np

from eaqc.gf2 import ModelMatrix, _count
from eaqc.girth import has_four_cycle

__all__ = [
    "OrderExhausted",
    "scalar_rows",
    "construct_prime_model",
    "special_prime_model",
    "construct_composite_model",
    "theorem5_selection",
    "theorem6_models",
    "theorem7_model",
    "theorem8_model",
    "theorem9_model",
    "theorem10_model",
]


class OrderExhausted(RuntimeError):
    """The retry budget for a circulant order is spent; try the next order."""

    def __init__(self, n: int, q: int, r: int, row_index: int):
        self.n, self.q, self.r, self.row_index = n, q, r, row_index
        super().__init__(
            f"no admissible row {row_index} exists for order {n} "
            f"(grid {q}x{r}); retry with the next composite order"
        )


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _require_odd_prime(p: int) -> int:
    """p as a `_count`, raising ValueError unless it is an odd prime."""
    p = _count(p, "p")
    if not _is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return p


# ── prime-order families ──────────────────────────────────────────────


def scalar_rows(p: int, scalars, base) -> ModelMatrix:
    """The scalar-multiple class: row i is scalars[i]·base mod p."""
    return ModelMatrix(p, np.outer(scalars, base) % p)


def construct_prime_model(p: int, seed) -> ModelMatrix:
    """Randomized p x p exponent grid whose rows are multiples of one row.

    Draw order: (1) a permutation of [1, p-1] filling the base row after
    its leading zero; (2) a permutation of [2, p-1] giving the scalars of
    rows 2..p-1 in row order.  Row 0 is the zero row, row 1 the base.

    No builder reads it: the prime-order codes all come from the
    deterministic grid.  It stays only because the benchmark's tracer
    wraps it by name.
    """
    p = _require_odd_prime(p)
    rng = np.random.default_rng(seed)
    base = np.concatenate([[0], rng.permutation(np.arange(1, p))])
    scalars = np.concatenate([[0, 1], rng.permutation(np.arange(2, p))])
    return scalar_rows(p, scalars, base)


def special_prime_model(p: int) -> ModelMatrix:
    """Deterministic member of the prime family: exponent(i, j) = i*j mod p."""
    p = _require_odd_prime(p)
    idx = np.arange(p, dtype=np.int64)
    return scalar_rows(p, idx, idx)


# ── composite-order family ────────────────────────────────────────────


def construct_composite_model(n: int, q: int, r: int, seed) -> ModelMatrix:
    """Randomized q x r grid over a composite order with zero first row/column.

    Each candidate row is an ordered draw of r-1 distinct nonzero residues
    (one `rng.choice` call per candidate), rejected when it closes a
    4-cycle with the earlier rows (`has_four_cycle`).  When all
    perm(n-1, r-1) such draws have been tried, or after 64 times that
    many draws plus 1024, OrderExhausted signals the caller to move to
    the next composite order.

    No builder reads it; it stays only because the benchmark's tracer
    wraps it by name.
    """
    if n < 4 or _is_odd_prime(n):
        raise ValueError(f"order must be composite, got {n}")
    if not q < r < n:
        raise ValueError(f"need q < r < n, got q={q}, r={r}, n={n}")
    if q < 1:
        raise ValueError("need at least one block-row")
    rng = np.random.default_rng(seed)
    universe = math.perm(n - 1, r - 1)
    grid = np.zeros((q, r), dtype=np.int64)
    cand = np.zeros(r, dtype=np.int64)
    values = np.arange(1, n)
    for i in range(1, q):
        tried: set[bytes] = set()
        for _ in range(64 * universe + 1024):
            if len(tried) == universe:
                break
            cand[1:] = rng.choice(values, size=r - 1, replace=False)
            key = cand.tobytes()
            if key in tried:
                continue
            tried.add(key)
            if not has_four_cycle(ModelMatrix(n, np.vstack([grid[:i], cand]))):
                grid[i] = cand
                break
        if not grid[i].any():  # no candidate was admitted
            raise OrderExhausted(n, q, r, i)
    return ModelMatrix(n, grid)


# ── selections from the deterministic prime grid ──────────────────────


def theorem5_selection(p: int, l1: int, l2: int) -> tuple[ModelMatrix, ModelMatrix]:
    """The disjoint X and Z block-row banks of the deterministic prime grid.

    X takes rows 1..l1, Z the top l2 rows; when every row is spoken for
    (l1 + l2 = p) the Z bank swaps its lowest pick for the zero row to
    keep the banks disjoint.
    """
    p, l1, l2 = _require_odd_prime(p), _count(l1, "l1"), _count(l2, "l2")
    if l1 < 1 or l2 < 1 or l1 + l2 > p:
        raise ValueError(f"need l1, l2 >= 1 with l1 + l2 <= p; got {l1}, {l2}, p={p}")
    base = special_prime_model(p)
    mx = base.row_submodel(range(1, l1 + 1))
    if l1 + l2 == p:
        mz = base.row_submodel([0, *range(p - l2 + 1, p)])
    else:
        mz = base.row_submodel(range(p - l2, p))
    return mx, mz


def theorem6_models(p: int, l1: int, l2: int) -> tuple[ModelMatrix, ModelMatrix]:
    """Two row-banks of the deterministic prime grid without its identity column.

    X-side rows use scalars 1..l1, Z-side rows continue at l1+1..l1+l2;
    column j carries exponent scalar*j for j = 1..p-1.
    """
    p, l1, l2 = _require_odd_prime(p), _count(l1, "l1"), _count(l2, "l2")
    if not (1 <= l1 <= p - 2 and 1 <= l2 <= p - 2 and l1 + l2 <= p - 1):
        raise ValueError(
            f"need 1 <= l1, l2 <= p-2 and l1+l2 <= p-1; got l1={l1}, l2={l2}, p={p}"
        )
    cols = np.arange(1, p, dtype=np.int64)
    return (scalar_rows(p, np.arange(1, l1 + 1), cols),
            scalar_rows(p, np.arange(l1 + 1, l1 + l2 + 1), cols))


def theorem7_model(p: int, l: int) -> ModelMatrix:
    """Rows 1..l of the deterministic prime grid (the shared H)."""
    p, l = _require_odd_prime(p), _count(l, "l")
    if l < 1 or 2 * l >= p:
        raise ValueError(f"need 1 <= l with 2l < p; got l={l}, p={p}")
    return special_prime_model(p).row_submodel(range(1, l + 1))


# ── wide-girth families ───────────────────────────────────────────────


def theorem8_model(l: int, w: int) -> ModelMatrix:
    """3 x l grid over Z_{w^l + 1}: zero row, w-powers, their negatives."""
    l, w = _count(l, "l"), _count(w, "w")
    if l < 6:
        raise ValueError(f"need l >= 6, got {l}")
    if w < 2:
        raise ValueError(f"need w >= 2, got {w}")
    order = w**l + 1
    powers = np.array([pow(w, j, order) for j in range(1, l + 1)], dtype=np.int64)
    grid = np.vstack([np.zeros(l, dtype=np.int64), powers, (-powers) % order])
    return ModelMatrix(order, grid)


def _geometric_four_row(s: tuple[int, ...], w: int) -> ModelMatrix:
    top = s[-1]
    order = w ** (top + 1) - 1
    rows = [np.zeros(len(s), dtype=np.int64)]
    for shift in (0, 1, 2):
        rows.append(
            np.array([pow(w, a - shift, order) for a in s], dtype=np.int64)
        )
    return ModelMatrix(order, np.vstack(rows))


def _ascending_exponents(s) -> tuple[int, ...]:
    """The exponent set s as `_count`s, strictly ascending from at least 2."""
    s = tuple(_count(a, "exponent") for a in s)
    if len(s) < 1 or any(b <= a for a, b in zip(s, s[1:])):
        raise ValueError(f"exponent set must be strictly ascending, got {s}")
    if s[0] < 2:
        raise ValueError(f"every exponent must be >= 2, got smallest {s[0]}")
    return s


def theorem9_model(s, w: int, *, enforce_scale: bool = True) -> ModelMatrix:
    """4-row geometric grid; rejects consecutive unit gaps and odd w.

    With enforce_scale=False the minimum-top-exponent requirement is
    waived so the structure can be exercised at reduced size; every other
    constraint still applies.
    """
    s, w = _ascending_exponents(s), _count(w, "w")
    if w < 2 or w % 2 != 0:
        raise ValueError(f"w must be an even integer >= 2, got {w}")
    gaps = [b - a for a, b in zip(s, s[1:])]
    for t in range(len(gaps) - 1):
        if gaps[t] == 1 and gaps[t + 1] == 1:
            raise ValueError(
                f"three exponents with two consecutive unit gaps at positions "
                f"{t}..{t + 2}: {s[t:t + 3]}"
            )
    if enforce_scale and s[-1] < 12:
        raise ValueError(f"largest exponent must be >= 12, got {s[-1]}")
    return _geometric_four_row(s, w)


def theorem10_model(s, w: int, *, enforce_scale: bool = True) -> ModelMatrix:
    """4-row geometric grid; all pairwise exponent gaps must be >= 2."""
    s, w = _ascending_exponents(s), _count(w, "w")
    if w < 2:
        raise ValueError(f"w must be an integer >= 2, got {w}")
    for a, b in zip(s, s[1:]):
        if b - a < 2:
            raise ValueError(f"adjacent exponents {a}, {b} violate the gap-2 rule")
    if enforce_scale and s[-1] < 14:
        raise ValueError(f"largest exponent must be >= 14, got {s[-1]}")
    return _geometric_four_row(s, w)
