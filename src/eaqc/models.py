"""Model-matrix construction for every quasi-cyclic family.

Five generators live here:

* a randomized prime-order family built from one scalar-multiple base row,
* the deterministic prime-order grid with exponent ``i*j mod p``,
* a randomized composite-order family with rejection sampling,
* two-sided selections for the paired-code families, and
* three deterministic wide-girth families built from geometric sequences.

All "random" choices consume draws from ``numpy.random.default_rng(seed)``
in a documented order, so outputs are reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eaqc.gf2 import ModelMatrix

__all__ = [
    "OrderExhausted",
    "PrimeModelParams",
    "CompositeModelParams",
    "construct_prime_model",
    "special_prime_model",
    "construct_composite_model",
    "theorem6_models",
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


def _require_odd_prime(p: int) -> None:
    if not _is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


# ── prime-order families ──────────────────────────────────────────────


@dataclass(frozen=True)
class PrimeModelParams:
    """Draws that fully determine a randomized prime-order model.

    base_row is a permutation of Z_p with leading zero; every other row
    of the grid is a scalar multiple of it.  multipliers are the scalars
    for rows 2..p-1 (row 0 is the zero row, row 1 the base itself).
    """

    p: int
    multipliers: tuple[int, ...]
    base_row: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_odd_prime(self.p)
        p = self.p
        if sorted(self.base_row) != list(range(p)) or self.base_row[0] != 0:
            raise ValueError("base row must be a permutation of Z_p starting at 0")
        ks = self.multipliers
        if len(ks) != p - 2 or len(set(ks)) != len(ks):
            raise ValueError(f"need {p - 2} distinct multipliers")
        if any(k in (0, 1) or not 0 < k < p for k in ks):
            raise ValueError("multipliers must lie in {2, ..., p-1}")

    def assemble(self) -> ModelMatrix:
        p = self.p
        base = np.asarray(self.base_row, dtype=np.int64)
        grid = np.zeros((p, p), dtype=np.int64)
        grid[1] = base
        for i, k in enumerate(self.multipliers, start=2):
            grid[i] = (k * base) % p
        return ModelMatrix(p, grid)


def construct_prime_model(p: int, seed) -> ModelMatrix:
    """Randomized p x p exponent grid whose rows are multiples of one row.

    Draw order: (1) a permutation of [1, p-1] filling the base row after
    its leading zero; (2) a permutation of [2, p-1] giving the row
    multipliers in row order.
    """
    _require_odd_prime(p)
    rng = np.random.default_rng(seed)
    base_tail = rng.permutation(np.arange(1, p))
    multipliers = rng.permutation(np.arange(2, p))
    params = PrimeModelParams(
        p=p,
        multipliers=tuple(int(k) for k in multipliers),
        base_row=(0, *(int(v) for v in base_tail)),
    )
    return params.assemble()


def special_prime_model(p: int) -> ModelMatrix:
    """Deterministic member of the prime family: exponent(i, j) = i*j mod p."""
    _require_odd_prime(p)
    idx = np.arange(p, dtype=np.int64)
    return ModelMatrix(p, np.outer(idx, idx) % p)


# ── composite-order family ────────────────────────────────────────────


@dataclass(frozen=True)
class CompositeModelParams:
    n: int
    q: int
    r: int

    def __post_init__(self) -> None:
        if self.n < 4 or _is_odd_prime(self.n) or self.n == 2:
            raise ValueError(f"order must be composite, got {self.n}")
        if not self.q < self.r < self.n:
            raise ValueError(f"need q < r < n, got q={self.q}, r={self.r}, n={self.n}")
        if self.q < 1:
            raise ValueError("need at least one block-row")

    @property
    def itr_max(self) -> int:
        # ordered draws of r-1 distinct nonzero residues
        out = 1
        for v in range(self.n - self.r + 1, self.n):
            out *= v
        return out


def _difference_ok(cand: np.ndarray, earlier: np.ndarray, n: int) -> bool:
    # full-row difference (leading zero column included) must have all
    # distinct entries mod n for every earlier row
    for row in earlier:
        d = (cand - row) % n
        if len(np.unique(d)) != len(d):
            return False
    return True


def construct_composite_model(n: int, q: int, r: int, seed) -> ModelMatrix:
    """Randomized q x r grid over a composite order with zero first row/column.

    Each candidate row is an ordered draw of r-1 distinct nonzero residues
    (one `rng.choice` call per candidate).  A candidate is rejected when the
    full-row difference against any earlier row repeats an entry mod n; only
    fresh rejected candidates consume the retry budget.  When the budget (or
    the candidate universe) is spent, OrderExhausted signals the caller to
    move to the next composite order.
    """
    params = CompositeModelParams(n, q, r)
    rng = np.random.default_rng(seed)
    itr_max = params.itr_max
    grid = np.zeros((q, r), dtype=np.int64)
    values = np.arange(1, n)
    for i in range(1, q):
        earlier = grid[:i]
        tried: set[bytes] = set()
        itr = 0
        raw_draws = 0
        raw_cap = 64 * itr_max + 1024
        while True:
            if len(tried) >= itr_max or itr > itr_max or raw_draws >= raw_cap:
                raise OrderExhausted(n, q, r, i)
            cand = np.zeros(r, dtype=np.int64)
            cand[1:] = rng.choice(values, size=r - 1, replace=False)
            raw_draws += 1
            key = cand.tobytes()
            if key in tried:
                continue
            if any(np.array_equal(cand, row) for row in earlier):
                tried.add(key)  # excluded from the draw, not a budget miss
                continue
            if not _difference_ok(cand, earlier, n):
                tried.add(key)
                itr += 1
                continue
            grid[i] = cand
            break
    return ModelMatrix(n, grid)


# ── paired-code selections ────────────────────────────────────────────


def theorem6_models(p: int, l1: int, l2: int) -> tuple[ModelMatrix, ModelMatrix]:
    """Two row-banks of the deterministic prime grid without its identity column.

    X-side rows use scalars 1..l1, Z-side rows continue at l1+1..l1+l2;
    column j carries exponent scalar*j for j = 1..p-1.
    """
    _require_odd_prime(p)
    if not (1 <= l1 <= p - 2 and 1 <= l2 <= p - 2 and l1 + l2 <= p - 1):
        raise ValueError(
            f"need 1 <= l1, l2 <= p-2 and l1+l2 <= p-1; got l1={l1}, l2={l2}, p={p}"
        )
    cols = np.arange(1, p, dtype=np.int64)
    mx = ModelMatrix(p, np.outer(np.arange(1, l1 + 1), cols) % p)
    mz = ModelMatrix(p, np.outer(np.arange(l1 + 1, l1 + l2 + 1), cols) % p)
    return mx, mz


# ── wide-girth families ───────────────────────────────────────────────


def theorem8_model(l: int, w: int) -> ModelMatrix:
    """3 x l grid over Z_{w^l + 1}: zero row, w-powers, their negatives."""
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


def _check_ascending(s: tuple[int, ...]) -> None:
    if len(s) < 1 or any(b <= a for a, b in zip(s, s[1:])):
        raise ValueError(f"exponent set must be strictly ascending, got {s}")
    if s[0] < 2:
        raise ValueError(f"every exponent must be >= 2, got smallest {s[0]}")


def theorem9_model(s, w: int, *, enforce_scale: bool = True) -> ModelMatrix:
    """4-row geometric grid; rejects consecutive unit gaps and odd w.

    With enforce_scale=False the minimum-top-exponent requirement is
    waived so the structure can be exercised at reduced size; every other
    constraint still applies.
    """
    s = tuple(int(a) for a in s)
    _check_ascending(s)
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
    s = tuple(int(a) for a in s)
    _check_ascending(s)
    if w < 2:
        raise ValueError(f"w must be an integer >= 2, got {w}")
    for a, b in zip(s, s[1:]):
        if b - a < 2:
            raise ValueError(f"adjacent exponents {a}, {b} violate the gap-2 rule")
    if enforce_scale and s[-1] < 14:
        raise ValueError(f"largest exponent must be >= 14, got {s[-1]}")
    return _geometric_four_row(s, w)
