"""Entanglement-assisted code assembly from quasi-cyclic model matrices.

Each builder expands its model matrices, measures the GF(2) ranks that fix
the code parameters, extends both parity-check sides until they commute,
and double-checks every closed-form prediction its family makes.  A failed
prediction raises instead of shipping a wrong code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eaqc.gf2 import (
    BinaryMatrix,
    DimensionMismatch,
    ModelMatrix,
    RowBasis,
    expand,
    gfrank,
    matmul,
)
from eaqc.girth import has_four_cycle, has_six_cycle
from eaqc.models import (
    _require_odd_prime,
    special_prime_model,
    theorem6_models,
    theorem8_model,
    theorem9_model,
    theorem10_model,
)

__all__ = [
    "EaCode",
    "FAMILIES",
    "CodeParams",
    "StructureCheckFailed",
    "ebit_count",
    "extend",
    "girth_floor_of",
    "circulant_block_product",
    "theorem5_selection",
    "theorem7_model",
    "build_theorem5",
    "build_theorem6",
    "build_theorem7",
    "build_theorem8",
    "build_theorem9",
    "build_theorem10",
]


class StructureCheckFailed(RuntimeError):
    """A built code violated a property its construction guarantees."""


@dataclass(frozen=True)
class EaCode:
    """An entanglement-assisted CSS pair with its extended check matrices.

    hx/hz act on the n transmitted qubits; hex/hez carry c extra columns
    for the receiver-side halves of the entangled pairs and commute
    exactly.  k counts logical qubits.  mx/mz are the model matrices that
    expand to hx/hz (the same object, as are hx and hz, for single-matrix
    families); girth_floor is girth_floor_of(mx, mz), and rank_hx/rank_hz
    are the GF(2) ranks of hx/hz.
    """

    n: int
    k: int
    c: int
    hx: BinaryMatrix
    hz: BinaryMatrix
    hex: BinaryMatrix
    hez: BinaryMatrix
    family: str
    p_or_order: int
    mx: ModelMatrix
    mz: ModelMatrix
    girth_floor: int
    rank_hx: int
    rank_hz: int

    def stabilizer_rows(self) -> BinaryMatrix:
        """The extended checks in symplectic (x | z) layout: [hex | 0; 0 | hez]."""
        q = self.n + self.c
        return self.hex.hstack(BinaryMatrix.zeros(self.hex.rows, q)).vstack(
            BinaryMatrix.zeros(self.hez.rows, q).hstack(self.hez)
        )


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    c: int
    girth_floor: int  # verified inclusive lower bound on unassisted girth

    def __post_init__(self) -> None:
        if self.n <= 0 or not 0 <= self.k <= self.n or self.c < 0:
            raise ValueError(
                f"inconsistent parameters n={self.n}, k={self.k}, c={self.c}"
            )


def ebit_count(hx: BinaryMatrix, hz: BinaryMatrix) -> int:
    """Entanglement cost of a CSS pair: gfrank of hx·hzᵀ."""
    if hx.cols != hz.cols:
        raise DimensionMismatch(f"hx has {hx.cols} columns, hz has {hz.cols}")
    return gfrank(matmul(hx, hz.transpose()))


def extend(hx: BinaryMatrix, hz: BinaryMatrix) -> tuple[BinaryMatrix, BinaryMatrix]:
    """Append c columns to each side so the extended matrices commute.

    Rank-factors m = hx·hzᵀ as ex·ezᵀ with c = gfrank(m) columns: ez takes
    the reduced-echelon rows of m, ex the pivot columns (which hold the
    combination coefficients because echelon pivot columns are unit
    vectors).  Appending makes hex·hezᵀ = m + ex·ezᵀ = 0 over GF(2).
    """
    if hx.cols != hz.cols:
        raise DimensionMismatch(f"hx has {hx.cols} columns, hz has {hz.cols}")
    m = matmul(hx, hz.transpose())
    basis = RowBasis.build(m)
    if basis.rank == 0:
        return hx, hz
    ez = BinaryMatrix(basis.rank, m.cols, basis.rref_words).transpose()
    ex_dense = np.stack(
        [m.column_bit(int(pc)) for pc in basis.pivot_cols], axis=1
    ).astype(np.uint8)
    ex = BinaryMatrix.from_dense(ex_dense)
    return hx.hstack(ex), hz.hstack(ez)


def girth_floor_of(mx: ModelMatrix, mz: ModelMatrix | None = None) -> int:
    """Inclusive girth lower bound of the (combined) unassisted graph.

    Returns the exact girth when it is 4 or 6, else 8 meaning "at least 8".
    Pass one model for a single-matrix code, two for a CSS pair (their
    block-rows are stacked).
    """
    m = mx if mz is None or mz is mx else mx.vstack(mz)
    if has_four_cycle(m):
        return 4
    if has_six_cycle(m):
        return 6
    return 8


def circulant_block_product(ma: ModelMatrix, mb: ModelMatrix) -> BinaryMatrix:
    """expand(ma)·expand(mb)ᵀ assembled directly from exponent differences.

    Block (u, v) is the mod-2 sum of circulant powers P^(a[u,j] - b[v,j]).
    This route never calls expand or matmul, so it serves as an
    independent oracle for the product's block structure.
    """
    if ma.order != mb.order or ma.block_cols != mb.block_cols:
        raise DimensionMismatch("models disagree on order or block width")
    n = ma.order
    ea, eb = ma.exponents, mb.exponents
    out = np.zeros((ma.block_rows * n, mb.block_rows * n), dtype=np.uint8)
    rng_idx = np.arange(n)
    for u in range(ma.block_rows):
        for v in range(mb.block_rows):
            block = np.zeros((n, n), dtype=np.uint8)
            for j in range(ma.block_cols):
                d = int(ea[u, j] - eb[v, j]) % n
                block[rng_idx, (rng_idx + d) % n] ^= 1
            out[u * n : (u + 1) * n, v * n : (v + 1) * n] = block
    return BinaryMatrix.from_dense(out)


# ── shared assembly ───────────────────────────────────────────────────


def _assemble(
    family: str,
    p_or_order: int,
    mx: ModelMatrix,
    mz: ModelMatrix,
    *,
    min_floor: int,
) -> EaCode:
    """Expand, extend, and parameter-check one code."""
    floor = girth_floor_of(mx, mz)
    if floor < min_floor:
        raise StructureCheckFailed(
            f"{family}: unassisted graph girth floor {floor} below required {min_floor}"
        )
    hx = expand(mx)
    hz = hx if mz is mx else expand(mz)
    gx = gfrank(hx)
    gz = gx if mz is mx else gfrank(hz)
    c = ebit_count(hx, hz)
    n = hx.cols
    k = (n - gx) + (n - gz) - n + c
    hex_, hez = extend(hx, hz)
    if not matmul(hex_, hez.transpose()).is_zero():
        raise StructureCheckFailed(f"{family}: extended matrices do not commute")
    if hex_.cols != n + c or hez.cols != n + c:
        raise StructureCheckFailed(f"{family}: extension width is not c={c}")
    return EaCode(
        n=n, k=k, c=c, hx=hx, hz=hz, hex=hex_, hez=hez,
        family=family, p_or_order=p_or_order,
        mx=mx, mz=mz, girth_floor=floor, rank_hx=gx, rank_hz=gz,
    )


def _expect(family: str, name: str, got: int, want: int) -> None:
    if got != want:
        raise StructureCheckFailed(f"{family}: {name} is {got}, predicted {want}")


# ── scalar-multiple prime family (one appended column) ────────────────


def theorem5_selection(p: int, l1: int, l2: int) -> tuple[ModelMatrix, ModelMatrix]:
    """Default disjoint block-row banks from the deterministic prime grid.

    X takes rows 1..l1, Z the top l2 rows; when every row is spoken for
    (l1 + l2 = p) the Z bank swaps its lowest pick for the zero row to
    keep the banks disjoint.
    """
    _require_odd_prime(p)
    if l1 < 1 or l2 < 1 or l1 + l2 > p:
        raise ValueError(f"need l1, l2 >= 1 with l1 + l2 <= p; got {l1}, {l2}, p={p}")
    base = special_prime_model(p)
    mx = base.row_submodel(range(1, l1 + 1))
    if l1 + l2 == p:
        mz = base.row_submodel([0, *range(p - l2 + 1, p)])
    else:
        mz = base.row_submodel(range(p - l2, p))
    return mx, mz


def _check_scalar_class_rows(p: int, mx: ModelMatrix, mz: ModelMatrix) -> None:
    """All block-rows must come from one scalar-multiple class, no repeats."""
    if mx.order != p or mz.order != p:
        raise ValueError("row banks must share the circulant order p")
    if mx.block_cols != p or mz.block_cols != p:
        raise ValueError("row banks must span all p block-columns")
    rows = np.vstack([mx.exponents, mz.exponents])
    if len({tuple(r) for r in rows.tolist()}) != len(rows):
        raise ValueError("the X and Z banks share a block-row")
    nonzero = [r for r in rows if r.any()]
    for r in nonzero:
        if r[0] != 0 or sorted(r.tolist()) != list(range(p)):
            raise ValueError("each nonzero row must permute Z_p with leading zero")
    if nonzero:
        base = nonzero[0]
        inv = pow(int(base[1]), -1, p)
        for r in nonzero[1:]:
            scalar = (int(r[1]) * inv) % p
            if ((scalar * base) % p != r).any():
                raise ValueError("rows are not scalar multiples of a common row")


def build_theorem5(
    p: int,
    l1: int,
    l2: int,
    mx: ModelMatrix | None = None,
    mz: ModelMatrix | None = None,
) -> EaCode:
    """[[p², p² − 2p − (p−1)(l1+l2−2) + 1; 1]] from one scalar-multiple class."""
    if (mx is None) != (mz is None):
        raise ValueError("provide both row banks or neither")
    if mx is None:
        mx, mz = theorem5_selection(p, l1, l2)
    else:
        _require_odd_prime(p)
        if mx.block_rows != l1 or mz.block_rows != l2:
            raise ValueError("row banks disagree with l1/l2")
        if l1 + l2 > p:
            raise ValueError(f"need l1 + l2 <= p, got {l1 + l2} > {p}")
        _check_scalar_class_rows(p, mx, mz)
    code = _assemble("theorem5", p, mx, mz, min_floor=6)
    _expect("theorem5", "n", code.n, p * p)
    _expect("theorem5", "c", code.c, 1)
    _expect("theorem5", "k", code.k, p * p - 2 * p - (p - 1) * (l1 + l2 - 2) + 1)
    return code


# ── identity-free prime family ((p−1) appended columns) ───────────────


def build_theorem6(p: int, l1: int, l2: int) -> EaCode:
    """[[p² − p, p² − 3p − (p−1)(l1+l2−2) + (p−1); p − 1]]."""
    mx, mz = theorem6_models(p, l1, l2)
    code = _assemble("theorem6", p, mx, mz, min_floor=6)
    _expect("theorem6", "n", code.n, p * p - p)
    _expect("theorem6", "c", code.c, p - 1)
    _expect("theorem6", "gfrank(hx)", code.rank_hx, p + (p - 1) * (l1 - 1))
    _expect(
        "theorem6", "k", code.k,
        p * p - 3 * p - (p - 1) * (l1 + l2 - 2) + (p - 1),
    )
    return code


# ── symmetric single-matrix prime family ──────────────────────────────


def theorem7_model(p: int, l: int) -> ModelMatrix:
    """Rows 1..l of the deterministic prime grid (the shared H)."""
    _require_odd_prime(p)
    if l < 1 or 2 * l >= p:
        raise ValueError(f"need 1 <= l with 2l < p; got l={l}, p={p}")
    return special_prime_model(p).row_submodel(range(1, l + 1))


def build_theorem7(p: int, l: int) -> EaCode:
    """[[p², (p−1)(p−l+1); p + (l−1)(p−1)]] with hx = hz = H."""
    m = theorem7_model(p, l)
    code = _assemble("theorem7", p, m, m, min_floor=6)
    want_c = p + (l - 1) * (p - 1)
    _expect("theorem7", "n", code.n, p * p)
    _expect("theorem7", "gfrank(H)", code.rank_hx, want_c)
    _expect("theorem7", "c", code.c, want_c)
    _expect("theorem7", "k", code.k, (p - 1) * (p - l + 1))
    return code


# ── geometric wide-girth families (girth above 6) ─────────────────────


def _geometric_bounds(
    family: str, code: EaCode, order: int, diag_blocks: int
) -> None:
    # 3 block-rows cap the rank at 3*order − 2, 4 block-rows at 4*order − 3
    cap = diag_blocks * order - (diag_blocks - 1)
    if code.rank_hx > cap:
        raise StructureCheckFailed(
            f"{family}: gfrank(H) = {code.rank_hx} exceeds the bound {cap}"
        )
    if code.c > cap:
        raise StructureCheckFailed(
            f"{family}: ebit count {code.c} exceeds the bound {cap}"
        )


def build_theorem8(l: int, w: int) -> EaCode:
    """Single-H geometric family over order w^l + 1, girth above 6."""
    m = theorem8_model(l, w)
    code = _assemble("theorem8", m.order, m, m, min_floor=8)
    _expect("theorem8", "n", code.n, m.order * l)
    _geometric_bounds("theorem8", code, m.order, 3)
    return code


def build_theorem9(s, w: int, *, enforce_scale: bool = True) -> EaCode:
    """Four-row geometric family, even w, girth above 6."""
    m = theorem9_model(s, w, enforce_scale=enforce_scale)
    code = _assemble("theorem9", m.order, m, m, min_floor=8)
    _expect("theorem9", "n", code.n, m.order * m.block_cols)
    _geometric_bounds("theorem9", code, m.order, 4)
    return code


def build_theorem10(s, w: int, *, enforce_scale: bool = True) -> EaCode:
    """Four-row geometric family, pairwise gaps of 2, girth above 6."""
    m = theorem10_model(s, w, enforce_scale=enforce_scale)
    code = _assemble("theorem10", m.order, m, m, min_floor=8)
    _expect("theorem10", "n", code.n, m.order * m.block_cols)
    _geometric_bounds("theorem10", code, m.order, 4)
    return code


# CLI family name -> (builder, the CLI flags that supply its positional
# arguments in order).  "set" is a comma-separated list; the builders that
# take it also accept enforce_scale.
FAMILIES = {
    "thm5": (build_theorem5, ("p", "l1", "l2")),
    "thm6": (build_theorem6, ("p", "l1", "l2")),
    "thm7": (build_theorem7, ("p", "l")),
    "thm8": (build_theorem8, ("l", "w")),
    "thm9": (build_theorem9, ("set", "w")),
    "thm10": (build_theorem10, ("set", "w")),
}
