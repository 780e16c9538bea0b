"""Entanglement-assisted code assembly from quasi-cyclic model matrices.

Each builder takes its model matrices from `models`, the home of every
family's exponent grid and parameter domain, expands them, measures the
GF(2) ranks that fix the code parameters, extends both parity-check sides
until they commute, and double-checks every closed-form prediction its
family makes.  A failed prediction raises instead of shipping a wrong code.
"""

from __future__ import annotations

from dataclasses import dataclass

from eaqc.gf2 import (
    BinaryMatrix,
    DimensionMismatch,
    ModelMatrix,
    RowBasis,
    _matmul_words,
    expand,
    gfrank,
)
from eaqc.girth import has_four_cycle, has_six_cycle
from eaqc.models import (
    theorem5_selection,
    theorem6_models,
    theorem7_model,
    theorem8_model,
    theorem9_model,
    theorem10_model,
)

__all__ = [
    "EaCode",
    "FAMILIES",
    "StructureCheckFailed",
    "extend",
    "girth_floor_of",
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


def extend(hx: BinaryMatrix, hz: BinaryMatrix) -> tuple[BinaryMatrix, BinaryMatrix]:
    """Append c columns to each side so the extended matrices commute.

    Rank-factors m = hx·hzᵀ as ex·ezᵀ with c = gfrank(m) columns: ez takes
    the reduced-echelon rows of m, ex the pivot columns of m itself (which
    hold the combination coefficients because echelon pivot columns are
    unit vectors).  Appending makes hex·hezᵀ = m + ex·ezᵀ = 0 over GF(2).
    c, the pair's entanglement cost, is read back as hex.cols − hx.cols;
    a commuting pair (m = 0) gets no columns and comes back equal to itself.
    """
    if hx.cols != hz.cols:
        raise DimensionMismatch(f"hx has {hx.cols} columns, hz has {hz.cols}")
    m = BinaryMatrix.from_dense(_matmul_words(hx.words, hz.words))
    basis = RowBasis.build(m)
    ez = BinaryMatrix(basis.rank, m.cols, basis.rref_words).transpose()
    ex = BinaryMatrix.from_dense(m.to_dense()[:, basis.pivot_cols])
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


# ── shared assembly ───────────────────────────────────────────────────


def _assemble(
    family: str,
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
    hex_, hez = extend(hx, hz)
    n = hx.cols
    c = hex_.cols - n
    k = (n - gx) + (n - gz) - n + c
    if _matmul_words(hex_.words, hez.words).any():
        raise StructureCheckFailed(f"{family}: extended matrices do not commute")
    return EaCode(
        n=n, k=k, c=c, hx=hx, hz=hz, hex=hex_, hez=hez,
        family=family, mx=mx, mz=mz, girth_floor=floor, rank_hx=gx, rank_hz=gz,
    )


def _expect(family: str, name: str, got: int, want: int) -> None:
    if got != want:
        raise StructureCheckFailed(f"{family}: {name} is {got}, predicted {want}")


# ── scalar-multiple prime family (one appended column) ────────────────


def build_theorem5(p: int, l1: int, l2: int) -> EaCode:
    """[[p², p² − 2p − (p−1)(l1+l2−2) + 1; 1]] from the banks of `theorem5_selection`."""
    mx, mz = theorem5_selection(p, l1, l2)
    code = _assemble("theorem5", mx, mz, min_floor=6)
    _expect("theorem5", "n", code.n, p * p)
    _expect("theorem5", "c", code.c, 1)
    _expect("theorem5", "k", code.k, p * p - 2 * p - (p - 1) * (l1 + l2 - 2) + 1)
    return code


# ── identity-free prime family ((p−1) appended columns) ───────────────


def build_theorem6(p: int, l1: int, l2: int) -> EaCode:
    """[[p² − p, p² − 3p − (p−1)(l1+l2−2) + (p−1); p − 1]]."""
    mx, mz = theorem6_models(p, l1, l2)
    code = _assemble("theorem6", mx, mz, min_floor=6)
    _expect("theorem6", "n", code.n, p * p - p)
    _expect("theorem6", "c", code.c, p - 1)
    _expect("theorem6", "gfrank(hx)", code.rank_hx, p + (p - 1) * (l1 - 1))
    _expect(
        "theorem6", "k", code.k,
        p * p - 3 * p - (p - 1) * (l1 + l2 - 2) + (p - 1),
    )
    return code


# ── symmetric single-matrix prime family ──────────────────────────────


def build_theorem7(p: int, l: int) -> EaCode:
    """[[p², (p−1)(p−l+1); p + (l−1)(p−1)]] with hx = hz = H."""
    m = theorem7_model(p, l)
    code = _assemble("theorem7", m, m, min_floor=6)
    want_c = p + (l - 1) * (p - 1)
    _expect("theorem7", "n", code.n, p * p)
    _expect("theorem7", "gfrank(H)", code.rank_hx, want_c)
    _expect("theorem7", "c", code.c, want_c)
    _expect("theorem7", "k", code.k, (p - 1) * (p - l + 1))
    return code


# ── geometric wide-girth families (girth above 6) ─────────────────────


def _build_geometric(family: str, m: ModelMatrix) -> EaCode:
    """Single-H code of a geometric model, girth above 6.

    Its block_rows stacked circulant strips cap the rank of H, and so the
    ebit count, at block_rows·order − (block_rows − 1).
    """
    code = _assemble(family, m, m, min_floor=8)
    _expect(family, "n", code.n, m.order * m.block_cols)
    cap = m.block_rows * m.order - (m.block_rows - 1)
    for name, got in (("gfrank(H)", code.rank_hx), ("ebit count", code.c)):
        if got > cap:
            raise StructureCheckFailed(f"{family}: {name} {got} exceeds the bound {cap}")
    return code


def build_theorem8(l: int, w: int) -> EaCode:
    """Three-row geometric family over order w^l + 1, girth above 6."""
    return _build_geometric("theorem8", theorem8_model(l, w))


def build_theorem9(s, w: int, *, enforce_scale: bool = True) -> EaCode:
    """Four-row geometric family, even w, girth above 6."""
    return _build_geometric("theorem9", theorem9_model(s, w, enforce_scale=enforce_scale))


def build_theorem10(s, w: int, *, enforce_scale: bool = True) -> EaCode:
    """Four-row geometric family, pairwise gaps of 2, girth above 6."""
    return _build_geometric("theorem10", theorem10_model(s, w, enforce_scale=enforce_scale))


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
