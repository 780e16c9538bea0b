"""Binary-field linear algebra on bit-packed matrices, plus circulant expansion.

Matrices over GF(2) are stored as dense bit-packed rows (uint64 words,
little-endian bit order within each word).  All arithmetic is mod 2:
addition is XOR, and `matmul` is the package's one GF(2) product.  The
ebit count, the tableau's commutation gram, the signs and logical action
of generator products and decoder syndromes all go through it; no caller
forms a mod-2 product from integer sums.  `RowBasis.build` is its one
Gaussian elimination: `gfrank`, `independent_rows`, `nullspace` and
row-space membership all read the reduced echelon form it returns.

A :class:`ModelMatrix` is the compressed form of a quasi-cyclic
parity-check matrix: a grid of shift exponents over Z_n.  ``expand``
replaces each exponent ``e`` by the right-circulant permutation power
``P^e``, where ``P^a[u, v] = 1`` iff ``v = u + a (mod n)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BinaryMatrix",
    "ModelMatrix",
    "RowBasis",
    "expand",
    "gfrank",
    "independent_rows",
    "matmul",
    "nullspace",
]

_WORD = 64
# scratch bytes of one chunk of the AND in `matmul`
_MATMUL_BYTES = 4 * 2**20


class DimensionMismatch(ValueError):
    """Shapes are incompatible for the requested operation."""


def _n_words(cols: int) -> int:
    return max(1, (cols + _WORD - 1) // _WORD)


@dataclass(frozen=True)
class BinaryMatrix:
    """Dense GF(2) matrix with bit-packed rows.

    Fields:
        rows, cols: logical shape.
        words: uint64 array of shape (rows, ceil(cols/64)); bit j of row i
            lives at words[i, j // 64] >> (j % 64).  Bits at or beyond
            `cols` are always zero.
    """

    rows: int
    cols: int
    words: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        expected = (max(self.rows, 0), _n_words(self.cols))
        if self.words.shape != expected or self.words.dtype != np.uint64:
            raise ValueError(f"storage shape {self.words.shape} != {expected}")
        self.words.flags.writeable = False

    # ── constructors ──────────────────────────────────────────────────

    @staticmethod
    def from_dense(arr) -> "BinaryMatrix":
        a = np.asarray(arr, dtype=np.uint8) & 1
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = a.shape
        nw = _n_words(cols)
        padded = np.zeros((rows, nw * 8), dtype=np.uint8)
        if cols:
            packed = np.packbits(a, axis=1, bitorder="little")
            padded[:, : packed.shape[1]] = packed
        words = np.ascontiguousarray(padded).view(np.uint64)
        return BinaryMatrix(rows, cols, words)

    @staticmethod
    def zeros(rows: int, cols: int) -> "BinaryMatrix":
        return BinaryMatrix(rows, cols, np.zeros((rows, _n_words(cols)), dtype=np.uint64))

    @staticmethod
    def identity(n: int) -> "BinaryMatrix":
        return BinaryMatrix.from_dense(np.eye(n, dtype=np.uint8))

    @staticmethod
    def ones(rows: int, cols: int) -> "BinaryMatrix":
        return BinaryMatrix.from_dense(np.ones((rows, cols), dtype=np.uint8))

    # ── views ─────────────────────────────────────────────────────────

    def to_dense(self) -> np.ndarray:
        if self.rows == 0 or self.cols == 0:
            return np.zeros((self.rows, self.cols), dtype=np.uint8)
        bytes_view = self.words.view(np.uint8).reshape(self.rows, -1)
        bits = np.unpackbits(bytes_view, axis=1, bitorder="little")
        return bits[:, : self.cols].copy()

    def column_bit(self, c: int) -> np.ndarray:
        """The c-th column as a uint64 0/1 vector (cheap, no unpacking)."""
        if not 0 <= c < self.cols:
            raise IndexError(c)
        return (self.words[:, c >> 6] >> np.uint64(c & 63)) & np.uint64(1)

    # ── algebra ───────────────────────────────────────────────────────

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.words, other.words)
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.words.tobytes()))

    def __add__(self, other: "BinaryMatrix") -> "BinaryMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        return BinaryMatrix(self.rows, self.cols, self.words ^ other.words)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix.from_dense(self.to_dense().T)

    def hstack(self, other: "BinaryMatrix") -> "BinaryMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch(f"{self.shape} | {other.shape}")
        d = np.concatenate([self.to_dense(), other.to_dense()], axis=1)
        return BinaryMatrix.from_dense(d)

    def vstack(self, other: "BinaryMatrix") -> "BinaryMatrix":
        if self.cols != other.cols:
            raise DimensionMismatch(f"{self.shape} / {other.shape}")
        return BinaryMatrix(
            self.rows + other.rows, self.cols, np.vstack([self.words, other.words])
        )

    def is_zero(self) -> bool:
        return not self.words.any()


@dataclass(frozen=True)
class ModelMatrix:
    """Exponent grid over Z_order; the compressed quasi-cyclic form."""

    order: int
    exponents: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "exponents", np.ascontiguousarray(self.exponents, dtype=np.int64)
        )
        if self.order < 1:
            raise ValueError(f"circulant order must be positive, got {self.order}")
        e = self.exponents
        if e.ndim != 2:
            raise ValueError("exponent grid must be 2-D")
        if e.size and (e.min() < 0 or e.max() >= self.order):
            raise ValueError(f"exponents must lie in [0, {self.order})")
        self.exponents.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelMatrix):
            return NotImplemented
        return self.order == other.order and np.array_equal(
            self.exponents, other.exponents
        )

    def __hash__(self) -> int:
        return hash((self.order, self.exponents.shape, self.exponents.tobytes()))

    @property
    def block_rows(self) -> int:
        return self.exponents.shape[0]

    @property
    def block_cols(self) -> int:
        return self.exponents.shape[1]

    def row_submodel(self, row_idx) -> "ModelMatrix":
        idx = np.asarray(row_idx, dtype=np.intp)
        return ModelMatrix(self.order, self.exponents[idx].copy())

    def vstack(self, other: "ModelMatrix") -> "ModelMatrix":
        if self.order != other.order:
            raise DimensionMismatch("circulant orders differ")
        return ModelMatrix(self.order, np.vstack([self.exponents, other.exponents]))

    def to_json_dict(self) -> dict:
        return {"order": int(self.order), "exponents": self.exponents.tolist()}


# ── operations ────────────────────────────────────────────────────────


def expand(m: ModelMatrix) -> BinaryMatrix:
    """Blow each exponent up into a right-circulant permutation block."""
    n = m.order
    br, bc = m.exponents.shape
    dense = np.zeros((br * n, bc * n), dtype=np.uint8)
    u = np.arange(n)
    for i in range(br):
        for j in range(bc):
            dense[i * n + u, j * n + (u + m.exponents[i, j]) % n] = 1
    return BinaryMatrix.from_dense(dense)


def gfrank(a: BinaryMatrix) -> int:
    """Row-space dimension over GF(2): the rank of the reduced echelon form."""
    return RowBasis.build(a).rank


def matmul(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """Product over GF(2): parity of the popcount of ANDed packed rows.

    Each row of a is ANDed with each packed column of b; the words of one
    entry are XOR-folded first, so a single popcount gives its parity.
    Rows of a go through in chunks whose (chunk, b.cols, words) AND holds
    at most _MATMUL_BYTES, so the scratch space does not grow with a.rows.
    """
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.shape} @ {b.shape}")
    bt = b.transpose()
    out = np.zeros((a.rows, b.cols), dtype=np.uint8)
    chunk = max(1, _MATMUL_BYTES // max(1, bt.words.nbytes))
    for lo in range(0, a.rows, chunk):
        anded = a.words[lo : lo + chunk, None, :] & bt.words[None, :, :]
        out[lo : lo + chunk] = np.bitwise_count(np.bitwise_xor.reduce(anded, axis=2)) & 1
    return BinaryMatrix.from_dense(out)


@dataclass
class RowBasis:
    """Reduced row-echelon form of a matrix, prepared for repeated queries.

    `build` is the package's one Gaussian elimination; rank, independent
    rows, kernels, the ebit factorisation and membership all read it.
    """

    cols: int
    rref_words: np.ndarray
    pivot_cols: np.ndarray

    @staticmethod
    def build(a: BinaryMatrix) -> "RowBasis":
        w = a.words.copy()
        pivots = []
        r = 0
        for c in range(a.cols):
            if r == a.rows:
                break
            col = (w[r:, c >> 6] >> np.uint64(c & 63)) & np.uint64(1)
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            piv = r + nz[0]
            if piv != r:
                w[[r, piv]] = w[[piv, r]]
            col_all = (w[:, c >> 6] >> np.uint64(c & 63)) & np.uint64(1)
            col_all[r] = 0
            others = np.nonzero(col_all)[0]
            if others.size:
                w[others] ^= w[r]
            pivots.append(c)
            r += 1
        return RowBasis(a.cols, w[:r].copy(), np.asarray(pivots, dtype=np.int64))

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def contains_batch(self, vectors: BinaryMatrix) -> np.ndarray:
        """Whether each row of vectors lies in the row space."""
        if vectors.cols != self.cols:
            raise DimensionMismatch(f"vector length {vectors.cols} != {self.cols}")
        res = vectors.words.copy()
        for k, c in enumerate(self.pivot_cols):
            bit = (res[:, c >> 6] >> np.uint64(c & 63)) & np.uint64(1)
            hit = np.nonzero(bit)[0]
            if hit.size:
                res[hit] ^= self.rref_words[k]
        return ~res.any(axis=1)


def independent_rows(a: BinaryMatrix) -> np.ndarray:
    """Indices of the rows that an in-order greedy rank scan keeps.

    Row i is kept when it lies outside the span of rows 0..i-1, which makes
    the kept rows exactly the pivot columns of the echelon form of aᵀ.
    """
    return RowBasis.build(a.transpose()).pivot_cols


def nullspace(a: BinaryMatrix) -> BinaryMatrix:
    """Independent rows spanning {v : a·v = 0}, one per free column."""
    basis = RowBasis.build(a)
    rref = BinaryMatrix(basis.rank, a.cols, basis.rref_words).to_dense()
    free = np.setdiff1d(np.arange(a.cols), basis.pivot_cols)
    out = np.zeros((len(free), a.cols), dtype=np.uint8)
    out[np.arange(len(free)), free] = 1
    out[:, basis.pivot_cols] = rref[:, free].T
    return BinaryMatrix.from_dense(out)
