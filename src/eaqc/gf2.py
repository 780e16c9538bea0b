"""Binary-field linear algebra on bit-packed matrices, plus circulant expansion.

Matrices over GF(2) are stored as dense bit-packed rows (uint64 words,
little-endian bit order within each word).  All arithmetic is mod 2:
addition is XOR, and `matmul` is the package's one GF(2) product.  It
folds the inner words word-major (one AND and one XOR per word over a
block of rows of a) and keeps its scratch within one byte bound,
`_MATMUL_BYTES`; `_matmul_words` is that kernel on packed rows, for
callers that already hold both factors packed: a·bᵀ reads the packed rows
of a and of b, with no transpose.  The ebit count, the tableau's
commutation gram, the signs and logical action of generator products and
decoder syndromes all go through it; no caller forms a mod-2 product from
integer sums.
`RowBasis.build` is its one Gaussian elimination: `gfrank`, kernels
(`RowBasis.kernel`) and row-space membership all read the reduced
echelon form it returns, which is unique.

A :class:`ModelMatrix` is the compressed form of a quasi-cyclic
parity-check matrix: a grid of shift exponents over Z_n.  ``expand``
replaces each exponent ``e`` by the right-circulant permutation power
``P^e``, where ``P^a[u, v] = 1`` iff ``v = u + a (mod n)``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BinaryMatrix",
    "ModelMatrix",
    "RowBasis",
    "expand",
    "gfrank",
    "matmul",
]

_WORD = 64
# scratch bytes of one chunk of rows in `matmul`: its accumulator and AND.
# On a 2-core x86-64 host the 508x760x508 and 390x1036x390 products ran
# 1.3-1.5x faster at 1 MiB than at 4 MiB; every README graph's `girth_bfs`
# runs its roots in one block at either bound.
_MATMUL_BYTES = 2**20


class DimensionMismatch(ValueError):
    """Shapes are incompatible for the requested operation."""


def _count(value, name: str) -> int:
    """A count or index named name as a plain int: the package's one integer rule.

    A bool, or anything without __index__, raises TypeError, so a count
    fails where it is given (2.5, or 100.0) rather than in the code that
    reads it; an np.int64 becomes the int of the same value.
    """
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


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

    # ── views ─────────────────────────────────────────────────────────

    def to_dense(self) -> np.ndarray:
        if self.rows == 0 or self.cols == 0:
            return np.zeros((self.rows, self.cols), dtype=np.uint8)
        bytes_view = self.words.view(np.uint8).reshape(self.rows, -1)
        bits = np.unpackbits(bytes_view, axis=1, bitorder="little")
        return bits[:, : self.cols].copy()

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

    The fold is word-major: entry (i, j) XORs together a[i, w] & bᵀ[j, w]
    over the inner words w, one AND and one XOR per word on a whole
    (chunk, b.cols) array, so a single popcount then gives its parity.
    Rows of a go through in chunks whose scratch (the accumulator, plus one
    array for the AND when the inner width is two words or more) holds at
    most _MATMUL_BYTES, so the scratch space does not grow with a.rows.
    """
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.shape} @ {b.shape}")
    return BinaryMatrix.from_dense(_matmul_words(a.words, b.transpose().words))


def _matmul_words(aw: np.ndarray, btw: np.ndarray) -> np.ndarray:
    """`matmul` on packed rows: a's words and bᵀ's words, of one width.

    Returns the uint8 (len(aw), len(btw)) product; callers that hold both
    factors as packed rows call it without repacking either.
    """
    bt = btw.T.copy()  # (inner words, b.cols)
    aw = aw.T  # (inner words, a.rows)
    arrays = 1 if len(bt) == 1 else 2
    chunk = max(1, _MATMUL_BYTES // max(1, arrays * bt[0].nbytes))
    out = np.zeros((aw.shape[1], bt.shape[1]), dtype=np.uint8)
    for lo in range(0, len(out), chunk):
        acc = aw[0, lo : lo + chunk, None] & bt[0]
        if arrays == 2:
            anded = np.empty_like(acc)
            for w in range(1, len(bt)):
                np.bitwise_and(aw[w, lo : lo + chunk, None], bt[w], out=anded)
                acc ^= anded
            del anded
        out[lo : lo + chunk] = np.bitwise_count(acc) & 1
        del acc
    return out


@dataclass
class RowBasis:
    """Reduced row-echelon form of a matrix, prepared for repeated queries.

    `build` is the package's one Gaussian elimination; rank, kernels, the
    ebit factorisation and membership all read it.
    """

    cols: int
    rref_words: np.ndarray
    pivot_cols: np.ndarray

    @staticmethod
    def build(a: BinaryMatrix) -> "RowBasis":
        """Gauss-Jordan elimination, one column at a time."""
        w = a.words.copy()
        pivots = []
        r = 0
        for c in range(a.cols):
            if r == a.rows:
                break
            word = c >> 6
            col = w[:, word] & np.uint64(1 << (c & 63))
            below = col[r:].nonzero()[0]
            if below.size == 0:
                continue
            piv = r + below[0]
            if piv != r:
                w[[r, piv]] = w[[piv, r]]
                col[piv] = col[r]
            col[r] = 0
            others = col.nonzero()[0]
            if others.size:
                # row r is zero left of its pivot, so its earlier words add nothing
                w[others, word:] ^= w[r, word:]
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

    @property
    def free_cols(self) -> np.ndarray:
        """The columns without a pivot, in increasing order."""
        return np.setdiff1d(np.arange(self.cols), self.pivot_cols)

    def kernel(self) -> BinaryMatrix:
        """Rows spanning {v : a·v = 0}, one per free column.

        Row i is 1 at the i-th free column, 0 at every other free column,
        and at the pivot columns holds what makes a·v = 0.
        """
        rref = BinaryMatrix(self.rank, self.cols, self.rref_words).to_dense()
        free = self.free_cols
        out = np.zeros((len(free), self.cols), dtype=np.uint8)
        out[np.arange(len(free)), free] = 1
        out[:, self.pivot_cols] = rref[:, free].T
        return BinaryMatrix.from_dense(out)
