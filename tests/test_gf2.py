"""Bit-packed GF(2) kernels checked against brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaqc import gf2
from eaqc.gf2 import (
    BinaryMatrix,
    DimensionMismatch,
    ModelMatrix,
    RowBasis,
    expand,
    gfrank,
    matmul,
)
from eaqc.models import special_prime_model
from gf2_reference import independent_rows

# ── independent oracles ───────────────────────────────────────────────


def span_rank_oracle(dense: np.ndarray) -> int:
    """Rank by enumerating the whole row span (2^rows combinations)."""
    rows = dense.shape[0]
    assert rows <= 14, "oracle is exponential"
    seen = set()
    for mask in range(1 << rows):
        v = np.zeros(dense.shape[1], dtype=np.uint8)
        for i in range(rows):
            if mask >> i & 1:
                v ^= dense[i]
        seen.add(v.tobytes())
    size = len(seen)
    rank = int(size).bit_length() - 1
    assert 1 << rank == size
    return rank


def span_member_oracle(dense: np.ndarray, v: np.ndarray) -> bool:
    rows = dense.shape[0]
    for mask in range(1 << rows):
        acc = np.zeros(dense.shape[1], dtype=np.uint8)
        for i in range(rows):
            if mask >> i & 1:
                acc ^= dense[i]
        if np.array_equal(acc, v):
            return True
    return False


def greedy_rows_oracle(dense: np.ndarray) -> list[int]:
    """The in-order greedy scan: keep a row when it raises the rank."""
    keep: list[int] = []
    for i in range(dense.shape[0]):
        if gfrank(BinaryMatrix.from_dense(dense[keep + [i]])) > len(keep):
            keep.append(i)
    return keep


def rref_oracle(dense: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form by a plain loop over 0/1 entries: (rows, pivots)."""
    a = dense.copy()
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        hits = [i for i in range(r, rows) if a[i, c]]
        if not hits:
            continue
        a[[r, hits[0]]] = a[[hits[0], r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        pivots.append(c)
    return a[: len(pivots)], pivots


def int_matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.int64) @ b.astype(np.int64)) % 2


def circulant(order: int, a: int) -> np.ndarray:
    p = np.zeros((order, order), dtype=np.uint8)
    u = np.arange(order)
    p[u, (u + a) % order] = 1
    return p


def _low_rank(shape_and_seed) -> np.ndarray:
    """A product of two random factors, so that many rows depend on earlier ones."""
    rows, inner, cols, seed = shape_and_seed
    rng = np.random.default_rng(seed)
    prod = rng.integers(0, 2, (rows, inner)) @ rng.integers(0, 2, (inner, cols))
    return (prod % 2).astype(np.uint8)


low_rank_matrices = st.tuples(
    st.integers(1, 24), st.integers(1, 8), st.integers(1, 150), st.integers(0, 2**32 - 1)
).map(_low_rank)


def _random_dense(shape_density_and_seed) -> np.ndarray:
    rows, cols, density, seed = shape_density_and_seed
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < density).astype(np.uint8)


# up to four words wide, empty, zero and nearly full matrices
wide_matrices = st.tuples(
    st.integers(0, 20), st.integers(1, 200), st.sampled_from([0.0, 0.05, 0.5, 0.95]),
    st.integers(0, 2**32 - 1),
).map(_random_dense)

dense_matrices = st.integers(1, 8).flatmap(
    lambda r: st.integers(1, 10).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: np.asarray(rows, dtype=np.uint8))
    )
)


# ── packing round trip ────────────────────────────────────────────────


def test_pack_roundtrip_wide():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2, size=(5, 130), dtype=np.uint8)
    m = BinaryMatrix.from_dense(a)
    assert m.shape == (5, 130)
    assert np.array_equal(m.to_dense(), a)
    # bits past the logical width stay zero
    assert m.words.shape == (5, 3)


@given(dense_matrices)
@settings(max_examples=60, deadline=None)
def test_pack_roundtrip_property(a):
    assert np.array_equal(BinaryMatrix.from_dense(a).to_dense(), a)


# ── expand ────────────────────────────────────────────────────────────


def test_expand_scalar_one():
    m = ModelMatrix(1, np.asarray([[0]]))
    assert np.array_equal(expand(m).to_dense(), [[1]])


def test_expand_single_row_order3():
    m = ModelMatrix(3, np.asarray([[0, 1, 2]]))
    h = expand(m).to_dense()
    expected = np.concatenate([circulant(3, 0), circulant(3, 1), circulant(3, 2)], axis=1)
    assert np.array_equal(h, expected)


def test_expand_block_weights():
    m = ModelMatrix(5, np.asarray([[0, 2], [3, 4]]))
    h = expand(m).to_dense()
    assert h.shape == (10, 10)
    assert np.array_equal(h.sum(axis=0), np.full(10, 2))
    assert np.array_equal(h.sum(axis=1), np.full(10, 2))


def test_expand_injective_on_small_models():
    seen = {}
    for order in (2, 3):
        for e00 in range(order):
            for e01 in range(order):
                m = ModelMatrix(order, np.asarray([[e00, e01]]))
                key = expand(m).to_dense().tobytes()
                assert key not in seen, (order, e00, e01, seen[key])
                seen[key] = (order, e00, e01)


def test_model_matrix_compares_and_hashes_by_value():
    a = ModelMatrix(5, [[0, 1, 2], [0, 3, 1]])
    b = ModelMatrix(5, np.array([[0, 1, 2], [0, 3, 1]]))
    assert a == b and hash(a) == hash(b)
    assert a != ModelMatrix(7, [[0, 1, 2], [0, 3, 1]])
    assert a != ModelMatrix(5, [[0, 1, 2, 0, 3, 1]])
    assert a != a.row_submodel([0])


def test_model_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        ModelMatrix(3, np.asarray([[0, 3]]))
    with pytest.raises(ValueError):
        ModelMatrix(0, np.asarray([[0]]))


# ── rank ──────────────────────────────────────────────────────────────


@pytest.mark.parametrize("grid", [[[0.7, 1.2]], [[0.0, 1.0]], [[True, False]],
                                  np.array([[0, 1]], object)])
def test_model_matrix_exponents_that_are_not_integers_raise(grid):
    # a float grid would otherwise be truncated: [[0.7, 1.2]] read as [[0, 1]]
    with pytest.raises(TypeError, match="exponents must be integers"):
        ModelMatrix(3, grid)
    assert ModelMatrix(3, np.zeros((0, 2))).exponents.shape == (0, 2)


def _row(order):
    return ModelMatrix(order, [[0, 1]])


@pytest.mark.parametrize("build, order, name", [
    (_row, 5.5, "circulant order"), (_row, 5.0, "circulant order"),
    (_row, True, "circulant order"), (_row, np.float64(5), "circulant order"),
    (special_prime_model, 5.5, "p"), (special_prime_model, 5.0, "p")],
    ids=["5.5", "5.0", "True", "float64", "special-5.5", "special-5.0"])
def test_model_matrix_order_that_is_not_an_integer_raises(build, order, name):
    # 5.5 would otherwise fail later, inside expand, and 5.0 be kept as a
    # float; a prime family names its p before the grid is made
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        build(order)
    m = build(np.int64(5))
    assert type(m.order) is int and m == build(5)


def test_rank_identity():
    assert gfrank(BinaryMatrix.from_dense(np.eye(7, dtype=np.uint8))) == 7


def test_rank_all_ones():
    assert gfrank(BinaryMatrix.from_dense(np.ones((5, 5), np.uint8))) == 1


def test_rank_circulant_plus_identity():
    j = np.ones((3, 3), dtype=np.uint8)
    i = np.eye(3, dtype=np.uint8)
    assert gfrank(BinaryMatrix.from_dense((j + i) % 2)) == 2


@given(dense_matrices)
@settings(max_examples=60, deadline=None)
def test_rank_matches_span_oracle(a):
    assert gfrank(BinaryMatrix.from_dense(a)) == span_rank_oracle(a)


@given(dense_matrices)
@settings(max_examples=40, deadline=None)
def test_rank_transpose_invariant(a):
    m = BinaryMatrix.from_dense(a)
    assert gfrank(m) == gfrank(m.transpose())


@given(st.one_of(wide_matrices, low_rank_matrices, dense_matrices))
@example(np.zeros((0, 5), dtype=np.uint8))
@example(np.zeros((3, 65), dtype=np.uint8))
@settings(max_examples=120, deadline=None)
def test_row_basis_is_the_reduced_echelon_form(a):
    # the reduced echelon form is unique, so any correct elimination matches
    # the plain loop word for word, pivots included
    basis = RowBasis.build(BinaryMatrix.from_dense(a))
    rref, pivots = rref_oracle(a)
    assert basis.pivot_cols.tolist() == pivots
    assert basis.rref_words.dtype == np.uint64
    assert np.array_equal(basis.rref_words, BinaryMatrix.from_dense(rref).words)


def test_rank_wide_packed_boundary():
    # rank across the 64-bit word boundary
    a = np.zeros((3, 100), dtype=np.uint8)
    a[0, 63] = 1
    a[1, 64] = 1
    a[2, 63] = 1
    a[2, 64] = 1
    assert gfrank(BinaryMatrix.from_dense(a)) == 2


# ── matmul ────────────────────────────────────────────────────────────


def test_matmul_identity():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, size=(6, 9), dtype=np.uint8)
    m = BinaryMatrix.from_dense(a)
    assert matmul(BinaryMatrix.from_dense(np.eye(6, dtype=np.uint8)), m) == m


def test_matmul_circulant_row_pair_gives_all_ones():
    # [I P P^2] @ [I P^2 P]^T over order 3 accumulates every shift: all-ones
    hx = expand(ModelMatrix(3, np.asarray([[0, 1, 2]])))
    hz = expand(ModelMatrix(3, np.asarray([[0, 2, 1]])))
    prod = matmul(hx, hz.transpose())
    assert np.array_equal(prod.to_dense(), np.ones((3, 3), dtype=np.uint8))
    oracle = int_matmul_oracle(hx.to_dense(), hz.to_dense().T)
    assert np.array_equal(prod.to_dense(), oracle)


@given(
    st.integers(0, 12),
    st.integers(0, 200),
    st.integers(0, 12),
    st.sampled_from([None, 1, 300, 2000]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_matmul_matches_integer_oracle(rows, inner, cols, budget, seed):
    # inner widths up to four words, empty dimensions, and byte budgets
    # small enough that the rows of a go through in several chunks
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(rows, inner), dtype=np.uint8)
    b = rng.integers(0, 2, size=(inner, cols), dtype=np.uint8)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(gf2, "_MATMUL_BYTES", budget)
        got = matmul(BinaryMatrix.from_dense(a), BinaryMatrix.from_dense(b))
    assert got.shape == (rows, cols)
    assert np.array_equal(got.to_dense(), int_matmul_oracle(a, b))


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        matmul(BinaryMatrix.from_dense(np.eye(3, dtype=np.uint8)),
               BinaryMatrix.from_dense(np.eye(4, dtype=np.uint8)))


# ── row-space membership ──────────────────────────────────────────────


def _contains(basis: RowBasis, v) -> bool:
    return bool(basis.contains_batch(BinaryMatrix.from_dense(np.atleast_2d(v)))[0])


def test_member_zero_vector():
    basis = BinaryMatrix.from_dense(np.asarray([[1, 1, 0], [0, 1, 1]], dtype=np.uint8))
    assert _contains(RowBasis.build(basis), np.zeros(3, dtype=np.uint8))


def test_member_basis_row():
    rows = np.asarray([[1, 1, 0, 1], [0, 1, 1, 0]], dtype=np.uint8)
    basis = BinaryMatrix.from_dense(rows)
    assert _contains(RowBasis.build(basis), rows[0])
    assert _contains(RowBasis.build(basis), rows[0] ^ rows[1])


def test_member_even_weight_basis_rejects_odd():
    # rows spanning the even-weight subspace of length 4
    rows = np.asarray(
        [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], dtype=np.uint8
    )
    basis = BinaryMatrix.from_dense(rows)
    assert not _contains(RowBasis.build(basis), np.asarray([1, 0, 0, 0], dtype=np.uint8))


@given(dense_matrices, st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_member_matches_span_oracle(a, seed):
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 2, size=a.shape[1], dtype=np.uint8)
    assert _contains(RowBasis.build(BinaryMatrix.from_dense(a)), v) == span_member_oracle(a, v)


def test_member_length_mismatch():
    with pytest.raises(DimensionMismatch):
        _contains(RowBasis.build(BinaryMatrix.from_dense(np.eye(3, dtype=np.uint8))),
                  np.zeros(4, dtype=np.uint8))


# ── kernels ───────────────────────────────────────────────────────────


@given(st.one_of(dense_matrices, low_rank_matrices))
@settings(max_examples=80, deadline=None)
def test_independent_rows_match_greedy_scan(m):
    kept = independent_rows(BinaryMatrix.from_dense(m))
    assert kept.tolist() == greedy_rows_oracle(m)



def test_nullspace_known_cases():
    a = BinaryMatrix.from_dense(np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.uint8))
    ns = RowBasis.build(a).kernel()
    assert ns.shape == (2, 4)
    assert not matmul(a, ns.transpose()).words.any()
    assert gfrank(ns) == 2
    eye = BinaryMatrix.from_dense(np.eye(4, dtype=np.uint8))
    assert RowBasis.build(eye).kernel().rows == 0
    z = RowBasis.build(BinaryMatrix.zeros(2, 3)).kernel()
    assert z.rows == 3 and gfrank(z) == 3


@given(dense_matrices)
@settings(max_examples=40, deadline=None)
def test_nullspace_spans_exact_kernel(m):
    a = BinaryMatrix.from_dense(m)
    ns = RowBasis.build(a).kernel()
    assert ns.rows == a.cols - gfrank(a)
    assert gfrank(ns) == ns.rows
    if ns.rows:
        assert not matmul(a, ns.transpose()).words.any()
    if a.cols <= 8:
        # every kernel vector of the dense oracle lies in the computed span
        basis = RowBasis.build(ns)
        for bits in itertools.product((0, 1), repeat=a.cols):
            v = np.array(bits, dtype=np.uint8)
            if not (m @ v % 2).any():
                assert _contains(basis, v)
