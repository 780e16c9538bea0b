"""Assembly tests: ebit counts, extensions, parameter and product structure."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaqc import eacode
from eaqc.cli import main
from eaqc.eacode import (
    FAMILIES,
    EaCode,
    StructureCheckFailed,
    build_theorem5,
    build_theorem6,
    build_theorem7,
    build_theorem8,
    build_theorem9,
    build_theorem10,
    extend,
    girth_floor_of,
)
from eaqc.gf2 import BinaryMatrix, DimensionMismatch, ModelMatrix, expand, gfrank, matmul
from eaqc import models
from eaqc.models import (
    theorem5_selection,
    theorem6_models,
    theorem7_model,
    theorem8_model,
    theorem9_model,
    theorem10_model,
)


def dense(a) -> BinaryMatrix:
    return BinaryMatrix.from_dense(np.asarray(a, dtype=np.uint8))


# ── ebit counts ───────────────────────────────────────────────────────


def test_ebit_count_orthogonal_pair_is_zero():
    hx = dense(np.hstack([np.eye(3), np.eye(3)]))
    assert gfrank(matmul(hx, hx.transpose())) == 0  # h·hᵀ = I + I = 0
    # c = 0: extend appends no column and returns the pair unchanged
    hex_, hez = extend(hx, hx)
    assert hex_ == hx and hez == hx
    assert hex_.cols - hx.cols == hez.cols - hx.cols == 0


def test_ebit_count_known_pairs():
    # c = gfrank(hx·hzᵀ), formed apart from `extend`, which the builders read
    for code, want in ((build_theorem5(3, 1, 1), 1), (build_theorem6(7, 3, 3), 6)):
        assert gfrank(matmul(code.hx, code.hz.transpose())) == code.c == want


def test_extend_rejects_column_mismatch():
    with pytest.raises(DimensionMismatch):
        extend(dense(np.eye(3)), dense(np.eye(4)))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_all_ones_plus_identity_rank(p):
    # standalone rank fact used by several parameter proofs
    jp = np.ones((p, p), dtype=np.uint8) ^ np.eye(p, dtype=np.uint8)
    assert gfrank(dense(jp)) == p - 1


# ── extensions ────────────────────────────────────────────────────────


def test_extend_orthogonal_pair_appends_nothing():
    hx = dense(np.hstack([np.eye(3), np.eye(3)]))
    hex_, hez = extend(hx, hx)
    assert hex_ == hx and hez == hx


def test_extend_single_column_is_all_ones():
    # rank-1 all-ones product must extend by the all-ones column each side
    code = build_theorem5(5, 2, 2)
    dx = code.hex.to_dense()
    dz = code.hez.to_dense()
    assert (dx[:, : code.n] == code.hx.to_dense()).all()
    assert (dz[:, : code.n] == code.hz.to_dense()).all()
    assert (dx[:, code.n :] == 1).all()
    assert (dz[:, code.n :] == 1).all()


def _bit_grid(rows, cols):
    return st.lists(
        st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@given(
    rows_a=st.integers(1, 5),
    rows_b=st.integers(1, 5),
    cols=st.integers(1, 8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_extend_always_commutes(rows_a, rows_b, cols, data):
    hx = dense(data.draw(_bit_grid(rows_a, cols)))
    hz = dense(data.draw(_bit_grid(rows_b, cols)))
    c = gfrank(matmul(hx, hz.transpose()))
    hex_, hez = extend(hx, hz)
    assert hex_.cols == cols + c and hez.cols == cols + c
    assert not matmul(hex_, hez.transpose()).words.any()
    assert (hex_.to_dense()[:, :cols] == hx.to_dense()).all()
    assert (hez.to_dense()[:, :cols] == hz.to_dense()).all()


def _reference_extension(p: int, l1: int, l2: int):
    """Identity-over-ones / shifted-identity-over-ones column blocks."""
    eye = np.eye(p - 1, dtype=np.uint8)
    a = np.vstack([eye, np.ones((1, p - 1), dtype=np.uint8)])
    b = np.vstack([eye ^ np.ones((p - 1, p - 1), dtype=np.uint8),
                   np.ones((1, p - 1), dtype=np.uint8)])
    ex = np.vstack([a] * l1)
    ez = np.vstack([b] * l2)
    return dense(ex), dense(ez)


@pytest.mark.parametrize("p,l1,l2", [(3, 1, 1), (7, 3, 3)])
def test_reference_extension_is_valid(p, l1, l2):
    # the hand-built column blocks commute exactly like the generic ones
    code = build_theorem6(p, l1, l2)
    ex, ez = _reference_extension(p, l1, l2)
    assert ex.cols == code.c and ez.cols == code.c
    hex_ref = code.hx.hstack(ex)
    hez_ref = code.hz.hstack(ez)
    assert not matmul(hex_ref, hez_ref.transpose()).words.any()
    assert matmul(ex, ez.transpose()) == matmul(code.hx, code.hz.transpose())


# ── product structure ─────────────────────────────────────────────────


@pytest.mark.parametrize("p", [3, 5, 7])
def test_theorem6_product_blocks(p):
    l1 = l2 = (p - 1) // 2
    mx, mz = theorem6_models(p, l1, l2)
    got = matmul(expand(mx), expand(mz).transpose()).to_dense()
    cell = np.ones((p, p), dtype=np.uint8) ^ np.eye(p, dtype=np.uint8)
    assert (got == np.tile(cell, (l1, l2))).all()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_theorem7_product_blocks(p):
    l = (p - 1) // 2
    h = expand(theorem7_model(p, l))
    got = matmul(h, h.transpose()).to_dense()
    want = np.tile(np.ones((p, p), dtype=np.uint8), (l, l))
    for i in range(l):
        want[i * p : (i + 1) * p, i * p : (i + 1) * p] = np.eye(p, dtype=np.uint8)
    assert (got == want).all()


@st.composite
def model_pairs(draw):
    order = draw(st.integers(2, 12))
    bc = draw(st.integers(1, 4))
    def grid(br):
        return np.array(
            draw(
                st.lists(
                    st.lists(st.integers(0, order - 1), min_size=bc, max_size=bc),
                    min_size=br,
                    max_size=br,
                )
            )
        )
    return (
        ModelMatrix(order, grid(draw(st.integers(1, 3)))),
        ModelMatrix(order, grid(draw(st.integers(1, 3)))),
    )


def circulant_block_product(ma: ModelMatrix, mb: ModelMatrix) -> BinaryMatrix:
    """expand(ma)·expand(mb)ᵀ assembled directly from exponent differences.

    Block (u, v) is the mod-2 sum of circulant powers P^(a[u,j] - b[v,j]).
    This route never calls expand or matmul, so it serves as an
    independent oracle for the product's block structure.
    """
    assert ma.order == mb.order and ma.block_cols == mb.block_cols
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
    return dense(out)


@given(pair=model_pairs())
@settings(max_examples=50, deadline=None)
def test_block_product_oracle_matches_matmul(pair):
    ma, mb = pair
    direct = circulant_block_product(ma, mb)
    assert direct == matmul(expand(ma), expand(mb).transpose())


def _power_sum_block(n: int, exps) -> np.ndarray:
    out = np.zeros((n, n), dtype=np.uint8)
    idx = np.arange(n)
    for e in exps:
        out[idx, (idx + e) % n] ^= 1
    return out


@pytest.mark.parametrize("l,w", [(6, 2), (7, 2)])
def test_geometric_family_product_structure(l, w):
    # H·Hᵀ must consist of power-sum circulants with an l·I diagonal
    m = theorem8_model(l, w)
    n = m.order
    pos = [pow(w, j, n) for j in range(1, l + 1)]
    neg = [(-e) % n for e in pos]
    twice_pos = [(2 * e) % n for e in pos]
    twice_neg = [(-2 * e) % n for e in pos]
    diag = [0] * l
    layout = [
        [diag, neg, pos],
        [pos, diag, twice_pos],
        [neg, twice_neg, diag],
    ]
    want = np.block(
        [[_power_sum_block(n, cell) for cell in row] for row in layout]
    )
    h = expand(m)
    assert (matmul(h, h.transpose()).to_dense() == want).all()
    # the diagonal is l mod 2 copies of the identity
    assert (want[:n, :n] == (l % 2) * np.eye(n, dtype=np.uint8)).all()


@pytest.mark.parametrize("builder", [build_theorem9, build_theorem10])
def test_four_row_family_product_structure(builder):
    code = builder((2, 4, 6), 2, enforce_scale=False)
    n = code.mx.order
    got = matmul(code.hx, code.hz.transpose()).to_dense()
    # dual-route: rebuild the product straight from exponent differences
    from eaqc.models import theorem9_model
    m = theorem9_model((2, 4, 6), 2, enforce_scale=False)
    assert (circulant_block_product(m, m).to_dense() == got).all()
    t = m.block_cols
    for b in range(4):
        blk = got[b * n : (b + 1) * n, b * n : (b + 1) * n]
        assert (blk == (t % 2) * np.eye(n, dtype=np.uint8)).all()


# ── built-code parameters ─────────────────────────────────────────────


FROZEN = [
    (build_theorem5, (3, 1, 1), (9, 4, 1)),
    (build_theorem5, (5, 2, 2), (25, 8, 1)),
    (build_theorem5, (7, 3, 3), (49, 12, 1)),
    (build_theorem6, (3, 1, 1), (6, 2, 2)),
    (build_theorem6, (7, 3, 3), (42, 10, 6)),
    (build_theorem7, (3, 1), (9, 6, 3)),
    (build_theorem7, (5, 2), (25, 16, 9)),
    (build_theorem7, (11, 5), (121, 70, 51)),
]


@pytest.mark.parametrize("builder,args,nkc", FROZEN)
def test_frozen_parameters(builder, args, nkc):
    code = builder(*args)
    assert (code.n, code.k, code.c) == nkc
    assert not matmul(code.hex, code.hez.transpose()).words.any()
    assert code.hex.cols == code.n + code.c


def test_theorem8_frozen_parameters():
    code = build_theorem8(6, 2)
    assert (code.n, code.k, code.c) == (390, 132, 128)
    assert gfrank(code.hx) == 193
    assert not matmul(code.hex, code.hez.transpose()).words.any()


def test_reduced_geometric_regression_values():
    nine = build_theorem9((2, 4, 6), 2, enforce_scale=False)
    ten = build_theorem10((2, 4, 6), 2, enforce_scale=False)
    assert (nine.n, nine.k, nine.c) == (381, 2, 379)
    assert (ten.n, ten.k, ten.c) == (381, 2, 379)


# README family -> (n, k, c, rank_hx, rank_hz, girth_floor) and the first 16
# hex digits of the sha256 of the words of hx, hz, hex and hez, recorded
# before `_assemble` ran the elimination of hx·hzᵀ once instead of twice.
# The appended columns of hex/hez depend on the pivots, so these pin them.
README_FAMILY_PINS = [
    (build_theorem5, (3, 1, 1), {}, (9, 4, 1, 3, 3, 8),
     ("74fa3195e19ee33a", "f7cda57568983bd5", "ad9e332fe4ef3b36", "f46b9aeeab6445b5")),
    (build_theorem5, (5, 2, 2), {}, (25, 8, 1, 9, 9, 6),
     ("2be57c0563e3d1b9", "6300c93acf08def5", "26d41aa80780753e", "fee78c2cd61029ac")),
    (build_theorem5, (7, 3, 3), {}, (49, 12, 1, 19, 19, 6),
     ("9987561d0e59f060", "7982c706b5c0ee07", "9d26f4a9d62137ca", "8a96ad71a5dfdd32")),
    (build_theorem6, (7, 3, 3), {}, (42, 10, 6, 19, 19, 6),
     ("3d705b1d21abdf6c", "053a05b13a896a77", "39ba01296ef1ce84", "f05a00c2e39f0843")),
    (build_theorem7, (11, 5), {}, (121, 70, 51, 51, 51, 6),
     ("3301acb200a3e7f1", "3301acb200a3e7f1", "5596e07a61466e77", "921c48870570e251")),
    (build_theorem8, (6, 2), {}, (390, 132, 128, 193, 193, 8),
     ("ecccd9fde6d82689", "ecccd9fde6d82689", "3d1278ec9f6da4a7", "37defd7570d45cc3")),
    (build_theorem9, ((2, 4, 6), 2), {"enforce_scale": False}, (381, 2, 379, 379, 379, 8),
     ("4b6c794422a489f8", "4b6c794422a489f8", "d12bf2f08463c092", "0ef1076ef7082d03")),
    (build_theorem10, ((2, 4, 6), 2), {"enforce_scale": False}, (381, 2, 379, 379, 379, 8),
     ("4b6c794422a489f8", "4b6c794422a489f8", "d12bf2f08463c092", "0ef1076ef7082d03")),
]


@pytest.mark.parametrize(
    "builder,args,kwargs,params,digests", README_FAMILY_PINS,
    ids=[f"{b.__name__}{a}" for b, a, *_ in README_FAMILY_PINS],
)
def test_readme_family_matrices_are_pinned(builder, args, kwargs, params, digests):
    code = builder(*args, **kwargs)
    got = (code.n, code.k, code.c, code.rank_hx, code.rank_hz, code.girth_floor)
    assert got == params
    words = [m.words.astype("<u8").tobytes() for m in (code.hx, code.hz, code.hex, code.hez)]
    assert tuple(hashlib.sha256(w).hexdigest()[:16] for w in words) == digests


def test_theorem5_full_band_fallback_stays_disjoint():
    # l1 + l2 = p forces the zero row into the Z bank
    mx, mz = theorem5_selection(5, 3, 2)
    assert not mz.exponents[0].any()
    rows = {tuple(r) for r in np.vstack([mx.exponents, mz.exponents]).tolist()}
    assert len(rows) == 5
    code = build_theorem5(5, 3, 2)
    assert (code.n, code.c) == (25, 1)
    assert code.k == 25 - 10 - 4 * 3 + 1


def test_girth_floors_by_family():
    # two block-rows cannot close a 6-cycle, so the minimal pair reaches 8
    mx, mz = theorem5_selection(3, 1, 1)
    assert girth_floor_of(mx, mz) == 8
    # all three block-rows together close one: exact girth 6
    assert girth_floor_of(*theorem5_selection(3, 2, 1)) == 6
    assert girth_floor_of(theorem7_model(5, 2)) == 8
    assert girth_floor_of(theorem8_model(6, 2)) == 8


# CLI family -> (builder arguments, builder keywords, the family's own models)
REGISTRY_CASES = {
    "thm5": ((3, 2, 1), {}, lambda: theorem5_selection(3, 2, 1)),
    "thm6": ((7, 3, 3), {}, lambda: theorem6_models(7, 3, 3)),
    "thm7": ((11, 5), {}, lambda: (theorem7_model(11, 5), None)),
    "thm8": ((6, 2), {}, lambda: (theorem8_model(6, 2), None)),
    "thm9": (((2, 4, 6), 2), {"enforce_scale": False},
             lambda: (theorem9_model((2, 4, 6), 2, enforce_scale=False), None)),
    "thm10": (((2, 4, 6), 2), {"enforce_scale": False},
              lambda: (theorem10_model((2, 4, 6), 2, enforce_scale=False), None)),
}


@pytest.mark.parametrize("family", sorted(REGISTRY_CASES))
def test_registry_codes_carry_their_models_floor_and_ranks(family):
    build, flags = FAMILIES[family]
    args, kwargs, models = REGISTRY_CASES[family]
    assert len(flags) == len(args)
    code = build(*args, **kwargs)
    mx, mz = models()
    assert code.mx == mx and code.mz == (mx if mz is None else mz)
    assert code.girth_floor == girth_floor_of(mx, mz)
    assert code.rank_hx == gfrank(code.hx) and code.rank_hz == gfrank(code.hz)


def test_registry_covers_every_family():
    assert set(FAMILIES) == set(REGISTRY_CASES)


def test_codes_compare_and_hash_by_value():
    a, b = build_theorem5(3, 1, 1), build_theorem5(3, 1, 1)
    assert a == b and hash(a) == hash(b)
    assert a != build_theorem5(3, 2, 1)
    assert len({a, b, build_theorem7(5, 2)}) == 2


def test_stabilizer_rows_layout():
    code = build_theorem5(3, 1, 1)
    rows = code.stabilizer_rows().to_dense()
    q = code.n + code.c
    top, bottom = rows[: code.hex.rows], rows[code.hex.rows :]
    assert rows.shape == (code.hex.rows + code.hez.rows, 2 * q)
    assert np.array_equal(top[:, :q], code.hex.to_dense()) and not top[:, q:].any()
    assert np.array_equal(bottom[:, q:], code.hez.to_dense()) and not bottom[:, :q].any()


def test_builder_constraint_errors():
    with pytest.raises(ValueError):
        build_theorem5(3, 2, 2)  # l1 + l2 above p
    with pytest.raises(ValueError):
        build_theorem7(5, 3)  # 2l not below p
    with pytest.raises(ValueError):
        build_theorem6(5, 4, 1)  # l1 above p-2


_REDUCED = {"enforce_scale": False}


@pytest.mark.parametrize("build, args, kwargs, name", [
    (build_theorem5, (5, 2.0, 2), {}, "l1"),
    (build_theorem5, (5.0, 2, 2), {}, "p"),
    (build_theorem5, (5, 2, True), {}, "l2"),
    (build_theorem6, (True, 1, 1), {}, "p"),
    (build_theorem6, (7, 2, 2.0), {}, "l2"),
    (build_theorem7, (11, 5.0), {}, "l"),
    (build_theorem7, (True, 1), {}, "p"),
    (build_theorem8, (6, 2.0), {}, "w"),
    (build_theorem8, (True, 2), {}, "l"),
    (build_theorem9, ((2.5, 4, 6), 2), _REDUCED, "exponent"),
    (build_theorem9, ((2, 4, 6), True), _REDUCED, "w"),
    (build_theorem10, ((2.5, 4, 6), 2), _REDUCED, "exponent"),
    (build_theorem10, ((2, 4, 6), 2.0), _REDUCED, "w"),
], ids=["thm5-l1", "thm5-p", "thm5-l2-bool", "thm6-p-bool", "thm6-l2", "thm7-l",
        "thm7-p-bool", "thm8-w", "thm8-l-bool", "thm9-exponent", "thm9-w-bool",
        "thm10-exponent", "thm10-w"])
def test_builders_refuse_a_float_or_bool_by_name(build, args, kwargs, name):
    # each used to fail deep inside with no name, read True as 1, or (for
    # 2.5 in an exponent set) build the (2, 4, 6) code
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        build(*args, **kwargs)


def test_the_grids_resolve_through_eacode_too():
    # perfbench/workloads.py reads the Theorem 5 and 7 grids as eacode's
    assert eacode.theorem5_selection is models.theorem5_selection
    assert eacode.theorem7_model is models.theorem7_model


# ── structure guards ──────────────────────────────────────────────────
# Each StructureCheckFailed guard of the builders, forced by patching the
# measurement it reads.


def test_girth_floor_guard(monkeypatch):
    monkeypatch.setattr(eacode, "girth_floor_of", lambda mx, mz=None: 4)
    with pytest.raises(StructureCheckFailed, match="theorem5: .*girth floor 4 below required 6"):
        build_theorem5(3, 1, 1)


def test_commutation_guard(monkeypatch):
    # thm5 p=3 needs one ebit, so the unextended pair does not commute
    monkeypatch.setattr(eacode, "extend", lambda hx, hz: (hx, hz))
    with pytest.raises(StructureCheckFailed, match="theorem5: extended matrices do not commute"):
        build_theorem5(3, 1, 1)


def test_prediction_guard(monkeypatch):
    monkeypatch.setattr(eacode, "gfrank", lambda h: gfrank(h) + 1)
    with pytest.raises(StructureCheckFailed, match="theorem5: k is 2, predicted 4"):
        build_theorem5(3, 1, 1)


GEOMETRIC_CASES = [
    ("theorem8", build_theorem8, (6, 2), {}),
    ("theorem9", build_theorem9, ((2, 4, 6), 2), {"enforce_scale": False}),
    ("theorem10", build_theorem10, ((2, 4, 6), 2), {"enforce_scale": False}),
]


@pytest.mark.parametrize("family,builder,args,kwargs", GEOMETRIC_CASES,
                         ids=[case[0] for case in GEOMETRIC_CASES])
def test_geometric_rank_bound_guard(monkeypatch, family, builder, args, kwargs):
    monkeypatch.setattr(eacode, "gfrank", lambda h: h.rows)
    with pytest.raises(StructureCheckFailed, match=f"{family}: gfrank\\(H\\) .* exceeds the bound"):
        builder(*args, **kwargs)


@pytest.mark.parametrize("family,builder,args,kwargs", GEOMETRIC_CASES,
                         ids=[case[0] for case in GEOMETRIC_CASES])
def test_geometric_ebit_bound_guard(monkeypatch, family, builder, args, kwargs):
    # zero columns appended to both sides keep them commuting and add ebits
    real = eacode.extend
    monkeypatch.setattr(eacode, "extend", lambda hx, hz: tuple(
        m.hstack(BinaryMatrix.zeros(m.rows, 2 ** 12)) for m in real(hx, hz)))
    with pytest.raises(StructureCheckFailed, match=f"{family}: ebit count .* exceeds the bound"):
        builder(*args, **kwargs)


def test_params_reports_a_failed_guard(monkeypatch, capsys):
    monkeypatch.setattr(eacode, "girth_floor_of", lambda mx, mz=None: 4)
    status = main(["params", "--family", "thm5", "--p", "3", "--l1", "1", "--l2", "1"])
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("verification failure: theorem5:")
