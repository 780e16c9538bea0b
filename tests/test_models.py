"""Construction tests for the randomized and deterministic model families."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eaqc.models as models
from eaqc.gf2 import ModelMatrix, expand, gfrank
from eaqc.girth import has_four_cycle
from eaqc.models import (
    OrderExhausted,
    construct_composite_model,
    construct_prime_model,
    special_prime_model,
    theorem6_models,
    theorem8_model,
    theorem9_model,
    theorem10_model,
)


def entries_unit_mod_order(m: ModelMatrix) -> bool:
    """True when every nonzero entry is coprime to the circulant order."""
    return all(math.gcd(int(e), m.order) == 1 for e in m.exponents.ravel() if e)


def assert_prime_class_member(m: ModelMatrix) -> None:
    """Check the scalar-multiple structure: zero row, base row, k*base rows."""
    p = m.order
    e = m.exponents
    assert e.shape == (p, p)
    assert not e[0].any()
    base = e[1]
    assert base[0] == 0 and sorted(base.tolist()) == list(range(p))
    seen = set()
    for i in range(2, p):
        # base[1] is invertible mod p, so the scalar is recoverable
        k = (int(e[i, 1]) * pow(int(base[1]), -1, p)) % p
        assert k not in (0, 1) and k not in seen
        seen.add(k)
        assert ((k * base) % p == e[i]).all()


# ── draw pins ─────────────────────────────────────────────────────────
# The first 16 hex digits of the sha256 of each grid's little-endian int64
# exponents, seed after seed; a composite draw that exhausts its budget
# contributes b"row <index>" instead.  These fix the order in which the
# generators consume their draws, so a change to it fails by name.

PRIME_DRAW_PINS = {
    3: "e350edf563095d78",
    5: "c01a548d5a13dd62",
    7: "693179f976709012",
    11: "c882088384921c9a",
    13: "40a9dab017e4ea01",
}

# (n, q, r) -> (draws of seeds 0-99 that exhaust, digest)
COMPOSITE_DRAW_PINS = {
    (4, 2, 3): (0, "c1d150df3a7852ea"),
    (6, 2, 3): (0, "427949fed6ebb73d"),
    (6, 3, 4): (0, "75d62437f13b482a"),
    (6, 4, 5): (30, "189a55b7bf5b0960"),
    (8, 3, 5): (0, "987d032506d1d60d"),
    (9, 4, 5): (0, "c9635ee71a64ea30"),
    (10, 3, 5): (0, "4df42455b092ff34"),
    (12, 4, 6): (0, "b88dce2eda1ed0cc"),
}


@pytest.mark.parametrize("p", sorted(PRIME_DRAW_PINS))
def test_prime_model_draws_are_pinned(p):
    h = hashlib.sha256()
    for seed in range(50):
        h.update(construct_prime_model(p, seed).exponents.astype("<i8").tobytes())
    assert h.hexdigest()[:16] == PRIME_DRAW_PINS[p]


@pytest.mark.parametrize("nqr", sorted(COMPOSITE_DRAW_PINS))
def test_composite_model_draws_are_pinned(nqr):
    h = hashlib.sha256()
    exhausted = 0
    for seed in range(100):
        try:
            m = construct_composite_model(*nqr, seed)
        except OrderExhausted as err:
            exhausted += 1
            h.update(b"row %d" % err.row_index)
        else:
            h.update(m.exponents.astype("<i8").tobytes())
    assert (exhausted, h.hexdigest()[:16]) == COMPOSITE_DRAW_PINS[nqr]


# ── randomized prime family ───────────────────────────────────────────


def test_prime_model_seed0_p3_frozen():
    m = construct_prime_model(3, 0)
    assert m.order == 3
    assert m.exponents.tolist() == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]


def test_prime_model_draw_order_contract():
    # replay the documented rng consumption by hand
    p = 11
    rng = np.random.default_rng(42)
    base_tail = rng.permutation(np.arange(1, p))
    mult = rng.permutation(np.arange(2, p))
    expect = np.zeros((p, p), dtype=np.int64)
    expect[1, 1:] = base_tail
    for i, k in enumerate(mult, start=2):
        expect[i] = (k * expect[1]) % p
    assert (construct_prime_model(p, 42).exponents == expect).all()


def test_prime_model_deterministic_and_seed_sensitive():
    a = construct_prime_model(7, 5)
    b = construct_prime_model(7, 5)
    c = construct_prime_model(7, 6)
    assert (a.exponents == b.exponents).all()
    assert (a.exponents != c.exponents).any()


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
def test_prime_model_rejects_non_odd_primes(p):
    with pytest.raises(ValueError):
        construct_prime_model(p, 0)


@given(p=st.sampled_from([3, 5, 7, 11]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_prime_model_structure_and_no_four_cycles(p, seed):
    m = construct_prime_model(p, seed)
    assert_prime_class_member(m)
    assert not has_four_cycle(m)


# ── deterministic prime grid ──────────────────────────────────────────


def test_special_model_p3_frozen():
    m = special_prime_model(3)
    assert m.exponents.tolist() == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_special_model_is_product_grid_and_class_member(p):
    m = special_prime_model(p)
    idx = np.arange(p)
    assert (m.exponents == np.outer(idx, idx) % p).all()
    assert_prime_class_member(m)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_special_model_submodel_ranks_closed_form(p):
    # k stacked block-rows expand to rank p + (k-1)(p-1)
    m = special_prime_model(p)
    for k in range(1, p + 1):
        h = expand(m.row_submodel(range(k)))
        assert gfrank(h) == p + (k - 1) * (p - 1)


# ── randomized composite family ───────────────────────────────────────


def test_composite_model_seed0_frozen():
    m = construct_composite_model(4, 2, 3, 0)
    assert m.order == 4
    assert m.exponents.tolist() == [[0, 0, 0], [0, 2, 3]]


def test_composite_rejects_bad_parameters():
    with pytest.raises(ValueError):
        construct_composite_model(7, 2, 3, 0)  # prime order
    with pytest.raises(ValueError):
        construct_composite_model(4, 3, 3, 0)  # q must stay below r
    with pytest.raises(ValueError):
        construct_composite_model(4, 2, 4, 0)  # r must stay below n
    with pytest.raises(ValueError):
        construct_composite_model(4, 0, 3, 0)  # at least one block-row


def test_composite_second_row_lies_in_brute_force_universe():
    # at n=4, r=3 every ordered pair of distinct nonzero residues is
    # admissible against the zero row; the builder must pick one of them
    universe = {
        (0, a, b)
        for a in range(1, 4)
        for b in range(1, 4)
        if a != b
    }
    assert len(universe) == 6
    for seed in range(12):
        m = construct_composite_model(4, 2, 3, seed)
        assert tuple(m.exponents[1].tolist()) in universe


@given(
    nqr=st.sampled_from([(4, 2, 3), (6, 2, 3), (6, 3, 4), (8, 2, 4), (9, 3, 4), (10, 2, 5)]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_composite_structure_and_no_four_cycles(nqr, seed):
    n, q, r = nqr
    m = construct_composite_model(n, q, r, seed)
    e = m.exponents
    assert e.shape == (q, r)
    assert not e[0].any() and not e[:, 0].any()
    for i in range(1, q):
        row = e[i, 1:]
        assert len(set(row.tolist())) == r - 1 and (row > 0).all()
    assert not has_four_cycle(m)
    again = construct_composite_model(n, q, r, seed)
    assert (again.exponents == e).all()


def test_composite_exhaustion_signal(monkeypatch):
    # let every candidate close a 4-cycle: each of the 3*2 ordered draws of
    # two distinct nonzero residues mod 4 is then tried once, and no more
    tried = []

    def closes_a_four_cycle(m):
        tried.append(m)
        return True

    monkeypatch.setattr(models, "has_four_cycle", closes_a_four_cycle)
    with pytest.raises(OrderExhausted) as exc:
        construct_composite_model(4, 2, 3, 0)
    err = exc.value
    assert (err.n, err.q, err.r, err.row_index) == (4, 2, 3, 1)
    rows = {tuple(m.exponents[-1].tolist()) for m in tried}
    assert len(tried) == len(rows) == 6
    assert "next composite order" in str(err)


# ── paired selections from the deterministic grid ─────────────────────


def test_theorem6_models_p7_frozen():
    mx, mz = theorem6_models(7, 3, 3)
    assert mx.exponents.tolist() == [
        [1, 2, 3, 4, 5, 6],
        [2, 4, 6, 1, 3, 5],
        [3, 6, 2, 5, 1, 4],
    ]
    assert mz.exponents.tolist() == [
        [4, 1, 5, 2, 6, 3],
        [5, 3, 1, 6, 4, 2],
        [6, 5, 4, 3, 2, 1],
    ]


def test_theorem6_models_p3_minimal():
    mx, mz = theorem6_models(3, 1, 1)
    assert mx.exponents.tolist() == [[1, 2]]
    assert mz.exponents.tolist() == [[2, 1]]


@pytest.mark.parametrize("p,l1,l2", [(3, 1, 2), (3, 2, 1), (5, 2, 4), (5, 0, 1), (7, 3, 4)])
def test_theorem6_rejects_bad_row_counts(p, l1, l2):
    with pytest.raises(ValueError):
        theorem6_models(p, l1, l2)


# ── geometric wide-girth families ─────────────────────────────────────


def test_theorem8_l6_w2_frozen():
    m = theorem8_model(6, 2)
    assert m.order == 65
    assert m.exponents.tolist() == [
        [0, 0, 0, 0, 0, 0],
        [2, 4, 8, 16, 32, 64],
        [63, 61, 57, 49, 33, 1],
    ]


@given(l=st.integers(6, 9), w=st.integers(2, 4))
@settings(max_examples=20, deadline=None)
def test_theorem8_rows_are_powers_and_negatives(l, w):
    m = theorem8_model(l, w)
    n = m.order
    assert n == w**l + 1
    e = m.exponents
    assert not e[0].any()
    assert (e[1] == [pow(w, j, n) for j in range(1, l + 1)]).all()
    assert ((e[1] + e[2]) % n == 0).all()
    assert entries_unit_mod_order(m)


def test_theorem8_rejects_small_parameters():
    with pytest.raises(ValueError):
        theorem8_model(5, 2)
    with pytest.raises(ValueError):
        theorem8_model(6, 1)


def test_theorem9_constraints():
    with pytest.raises(ValueError):
        theorem9_model((2, 3, 4), 2, enforce_scale=False)  # two unit gaps
    with pytest.raises(ValueError):
        theorem9_model((2, 4, 6), 3, enforce_scale=False)  # odd w
    with pytest.raises(ValueError):
        theorem9_model((2, 4, 6), 2)  # top exponent below the full-size floor
    with pytest.raises(ValueError):
        theorem9_model((4, 2, 6), 2, enforce_scale=False)  # not ascending
    m = theorem9_model((2, 4, 6), 2, enforce_scale=False)
    assert m.order == 2**7 - 1
    assert m.exponents.shape == (4, 3)


def test_theorem9_full_scale_accepts_floor():
    m = theorem9_model((2, 3, 5, 6, 12), 2)
    assert m.order == 2**13 - 1
    assert m.exponents.shape == (4, 5)


def test_theorem10_constraints():
    with pytest.raises(ValueError):
        theorem10_model((2, 3, 6), 2, enforce_scale=False)  # gap below 2
    with pytest.raises(ValueError):
        theorem10_model((2, 4, 6), 2)  # below the full-size floor
    m = theorem10_model((2, 4, 6), 3, enforce_scale=False)  # odd w allowed here
    assert m.order == 3**7 - 1
    m = theorem10_model((2, 4, 6, 8, 10, 12, 14), 2)
    assert m.order == 2**15 - 1
    assert m.exponents.shape == (4, 7)


def test_geometric_rows_shift_by_one_power():
    m = theorem10_model((3, 5, 8), 2, enforce_scale=False)
    n = m.order
    e = m.exponents
    # row t+1 holds the previous row divided by w (exponent down-shift)
    assert ((e[2] * 2) % n == e[1]).all()
    assert ((e[3] * 2) % n == e[2]).all()


def test_entries_unit_mod_order_counterexample():
    m = ModelMatrix(6, np.array([[0, 2], [0, 3]]))
    assert not entries_unit_mod_order(m)
    assert entries_unit_mod_order(ModelMatrix(6, np.array([[0, 1], [0, 5]])))
