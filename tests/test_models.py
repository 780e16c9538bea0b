"""Construction tests for the randomized and deterministic model families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eaqc.models as models
from eaqc.gf2 import ModelMatrix, expand, gfrank
from eaqc.girth import has_four_cycle
from eaqc.models import (
    CompositeModelParams,
    OrderExhausted,
    PrimeModelParams,
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


def test_prime_params_validation():
    with pytest.raises(ValueError):
        PrimeModelParams(p=3, multipliers=(2, 2), base_row=(0, 1, 2))
    with pytest.raises(ValueError):
        PrimeModelParams(p=3, multipliers=(1,), base_row=(0, 1, 2))
    with pytest.raises(ValueError):
        PrimeModelParams(p=3, multipliers=(2,), base_row=(1, 0, 2))
    m = PrimeModelParams(p=3, multipliers=(2,), base_row=(0, 2, 1)).assemble()
    assert m.exponents.tolist() == [[0, 0, 0], [0, 2, 1], [0, 1, 2]]


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
        CompositeModelParams(4, 0, 3)


def test_composite_itr_max_counts_ordered_draws():
    assert CompositeModelParams(4, 2, 3).itr_max == 6  # 3*2
    assert CompositeModelParams(9, 2, 3).itr_max == 56  # 8*7
    assert CompositeModelParams(8, 2, 4).itr_max == 210  # 7*6*5


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
    # force every difference test to fail so the retry budget must empty
    monkeypatch.setattr(models, "_difference_ok", lambda cand, earlier, n: False)
    with pytest.raises(OrderExhausted) as exc:
        construct_composite_model(4, 2, 3, 0)
    err = exc.value
    assert (err.n, err.q, err.r, err.row_index) == (4, 2, 3, 1)
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
