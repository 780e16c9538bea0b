"""Cycle tests: exponent-level detectors against the expanded-graph BFS oracle,
and the packed BFS oracle against the plain one-root-at-a-time search."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaqc import gf2
from eaqc.gf2 import BinaryMatrix, ModelMatrix, expand
from eaqc.girth import girth_bfs, has_four_cycle, has_six_cycle
from eaqc.models import (
    special_prime_model,
    theorem5_selection,
    theorem6_models,
    theorem7_model,
    theorem8_model,
    theorem9_model,
    theorem10_model,
)
from girth_reference import girth_bfs_reference

# every test here checks the girth oracle; CI selects them with criterion 05
pytestmark = pytest.mark.girth

CAPS = (4, 6, 8, 10, 12)


def test_four_cycle_detector_frozen_cases():
    assert has_four_cycle(ModelMatrix(5, np.array([[0, 1, 2], [0, 1, 3]])))
    assert not has_four_cycle(ModelMatrix(5, np.array([[0, 1, 2], [0, 2, 4]])))
    # single block-row strips never close a 4-cycle
    assert not has_four_cycle(ModelMatrix(4, np.array([[0, 0, 0, 0]])))


def test_six_cycle_detector_frozen_cases():
    assert has_six_cycle(special_prime_model(3))
    assert not has_six_cycle(theorem8_model(6, 2))
    # fewer than three block-rows or block-cols cannot close one
    assert not has_six_cycle(ModelMatrix(5, np.array([[0, 1, 2], [0, 2, 4]])))


def test_girth_bfs_known_graphs():
    c8 = BinaryMatrix.from_dense(
        np.eye(4, dtype=np.uint8) + np.roll(np.eye(4, dtype=np.uint8), 1, axis=1)
    )
    assert girth_bfs(c8, 8) == 8
    assert girth_bfs(c8, 6) == math.inf
    assert girth_bfs(BinaryMatrix.from_dense(np.ones((2, 2), dtype=np.uint8)), 4) == 4
    tree = BinaryMatrix.from_dense(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8))
    assert girth_bfs(tree, 10) == math.inf


def test_girth_bfs_rejects_bad_caps():
    h = BinaryMatrix.from_dense(np.ones((2, 2), dtype=np.uint8))
    for cap in (-4, 0, 2, 3, 5, 7):
        with pytest.raises(ValueError, match="even integer >= 4"):
            girth_bfs(h, cap)


@pytest.mark.parametrize("cap", [8.0, True, "8"])
def test_girth_bfs_cap_that_is_not_an_integer_raises(cap):
    # 8.0 would pass the range check and fail later, inside range
    h = expand(special_prime_model(5))
    with pytest.raises(TypeError, match="cap must be an integer"):
        girth_bfs(h, cap)
    assert girth_bfs(h, np.int64(8)) == girth_bfs(h, 8) == 6


def test_girth_bfs_on_known_families():
    # p=3 product grid expands to girth exactly 6
    assert girth_bfs(expand(special_prime_model(3)), 8) == 6
    # two deterministic rows at p=5 reach girth 8
    two = special_prime_model(5).row_submodel([1, 2])
    assert girth_bfs(expand(two), 8) == 8


@st.composite
def small_models(draw):
    br = draw(st.integers(1, 4))
    bc = draw(st.integers(1, 6))
    order = draw(st.integers(2, 40))
    e = draw(
        st.lists(
            st.lists(st.integers(0, order - 1), min_size=bc, max_size=bc),
            min_size=br,
            max_size=br,
        )
    )
    return ModelMatrix(order, np.array(e))


@given(m=small_models())
@settings(max_examples=60, deadline=None)
def test_exponent_detectors_agree_with_bfs(m):
    h = expand(m)
    assert has_four_cycle(m) == (girth_bfs(h, 4) == 4)
    if not has_four_cycle(m):
        assert has_six_cycle(m) == (girth_bfs(h, 6) == 6)


# ── the packed BFS against the plain reference ─────────────────────────


def _assert_matches_reference(dense):
    h = BinaryMatrix.from_dense(dense)
    for cap in CAPS:
        assert girth_bfs(h, cap) == girth_bfs_reference(h, cap), (dense, cap)


def _random_tree(rng, size):
    """Check matrix of a random tree on size vertices: even depths are
    variables, odd depths checks."""
    parent = [int(rng.integers(0, v)) for v in range(1, size)]
    depth = [0]
    for p in parent:
        depth.append(depth[p] + 1)
    side = [d % 2 for d in depth]
    index = [sum(1 for u in range(v) if side[u] == side[v]) for v in range(size)]
    h = np.zeros((sum(side), size - sum(side)), dtype=np.uint8)
    for v, p in enumerate(parent, 1):
        check, var = (v, p) if side[v] else (p, v)
        h[index[check], index[var]] = 1
    return h


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (3, 4)])
def test_girth_bfs_of_graphs_without_edges(shape):
    dense = np.zeros(shape, dtype=np.uint8)
    _assert_matches_reference(dense)
    assert girth_bfs(BinaryMatrix.from_dense(dense), 12) == math.inf


def test_girth_bfs_matches_the_reference_on_random_matrices():
    rng = np.random.default_rng(18)
    for _ in range(300):
        rows, cols = rng.integers(1, 10, size=2)
        dense = (rng.random((rows, cols)) < rng.choice([0.15, 0.3, 0.5])).astype(np.uint8)
        # all-zero rows and columns add isolated vertices
        dense[rng.random(rows) < 0.2] = 0
        dense[:, rng.random(cols) < 0.2] = 0
        _assert_matches_reference(dense)


def test_girth_bfs_matches_the_reference_on_trees():
    rng = np.random.default_rng(3)
    for size in (2, 3, 5, 9, 17, 40, 120):
        tree = _random_tree(rng, size)
        assert tree.sum() == size - 1
        _assert_matches_reference(tree)
        assert girth_bfs(BinaryMatrix.from_dense(tree), 12) == math.inf


# the model matrices behind every README code (thm9 and thm10 share one)
_README_MODELS = {
    "thm5 p=3": lambda: theorem5_selection(3, 1, 1),
    "thm5 p=5": lambda: theorem5_selection(5, 2, 2),
    "thm5 p=7": lambda: theorem5_selection(7, 3, 3),
    "thm6 p=7": lambda: theorem6_models(7, 3, 3),
    "thm7 p=11": lambda: (theorem7_model(11, 5),),
    "thm8": lambda: (theorem8_model(6, 2),),
    "thm9": lambda: (theorem9_model((2, 4, 6), 2, enforce_scale=False),),
    "thm10": lambda: (theorem10_model((2, 4, 6), 2, enforce_scale=False),),
}


@pytest.mark.parametrize("family", list(_README_MODELS))
def test_girth_bfs_matches_the_reference_on_readme_families(family, monkeypatch):
    models = _README_MODELS[family]()
    stacked = models[0] if len(models) == 1 else models[0].vstack(models[1])
    h = expand(stacked)
    want = [girth_bfs_reference(h, cap) for cap in CAPS]
    assert [girth_bfs(h, cap) for cap in CAPS] == want
    # a one-word budget sends the roots through in blocks of 64
    monkeypatch.setattr(gf2, "_MATMUL_BYTES", 1)
    assert [girth_bfs(h, cap) for cap in CAPS] == want


def test_girth_bfs_scratch_is_bounded_by_root_blocks():
    # 3000 variables and 2000 checks; one block of all 2000 check roots
    # would hold about 7.7 MiB of scratch
    h = expand(ModelMatrix(1000, np.array([[0, 0, 0], [0, 1, 3]])))
    tracemalloc.start()
    try:
        girth = girth_bfs(h, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert girth == 12
    assert peak < gf2._MATMUL_BYTES + 2**20
