"""Cycle tests: exponent-level detectors against the expanded-graph BFS oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eaqc.gf2 import BinaryMatrix, ModelMatrix, expand
from eaqc.girth import girth_bfs, has_four_cycle, has_six_cycle
from eaqc.models import special_prime_model, theorem8_model


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
    with pytest.raises(ValueError):
        girth_bfs(h, 3)
    with pytest.raises(ValueError):
        girth_bfs(h, 5)


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
