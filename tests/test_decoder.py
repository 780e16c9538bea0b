"""The Tanner graph and the two syndrome decoders, pinned against exact
single-error behavior, internal message identities, recorded outputs and a
scalar reference decoder."""

import hashlib
import tracemalloc
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqc import decoder
from eaqc.channel import ChannelParams, category_bits, sample_error_batch
from eaqc.decoder import (
    _CLIP,
    DecoderConfig,
    SyndromeTable,
    TannerGraph,
    _RuleScratch,
    _categories,
    _check_messages_exact,
    _column_sums,
    _exclusive,
    _graph,
    build_graphs,
    decode_batch,
    decode_binary_batch,
    decode_quaternary_batch,
    syndrome_batch,
)
from eaqc.eacode import build_theorem5, build_theorem6, build_theorem8
from eaqc.gf2 import BinaryMatrix, DimensionMismatch, RowBasis

_ALGS = ("binary-spa", "quaternary-spa")


def _stab_basis(code):
    q = code.n + code.c
    rows = []
    for r in code.hex.to_dense():
        rows.append(np.concatenate([r, np.zeros(q, np.uint8)]))
    for r in code.hez.to_dense():
        rows.append(np.concatenate([np.zeros(q, np.uint8), r]))
    return RowBasis.build(BinaryMatrix.from_dense(np.stack(rows)))


def _coset_ok(basis, code, rx, rz):
    q = code.n + code.c
    v = np.zeros(2 * q, np.uint8)
    v[: code.n] = rx
    v[q : q + code.n] = rz
    return bool(basis.contains_batch(BinaryMatrix.from_dense(v[None]))[0])


def _singles(n):
    """Names and (x, z) rows of the 3n single-qubit errors: X, Y, Z per qubit."""
    cats = np.tile(np.eye(n, dtype=np.int8), (1, 3)).reshape(3 * n, n)
    cats *= np.tile(np.array([1, 2, 3], np.int8), n)[:, None]
    x, z = category_bits(cats)
    return [f"{p}{i}" for i in range(n) for p in "XYZ"], x, z


@pytest.fixture(scope="module")
def nine():
    code = build_theorem5(3, 1, 1)
    return code, _stab_basis(code), build_graphs(code)


@pytest.fixture(scope="module")
def twentyfive():
    code = build_theorem5(5, 2, 2)
    return code, _stab_basis(code), build_graphs(code)


# ── graph construction ────────────────────────────────────────────────

def test_graph_counts_and_adjacency(twentyfive):
    code, _, g = twentyfive
    assert isinstance(g, TannerGraph)
    assert g.n == code.n
    assert g.x_checks == code.hx.rows
    assert g.checks == code.hx.rows + code.hz.rows
    # the padded index arrays must reproduce [0 | hx] over [hz | 0]: the x
    # bits of all qubits, then their z bits
    n = g.n
    dense = np.zeros((g.checks, 2 * n + 1), np.uint8)
    for b in range(g.checks):
        dense[b, g.idx[b]] = 1
    assert not dense[:, -1].any()  # the graphs of the families are regular
    hx, hz = code.hx.to_dense(), code.hz.to_dense()
    assert np.array_equal(dense[: g.x_checks, n:2 * n], hx)
    assert np.array_equal(dense[g.x_checks :, :n], hz)
    assert not dense[: g.x_checks, :n].any() and not dense[g.x_checks :, n:2 * n].any()


def test_joint_graph_labels(twentyfive):
    # X-check rows (label omega) read z bits and Z-check rows (label 1) x
    # bits, so one unit message per edge sums to the column weights of hz
    # on the x bits and of hx on the z bits: the sums are (s_one, s_omega)
    # per qubit
    code, _, g = twentyfive
    n, bx = g.n, g.x_checks
    assert np.all((g.idx[:bx] >= n) & (g.idx[:bx] < 2 * n)) and np.all(g.idx[bx:] < n)
    mu = np.zeros((g.idx.size + 1, 1))
    mu[:-1] = 1.0
    summed = _column_sums(mu, g.slots)[:, 0]
    assert np.array_equal(summed[:n], code.hz.to_dense().sum(axis=0))
    assert np.array_equal(summed[n:], code.hx.to_dense().sum(axis=0))


def _column_edges(hx, hz, g):
    """The message rows of each column's edges, by increasing check row.

    The edges are listed from the dense matrices, x bits (read by hz)
    first, with slot positions read off idx.
    """
    checks, n = g.idx.shape[0], hx.shape[1]
    h = np.zeros((checks, 2 * n), np.uint8)
    h[: len(hx), n:] = hx
    h[len(hx):, :n] = hz
    return [[np.flatnonzero(g.idx[b] == c)[0] * checks + b for b in np.flatnonzero(h[:, c])]
            for c in range(2 * n)]


def _loop_sums(hx, hz, g, mu):
    """Column sums by plain loops: the first message plus the rest, left to right.

    Each column's messages are followed by zeros up to the largest column
    degree, as the slot table pads them.
    """
    columns = _column_edges(hx, hz, g)
    width = max(1, max(map(len, columns)))
    out = np.empty((len(columns), mu.shape[1]))
    for c, rows in enumerate(columns):
        for t in range(mu.shape[1]):
            first, *rest = [float(mu[r, t]) for r in rows] + [0.0] * (width - len(rows))
            if rest:
                total = rest[0]
                for v in rest[1:]:
                    total += v
                first += total
            out[c, t] = first
    return out


def _reduceat_sums(hx, hz, g, mu):
    """Column sums as np.add.reduceat forms them over each column's edges.

    A column no row reads sums the zero row once.
    """
    edges, starts = [], []
    for rows in _column_edges(hx, hz, g):
        starts.append(len(edges))
        edges += rows or [g.idx.size]
    return np.add.reduceat(mu.T.take(edges, axis=1), starts, axis=1).T


def _messages(rng, rows, trials):
    """Random messages with signed zeros, and the zero row last."""
    mu = rng.normal(size=(rows + 1, trials))
    mu[rng.random(mu.shape) < 0.1] = 0.0
    mu[rng.random(mu.shape) < 0.1] = -0.0
    mu[-1] = 0.0
    return mu


def _same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("seed", range(4))
def test_column_sums_match_reduceat_on_random_degrees(seed):
    # column degrees 0-20, padded with zeros up to the largest: bit for bit
    # the plain loop's sums, and in value np.add.reduceat's on the columns
    # of at most 8 edges (from 9 numpy sums in its pairwise order)
    rng = np.random.default_rng(seed)
    n, rows = 11, 20
    # column j (x bit) reads hz, column n + j (z bit) hx
    degree = rng.permutation(np.append(np.arange(rows + 1), rng.integers(rows + 1)))
    hx, hz = (np.zeros((rows, n), np.uint8) for _ in range(2))
    for c, d in enumerate(degree):
        (hz if c < n else hx)[rng.choice(rows, d, replace=False), c % n] = 1
    g = _graph(hx, hz)
    assert np.array_equal((g.slots != g.idx.size).sum(axis=0), degree)
    low = degree <= 8
    for trials in (1, 7):
        mu = _messages(rng, g.idx.size, trials)
        got = _column_sums(mu, g.slots)
        assert _same_bits(got, _loop_sums(hx, hz, g, mu))
        assert np.array_equal(got[low], _reduceat_sums(hx, hz, g, mu)[low])


@pytest.mark.parametrize("degree", [*range(1, 21), 129, 200])
def test_column_sums_match_reduceat_bit_for_bit(degree):
    # every column has the same degree, so none is padded: bit for bit the
    # plain loop's sums, and up to 8 edges np.add.reduceat's too
    rng = np.random.default_rng(degree)
    hx, hz = np.ones((degree, 3), np.uint8), np.ones((degree, 3), np.uint8)
    g = _graph(hx, hz)
    assert (g.slots != g.idx.size).all()
    mu = _messages(rng, g.idx.size, 7)
    got = _column_sums(mu, g.slots)
    assert _same_bits(got, _loop_sums(hx, hz, g, mu))
    if degree <= 8:
        assert _same_bits(got, _reduceat_sums(hx, hz, g, mu))


# ── syndromes ─────────────────────────────────────────────────────────

def test_identity_error_has_zero_syndrome(nine):
    code, _, _ = nine
    zero = np.zeros((1, code.n), np.uint8)
    sx, sz = syndrome_batch(code, zero, zero)
    assert not sx.any() and not sz.any()


def test_single_x_hits_first_z_column(nine):
    code, _, _ = nine
    x = np.zeros((1, code.n), np.uint8)
    x[0, 0] = 1
    sx, sz = syndrome_batch(code, x, np.zeros_like(x))
    assert not sx.any()
    assert np.array_equal(sz[0], code.hz.to_dense()[:, 0])


def test_syndrome_batch_rejects_mis_shaped_errors(nine):
    code, _, _ = nine
    n = code.n
    for xs, zs in [((5, n), (7, n)), ((5, n + 1), (5, n + 1)),
                   ((5, n), (5, n - 1)), ((n,), (n,))]:
        with pytest.raises(DimensionMismatch) as err:
            syndrome_batch(code, np.zeros(xs, np.uint8), np.zeros(zs, np.uint8))
        assert all(str(part) in str(err.value) for part in (xs, zs, f"(T, {n})"))


def test_syndrome_batch_memory_stays_flat():
    code = build_theorem8(6, 2)
    rng = np.random.default_rng(0)
    x, z = rng.integers(0, 2, (2, 5000, code.n), dtype=np.uint8)
    tracemalloc.start()
    try:
        syndrome_batch(code, x, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_config_validation():
    DecoderConfig("binary-spa", 0.1)
    with pytest.raises(ValueError):
        DecoderConfig("osd", 0.1)
    with pytest.raises(ValueError):
        DecoderConfig("binary-spa", 0.1, l_max=0)
    with pytest.raises(ValueError, match=r"p_d must lie in \[0, 1\], got 1.5"):
        DecoderConfig("binary-spa", 1.5)
    with pytest.raises(ValueError):
        decode_binary_batch(None, None, None, DecoderConfig("quaternary-spa", 0.1))
    with pytest.raises(ValueError):
        decode_quaternary_batch(None, None, None, DecoderConfig("binary-spa", 0.1))


@pytest.mark.parametrize("p_d", [True, False, np.True_])
def test_a_bool_p_d_fails_at_construction(p_d):
    # True would otherwise pass the range check as 1 and reach a sweep's CSV
    with pytest.raises(TypeError, match="p_d must be a number"):
        DecoderConfig("quaternary-spa", p_d)


@pytest.mark.parametrize("l_max", [2.5, 100.0, True, "100"])
def test_l_max_that_is_not_an_integer_fails_at_construction(l_max):
    with pytest.raises(TypeError, match="l_max"):
        DecoderConfig("binary-spa", 0.02, l_max=l_max)


def test_l_max_is_stored_as_an_int():
    cfg = DecoderConfig("binary-spa", 0.02, l_max=np.int64(20))
    assert type(cfg.l_max) is int and cfg.l_max == 20


@pytest.mark.parametrize("alg", _ALGS)
def test_mis_sized_syndromes_are_rejected(alg):
    code = build_theorem6(7, 3, 2)
    g = build_graphs(code)
    assert (g.x_checks, g.checks - g.x_checks) == (21, 14)
    cfg = DecoderConfig(alg, 0.03)
    sx, sz = np.zeros((5, 21), np.uint8), np.zeros((5, 14), np.uint8)
    wide_x, narrow_z = np.zeros((5, 28), np.uint8), np.zeros((5, 7), np.uint8)
    for bad_x, bad_z, named in ((wide_x, narrow_z, "28"), (wide_x, sz, "28"),
                                (sx, narrow_z, "7"), (sx, sz[:4], "4")):
        with pytest.raises(DimensionMismatch, match=named):
            decode_batch(g, bad_x, bad_z, cfg)
    assert decode_batch(g, sx, sz, cfg)[2].all()


# ── decoding basics ───────────────────────────────────────────────────

def test_zero_syndrome_converges_immediately(nine):
    code, _, g = nine
    sx = np.zeros((1, code.hx.rows), np.uint8)
    sz = np.zeros((1, code.hz.rows), np.uint8)
    for alg in _ALGS:
        ex, ez, conv, iters = decode_batch(g, sx, sz, DecoderConfig(alg, 0.03))
        assert conv[0] and iters[0] == 0
        assert not ex.any() and not ez.any()


def test_empty_batch_decodes_to_empty_outputs(nine):
    code, _, g = nine
    sx, sz = np.zeros((0, code.hx.rows), np.uint8), np.zeros((0, code.hz.rows), np.uint8)
    for alg in _ALGS:
        ex, ez, conv, iters = decode_batch(g, sx, sz, DecoderConfig(alg, 0.03))
        assert ex.shape == ez.shape == (0, code.n) and conv.shape == iters.shape == (0,)


@pytest.mark.parametrize("alg", _ALGS)
def test_convergence_flag_soundness(twentyfive, alg):
    code, _, g = twentyfive
    cfg = DecoderConfig(alg, 0.04)
    xs, zs = sample_error_batch(code.n, ChannelParams(0.04, 0.3), 3, 60)
    sx, sz = syndrome_batch(code, xs, zs)
    ex, ez, conv, iters = decode_batch(g, sx, sz, cfg)
    s2x, s2z = syndrome_batch(code, ex, ez)
    assert np.array_equal(s2x[conv], sx[conv]) and np.array_equal(s2z[conv], sz[conv])
    assert np.all(iters[~conv] == cfg.l_max)


# ── single-error behavior, frozen after measurement ───────────────────

def test_quaternary_singles_on_nine_correct_exactly_the_y_errors(nine):
    code, basis, g = nine
    names, x, z = _singles(code.n)
    sx, sz = syndrome_batch(code, x, z)
    ex, ez, conv, _ = decode_quaternary_batch(g, sx, sz, DecoderConfig("quaternary-spa", 0.03))
    corrected = [name for t, name in enumerate(names)
                 if conv[t] and _coset_ok(basis, code, x[t] ^ ex[t], z[t] ^ ez[t])]
    assert corrected == [f"Y{i}" for i in range(9)]


def test_binary_singles_on_nine_all_deadlock(nine):
    # every column of each check block has degree 1, so the excluded
    # incoming message leaves variable-to-check messages at the prior
    # forever and no nonzero syndrome is ever reproduced
    code, _, g = nine
    _, x, z = _singles(code.n)
    sx, sz = syndrome_batch(code, x, z)
    _, _, conv, _ = decode_binary_batch(g, sx, sz, DecoderConfig("binary-spa", 0.03, l_max=30))
    assert not conv.any()


def test_shared_syndrome_classes_on_nine(nine):
    # the 27 singles land on only 15 distinct syndromes; the six
    # three-member classes mix logically inequivalent errors, so no
    # decoder can coset-correct every single error
    code, basis, _ = nine
    names, x, z = _singles(code.n)
    sx, sz = syndrome_batch(code, x, z)
    seen = {}
    for t, name in enumerate(names):
        seen.setdefault((sx[t].tobytes(), sz[t].tobytes()), []).append((name, x[t], z[t]))
    assert len(seen) == 15
    shared = [v for v in seen.values() if len(v) > 1]
    assert len(shared) == 6 and all(len(v) == 3 for v in shared)
    for group in shared:
        _, x0, z0 = group[0]
        for _, x1, z1 in group[1:]:
            assert not _coset_ok(basis, code, x0 ^ x1, z0 ^ z1)


def test_both_decoders_correct_all_singles_on_twentyfive(twentyfive):
    code, basis, g = twentyfive
    names, x, z = _singles(code.n)
    sx, sz = syndrome_batch(code, x, z)
    for alg in ("quaternary-spa", "binary-spa"):
        ex, ez, conv, _ = decode_batch(g, sx, sz, DecoderConfig(alg, 0.03))
        for t, name in enumerate(names):
            assert conv[t], (alg, name)
            assert _coset_ok(basis, code, x[t] ^ ex[t], z[t] ^ ez[t]), (alg, name)


def test_twentyfive_single_syndromes_all_distinct(twentyfive):
    code, _, _ = twentyfive
    _, x, z = _singles(code.n)
    s = np.concatenate(syndrome_batch(code, x, z), axis=1)
    assert s.any(axis=1).all()
    assert len(np.unique(s, axis=0)) == 75


# ── message kernels ───────────────────────────────────────────────────

def _rule(m, sign):
    """The tanh rule on (trials, checks, dmax) messages, with fresh buffers.

    The kernel runs in the decoder's (dmax, checks, trials) layout.
    """
    m = np.array(m, dtype=np.float64).T
    r = _RuleScratch(np.asarray(sign, np.float64).T, len(m))
    r.m[...] = m
    return _check_messages_exact(r, out=np.empty_like(m)).T


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=7))
def test_exclusive_product_matches_brute_force(vals):
    r = _RuleScratch(np.ones((1, 1)), len(vals))
    r.m[:, 0, 0] = vals
    got = _exclusive(r)[:, 0, 0]
    for t in range(len(vals)):
        want = np.prod([v for j, v in enumerate(vals) if j != t]) if len(vals) > 1 else 1.0
        assert np.isclose(got[t], want, atol=1e-9)


def _accumulate_exclusive(a):
    """The exclusive product by two np.multiply.accumulate calls on the last axis."""
    pre = np.ones(a.shape[:-1] + (a.shape[-1] + 1,))
    suf = pre.copy()
    np.multiply.accumulate(a, axis=-1, out=pre[..., 1:])
    np.multiply.accumulate(a[..., ::-1], axis=-1, out=suf[..., -2::-1])
    return pre[..., :-1] * suf[..., 1:]


@pytest.mark.parametrize("width", range(1, 13))
@pytest.mark.parametrize("trials", [0, 1, 7])
def test_exclusive_product_matches_accumulate_bit_for_bit(width, trials):
    rng = np.random.default_rng(100 * width + trials)
    a = np.tanh(rng.normal(size=(width, 5, trials)))
    a[rng.random(a.shape) < 0.1] = -0.0
    a[rng.random(a.shape) < 0.1] = 1.0
    want = np.moveaxis(_accumulate_exclusive(np.moveaxis(a, 0, -1)), -1, 0)
    r = _RuleScratch(np.ones((5, trials)), width)
    r.m[...] = a
    got = _exclusive(r)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(st.lists(st.tuples(*[st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])] * 3),
                min_size=1, max_size=12))
def test_categories_match_argmax(ratios):
    # ties go to the first of I, X, Y, Z
    q = np.zeros((4, len(ratios), 1))
    q[1:, :, 0] = np.transpose(ratios)
    x, z = np.ones((2, len(ratios), 1), bool)
    _categories(q[1], q[2], q[3], x, z)
    want_x, want_z = category_bits(q[:, :, 0].argmax(axis=0))
    assert x[:, 0].tolist() == want_x.tolist() and z[:, 0].tolist() == want_z.tolist()


def test_syndrome_sign_negates_check_messages():
    # the tanh rule takes the syndrome sign times 2
    m = [[[0.8, -1.2, 2.0]]]
    assert np.allclose(_rule(m, [[2.0]]), -_rule(m, [[-2.0]]))


def test_padding_slots_are_neutral():
    # the flood feeds +inf into padding slots: a factor 1 under the tanh rule
    want = _rule([[[0.8, -1.2, 2.0]]], [[2.0]])[0, 0]
    got = _rule([[[0.8, -1.2, 2.0, np.inf]]], [[2.0]])[0, 0]
    assert np.array_equal(got[:3], want)


@pytest.mark.parametrize("m", [
    [np.inf], [-np.inf], [0.3],  # a degree-one check: no other slot
    [np.inf, -np.inf], [np.inf, np.inf, -np.inf, np.inf],
    [60.0, -80.0, 1e300, 0.0], [np.inf, 0.5, -np.inf],
])
def test_tanh_rule_is_bounded_by_the_clip(m):
    # the clip alone bounds every check message, below the scalar
    # reference decoder's clamp of 30, so the decoder needs no clamp
    bound = 2.0 * np.arctanh(_CLIP)
    assert 28.3 < bound < 28.4 < CLAMP
    for sign in (2.0, -2.0):
        with np.errstate(all="raise"):
            out = _rule([[m]], [[sign]])[0, 0]
        assert np.all(np.abs(out) <= bound)
        if len(m) == 1:
            assert out[0] == np.copysign(bound, sign)


def test_degree_one_check_clamps_instead_of_overflowing():
    # the clip bounds the message of a check with one edge, which the
    # product over no other slot would send to 2·atanh(1) = inf
    h = np.array([[1, 0], [1, 1]], np.uint8)
    g = _graph(h, h)
    cfg = DecoderConfig("binary-spa", 0.2, l_max=5)
    s = np.array([[1, 0]], np.uint8)
    with np.errstate(all="raise"):
        _, _, conv, iters = decode_binary_batch(g, s, s, cfg)
    assert conv.shape == iters.shape == (1,)
    assert 0 <= iters[0] <= cfg.l_max


def test_uniform_prior_first_messages_all_equal(nine):
    # p_d = 0.75 zeroes every initial log ratio, so the first round of
    # check messages must be identical across the joint graph
    _, _, g = nine
    m0 = 0.0
    real = g.idx < 2 * g.n
    m_edges = np.where(real, m0, np.inf)[None]
    mu = _rule(m_edges, 2.0 * np.ones((1, g.checks)))
    vals = mu[0][real]
    assert np.allclose(vals, vals[0])


def test_results_do_not_depend_on_batching(twentyfive):
    code, _, g = twentyfive
    xs, zs = sample_error_batch(code.n, ChannelParams(0.05, 0.4), 77, 30)
    sx, sz = syndrome_batch(code, xs, zs)
    for alg in _ALGS:
        cfg = DecoderConfig(alg, 0.05)
        whole = decode_batch(g, sx, sz, cfg)
        assert not whole[2].all()  # a stalled trial keeps the batch going
        for size in (1, 7):
            parts = [decode_batch(g, sx[i : i + size], sz[i : i + size], cfg)
                     for i in range(0, len(sx), size)]
            for got, want in zip(zip(*parts), whole):
                assert np.array_equal(np.concatenate(got), want)
    # a batch that sheds trials at several iterations: a zero syndrome
    # (done at iteration 0), the three latest converging trials of a larger
    # sample, and a trial that stalls to l_max, interleaved
    xs, zs = sample_error_batch(code.n, ChannelParams(0.05, 0.4), 77, 400)
    sx, sz = syndrome_batch(code, xs, zs)
    zero = np.flatnonzero(~sx.any(axis=1) & ~sz.any(axis=1))[0]
    for alg in _ALGS:
        cfg = DecoderConfig(alg, 0.05)
        _, _, conv, iters = decode_batch(g, sx, sz, cfg)
        late = np.argsort(np.where(conv, iters, -1), kind="stable")[-3:]
        pick = np.array([late[0], zero, np.flatnonzero(~conv)[0], late[1], late[2]])
        mixed = decode_batch(g, sx[pick], sz[pick], cfg)
        assert mixed[3][1] == 0 and mixed[3][2] == cfg.l_max and not mixed[2][2]
        assert len(set(mixed[3].tolist())) >= 3
        for row, t in enumerate(pick):
            alone = decode_batch(g, sx[t : t + 1], sz[t : t + 1], cfg)
            for got, want in zip(mixed, alone):
                assert np.array_equal(got[row], want[0])


@cache
def _shuffled():
    """40 seeded trials of [[25,8;1]] and each algorithm's outputs on them."""
    code = build_theorem5(5, 2, 2)
    g = build_graphs(code)
    sx, sz = syndrome_batch(code, *sample_error_batch(code.n, ChannelParams(0.05, 0.4), 77, 40))
    return g, sx, sz, {alg: decode_batch(g, sx, sz, DecoderConfig(alg, 0.05)) for alg in _ALGS}


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(40)), st.integers(1, 40), st.sampled_from(_ALGS))
def test_permuted_batch_decodes_to_permuted_outputs(order, keep, alg):
    # trials leave the batch at different passes, so any reordering moves
    # the rows that the compaction drops and writes back
    g, sx, sz, whole = _shuffled()
    pick = np.array(order[:keep])
    got = decode_batch(g, sx[pick], sz[pick], DecoderConfig(alg, 0.05))
    for part, want in zip(got, whole[alg]):
        assert np.array_equal(part, want[pick])


# ── outputs pinned before the decoders were merged into one loop ──────

def _weight_two_patterns(n):
    cats = []
    for w in (1, 2):
        for support in combinations(range(n), w):
            for assign in product((1, 2, 3), repeat=w):
                c = np.zeros(n, np.int8)
                c[list(support)] = assign
                cats.append(c)
    return category_bits(np.stack(cats))


def _digest(out):
    h = hashlib.sha256()
    for a, dtype in zip(out, (np.uint8, np.uint8, np.bool_, np.int64)):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()[:16]


# (code (p, l1, l2), p_d, eta) -> per-algorithm digest of (est_x, est_z,
# conv, iters); eta None means every weight <= 2 pattern instead of 400
# trials sampled with master seed 0
_PINNED = {
    ((3, 1, 1), 0.03, None): ("6ae73dd23a7ac18b", "0fdd93a5f4c3ce1e"),
    ((5, 2, 2), 0.02, 0.0): ("8995e9372b060080", "ccd46e4bed1bcd1c"),
    ((5, 2, 2), 0.03, 0.5): ("e4307ed753763d67", "7d18e7097f9a979c"),
    ((7, 3, 3), 0.02, 0.0): ("9157842192369b59", "7069ceea8d525d76"),
    ((7, 3, 3), 0.03, 0.5): ("ebb0ef4c303de4d8", "2e59918bd3d4b1e8"),
}


@pytest.mark.parametrize(
    "case", list(_PINNED),
    ids=lambda c: f"n{c[0][0] ** 2}-pd{c[1]}-" + ("weight2" if c[2] is None else f"eta{c[2]}"))
def test_decoder_outputs_are_pinned(case):
    args, p_d, eta = case
    code = build_theorem5(*args)
    if eta is None:
        xs, zs = _weight_two_patterns(code.n)
    else:
        xs, zs = sample_error_batch(code.n, ChannelParams(p_d, eta), 0, 400)
    sx, sz = syndrome_batch(code, xs, zs)
    g = build_graphs(code)
    got = tuple(_digest(decode_batch(g, sx, sz, DecoderConfig(alg, p_d)))
                for alg in _ALGS)
    assert got == _PINNED[case]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_estimates_are_deterministic(nine, seed):
    code, _, g = nine
    sx, sz = syndrome_batch(code, *sample_error_batch(code.n, ChannelParams(0.1, 0.2), seed, 1))
    cfg = DecoderConfig("quaternary-spa", 0.1)
    a = decode_quaternary_batch(g, sx, sz, cfg)
    b = decode_quaternary_batch(g, sx, sz, cfg)
    assert all(np.array_equal(u, v) for u, v in zip(a, b))


# ── each distinct syndrome once, and tables of decoded syndromes ─────

def _repeated(code, trials=30, copies=120):
    """Syndromes of [[25,8;1]] at p_d 0.05 with repeats: every one of the
    first `trials` draws once, then `copies` more drawn from them."""
    sx, sz = syndrome_batch(code, *sample_error_batch(code.n, ChannelParams(0.05, 0.4), 77, trials))
    rng = np.random.default_rng(5)
    pick = rng.permutation(np.concatenate([np.arange(trials),
                                           rng.integers(0, trials, copies)]))
    return sx[pick], sz[pick]


def _flood_widths(monkeypatch):
    """Record the row count of each message-passing run from now on."""
    widths = []
    flood = decoder._flood

    def counted(g, rows, cfg, **kwargs):
        widths.append(len(rows))
        return flood(g, rows, cfg, **kwargs)

    monkeypatch.setattr(decoder, "_flood", counted)
    return widths


def _recorded_streams(monkeypatch):
    """Record each check block's stream that message passing makes from now on."""
    streams = []

    class Recorded(decoder._Stream):
        def __init__(self, *args):
            super().__init__(*args)
            streams.append(self)

    monkeypatch.setattr(decoder, "_Stream", Recorded)
    return streams


@pytest.mark.parametrize("alg", _ALGS)
def test_duplicated_syndromes_decode_as_each_trial_alone(twentyfive, alg, monkeypatch):
    code, _, g = twentyfive
    sx, sz = _repeated(code)
    cfg = DecoderConfig(alg, 0.05)
    rows = np.hstack([sx, sz])
    distinct = len(np.unique(rows, axis=0))
    widths = _flood_widths(monkeypatch)
    streams = _recorded_streams(monkeypatch)
    got = decode_batch(g, sx, sz, cfg)
    # one run over every row, whose blocks each stream their distinct
    # syndromes: the rows under quaternary-spa, the sx and sz halves under
    # binary-spa
    assert widths == [len(sx)] and distinct < len(sx)
    held = ([np.unique(sx, axis=0), np.unique(sz, axis=0)] if alg == "binary-spa"
            else [np.unique(rows, axis=0)])
    assert len(streams) == len(held)
    for st, want in zip(streams, held):
        assert np.array_equal(st.s.T, want)
    conv = got[2]
    assert (~conv).any() and conv.any()  # stalled syndromes repeat too
    stalled = rows[~conv]
    assert len(np.unique(stalled, axis=0)) < len(stalled)
    for t in range(len(sx)):
        alone = decode_batch(g, sx[t:t + 1], sz[t:t + 1], cfg)
        for part, want in zip(got, alone):
            assert np.array_equal(part[t], want[0])


def _table(g, sx, sz, cfg):
    """The table of one batch, as `harness._sweep_table` cuts a point's."""
    return SyndromeTable(g, cfg, np.hstack([sx, sz]), *decode_batch(g, sx, sz, cfg))


@pytest.mark.parametrize("alg", _ALGS)
def test_a_syndrome_table_answers_every_row_or_raises(twentyfive, alg, monkeypatch):
    # a table answers the batch whose rows it holds, in order, and no
    # other: a shorter, longer, reordered or other batch raises before any
    # decode, as does any nonempty batch given an empty table
    code, _, g = twentyfive
    sx, sz = _repeated(code)
    cfg = DecoderConfig(alg, 0.05)
    want = decode_batch(g, sx, sz, cfg)
    table, empty = _table(g, sx, sz, cfg), _table(g, sx[:0], sz[:0], cfg)
    other = syndrome_batch(code, *sample_error_batch(
        code.n, ChannelParams(0.05, 0.4), 78, len(sx)))
    flip = np.arange(len(sx))[::-1]
    assert not np.array_equal(np.hstack([sx, sz]), np.hstack([sx[flip], sz[flip]]))
    widths = _flood_widths(monkeypatch)
    got = decode_batch(g, sx, sz, cfg, known=table)
    for part, whole in zip(got, want):
        assert np.array_equal(part, whole)
    assert [part.shape for part in decode_batch(g, sx[:0], sz[:0], cfg, known=empty)] == [
        (0, code.n), (0, code.n), (0,), (0,)]
    for name, batch, known in (
            ("some", (sx[:40], sz[:40]), table),
            ("empty", (sx[:0], sz[:0]), table),
            ("longer", (np.vstack([sx, sx[:1]]), np.vstack([sz, sz[:1]])), table),
            ("reordered", (sx[flip], sz[flip]), table),
            ("another sample", other, table),
            ("any, from an empty table", (sx, sz), empty)):
        with pytest.raises(ValueError, match="another batch's syndromes"):
            decode_batch(g, *batch, cfg, known=known)
    assert widths == []


def _window_widths(monkeypatch):
    """Record the column count of each window the message passing makes
    from now on: its first, and each it shrinks to once the stream ends."""
    widths = []

    class Recorded(decoder._RuleScratch):
        def __init__(self, sign, dmax):
            widths.append(sign.shape[1])
            super().__init__(sign, dmax)

    monkeypatch.setattr(decoder, "_RuleScratch", Recorded)
    return widths


def _stream(code):
    """The distinct nonzero syndromes of 150 draws on [[25,8;1]] at p_d
    0.05, in a seeded order, with the zero syndrome put in at place 70."""
    sx, sz = syndrome_batch(code, *sample_error_batch(code.n, ChannelParams(0.05, 0.4), 9, 150))
    rows = np.unique(np.hstack([sx, sz]), axis=0)
    rows = rows[rows.any(axis=1)]
    return np.insert(rows[np.random.default_rng(3).permutation(len(rows))], 70, 0, axis=0)


@pytest.mark.parametrize("l_max", [1, 2, 100])
@pytest.mark.parametrize("alg", _ALGS)
def test_a_window_of_any_width_gives_equal_outputs(twentyfive, alg, l_max, monkeypatch):
    # a block that finishes takes the next syndrome of its stream in place.
    # The zero syndrome, past the first 64 rows, converges on the first
    # check of the column it refills, which then takes a row again; under
    # l_max 1 or 2 every column finishes within a pass or two of its
    # refill.  Quaternary streams the rows, binary each block the distinct
    # halves of its own syndromes, so its widest window is the larger
    # block's count of them
    code, _, g = twentyfive
    rows = _stream(code)
    cfg = DecoderConfig(alg, 0.05, l_max=l_max)
    want = decoder._flood(g, rows, cfg)
    assert len(rows) == 78 and np.flatnonzero(~rows.any(axis=1)).tolist() == [70]
    assert want[2][70] and want[3][70] == 0
    assert (~want[2]).any() and (want[2] & (want[3] > 0)).any()
    x = g.x_checks
    streamed = (max(len(np.unique(rows[:, :x], axis=0)), len(np.unique(rows[:, x:], axis=0)))
                if alg == "binary-spa" else len(rows))
    assert streamed == (48 if alg == "binary-spa" else 78)
    windows = _window_widths(monkeypatch)
    for width in (1, 7, 64, len(rows)):
        del windows[:]
        monkeypatch.setattr(decoder, "_WINDOW", width)
        got = decoder._flood(g, rows, cfg)
        assert max(windows) == min(width, streamed)
        for part, full in zip(got, want):
            assert np.array_equal(part, full), width


@pytest.mark.parametrize("alg, width, passes, columns", [
    ("binary-spa", 7, 313, 1978), ("binary-spa", 100, 101, 1978),
    ("quaternary-spa", 7, 422, 2512), ("quaternary-spa", 100, 101, 2512)])
def test_the_decode_work_of_a_stream_is_pinned(twentyfive, alg, width, passes, columns,
                                               monkeypatch):
    # the loop passes of the 78-row stream above at l_max 100, and the
    # window columns they sum: a turnover that adds a pass, or that keeps a
    # finished column, moves them.  Quaternary's one block holds a syndrome
    # in every column it sums, so its columns are its syndromes' passes,
    # iters + 1 each, at any width.  Every window keeps its trials on the
    # last, contiguous axis
    code, _, g = twentyfive
    rows = _stream(code)
    monkeypatch.setattr(decoder, "_WINDOW", width)
    column_sums, widths = decoder._column_sums, []

    def counted(mu, slots):
        assert mu.flags.c_contiguous
        widths.append(mu.shape[1])
        return column_sums(mu, slots)

    monkeypatch.setattr(decoder, "_column_sums", counted)
    iters = decoder._flood(g, rows, DecoderConfig(alg, 0.05, l_max=100))[3]
    assert (len(widths), sum(widths)) == (passes, columns)
    if alg == "quaternary-spa":
        assert columns == (iters + 1).sum()


@pytest.mark.parametrize("alg", _ALGS)
def test_a_syndrome_table_of_another_config_or_graph_raises(nine, twentyfive, alg,
                                                           monkeypatch):
    # the graph and config are checked before the rows, and before any decode
    code, _, g = twentyfive
    sx, sz = _repeated(code)
    cfg = DecoderConfig(alg, 0.05)
    table = _table(g, sx, sz, cfg)
    want = decode_batch(g, sx, sz, cfg)
    widths = _flood_widths(monkeypatch)
    other_alg = _ALGS[1 - _ALGS.index(alg)]
    for other in (DecoderConfig(alg, 0.04), DecoderConfig(alg, 0.05, l_max=99),
                  DecoderConfig(other_alg, 0.05)):
        with pytest.raises(ValueError, match="another graph or DecoderConfig"):
            decode_batch(g, sx, sz, other, known=table)
    nine_code, _, g9 = nine
    x9, z9 = syndrome_batch(nine_code, *sample_error_batch(9, ChannelParams(0.1, 0.0), 1, 5))
    with pytest.raises(ValueError, match="another graph or DecoderConfig"):
        decode_batch(g9, x9, z9, cfg, known=table)
    # a graph built again from the same code is the same graph
    again = decode_batch(build_graphs(code), sx, sz, cfg, known=table)
    for part, whole in zip(again, want):
        assert np.array_equal(part, whole)
    assert widths == []


# ── a scalar reference decoder ────────────────────────────────────────
#
# It decodes one trial at a time with plain loops over the checks and
# their edges, and shares no code with `eaqc.decoder`: it builds its own
# edge lists from hx and hz, and its own variable-to-check messages from
# the commutation class of each Pauli with each check.  Its sums and
# products run left to right, so its messages may differ from the
# vectorized ones in the last bits; the estimates, convergence flags and
# iteration counts must still be equal.

CLIP = 1.0 - 1e-12  # tanh-domain clip
CLAMP = 30.0  # message clamp


def _check_rule(m, syndrome_bit):
    """Outgoing messages of one check from its incoming messages m."""
    sign = -1.0 if syndrome_bit else 1.0
    d = len(m)
    t = [np.tanh(v / 2.0) for v in m]
    out = []
    for e in range(d):
        pe = 1.0
        for f in range(d):
            if f != e:
                pe *= t[f]
        pe = min(max(pe, -CLIP), CLIP)
        out.append(min(max(2.0 * sign * np.arctanh(pe), -CLAMP), CLAMP))
    return out


def _binary_block(rows, syndrome, n, prior, l_max):
    """One check block as a graph of its own: (bits, converged, iteration)."""
    mu = [[0.0] * len(cols) for cols in rows]
    into = [[] for _ in range(n)]  # (check, slot) of each edge into a bit
    for c, cols in enumerate(rows):
        for e, j in enumerate(cols):
            into[j].append((c, e))
    for it in range(l_max + 1):
        total = [prior + sum([mu[c][e] for c, e in into[j]]) for j in range(n)]
        bits = [1 if t < 0.0 else 0 for t in total]
        if all(sum(bits[j] for j in cols) % 2 == syndrome[c]
               for c, cols in enumerate(rows)):
            return bits, True, it
        if it == l_max:
            return bits, False, l_max
        mu = [_check_rule([total[j] - mu[c][e] for e, j in enumerate(cols)],
                          syndrome[c])
              for c, cols in enumerate(rows)]


def _fmax(a, b):
    """The Jacobian logarithm log(e^a + e^b)."""
    return max(a, b) + np.log1p(np.exp(-abs(a - b)))


def _quaternary(x_rows, z_rows, sx, sz, n, m0, l_max):
    # checks in [hx; hz] order: (is an X check, columns, syndrome bit)
    checks = ([(True, cols, s) for cols, s in zip(x_rows, sx)]
              + [(False, cols, s) for cols, s in zip(z_rows, sz)])
    mu = [[0.0] * len(cols) for _, cols, _ in checks]
    # per qubit, the edges of X checks (which Z and Y anticommute with)
    # and of Z checks (which X and Y anticommute with)
    from_x = [[] for _ in range(n)]
    from_z = [[] for _ in range(n)]
    for c, (is_x, cols, _) in enumerate(checks):
        for e, j in enumerate(cols):
            (from_x if is_x else from_z)[j].append((c, e))
    for it in range(l_max + 1):
        s_x = [sum([mu[c][e] for c, e in from_x[j]]) for j in range(n)]
        s_z = [sum([mu[c][e] for c, e in from_z[j]]) for j in range(n)]
        # log ratios against I: each anticommuting check subtracts its message
        lx = [m0 - s_z[j] for j in range(n)]
        lz = [m0 - s_x[j] for j in range(n)]
        ly = [lx[j] - s_x[j] for j in range(n)]
        cats = []
        for j in range(n):
            scores = (0.0, lx[j], ly[j], lz[j])  # I, X, Y, Z; ties go to I
            cats.append(scores.index(max(scores)))
        xb, zb = ([int(c in (1, 2)) for c in cats], [int(c in (2, 3)) for c in cats])
        if all(sum((zb if is_x else xb)[j] for j in cols) % 2 == s
               for is_x, cols, s in checks):
            return xb, zb, True, it
        if it == l_max:
            return xb, zb, False, l_max
        new = []
        for c, (is_x, cols, s) in enumerate(checks):
            m = []
            for e, j in enumerate(cols):
                # the pair commuting with the check against the other pair,
                # without this check's own message
                a, b = (lx[j], lz[j]) if is_x else (lz[j], lx[j])
                m.append(_fmax(0.0, a) - _fmax(ly[j] + mu[c][e], b + mu[c][e]))
            new.append(_check_rule(m, s))
        mu = new


def reference_decode(hx, hz, sx, sz, cfg):
    """(est_x, est_z, converged, iterations) of one trial."""
    n = hx.shape[1]
    x_rows = [list(np.flatnonzero(r)) for r in hx]
    z_rows = [list(np.flatnonzero(r)) for r in hz]
    p = min(max(cfg.p_d, 1e-12), 1.0 - 1e-12)
    if cfg.algorithm == "binary-spa":
        prior = float(np.log((1.0 - p) / p))
        # X checks explain the z bits from sx, Z checks the x bits from sz;
        # each block stops on its own syndrome
        zb, z_ok, z_it = _binary_block(x_rows, sx, n, prior, cfg.l_max)
        xb, x_ok, x_it = _binary_block(z_rows, sz, n, prior, cfg.l_max)
        return xb, zb, x_ok and z_ok, max(x_it, z_it)
    m0 = float(np.log(p / (3.0 * (1.0 - p))))
    return _quaternary(x_rows, z_rows, sx, sz, n, m0, cfg.l_max)


def _compare_dense(hx, hz, g, sx, sz, cfg):
    """Assert that decode_batch equals the reference on every row.

    Returns decode_batch's (est_x, est_z, conv, iters).
    """
    est_x, est_z, conv, iters = decode_batch(g, sx, sz, cfg)
    seen = {}
    for t in range(len(sx)):
        key = (sx[t].tobytes(), sz[t].tobytes())
        if key not in seen:
            seen[key] = reference_decode(hx, hz, list(sx[t]), list(sz[t]), cfg)
        got = (est_x[t].tolist(), est_z[t].tolist(), bool(conv[t]), int(iters[t]))
        assert got == seen[key], (cfg.algorithm, t)
    return est_x, est_z, conv, iters


def _compare(code, g, xs, zs, cfg):
    """_compare_dense on the syndromes of the errors xs, zs; returns conv, iters."""
    sx, sz = syndrome_batch(code, xs, zs)
    return _compare_dense(code.hx.to_dense(), code.hz.to_dense(), g, sx, sz, cfg)[2:]


@pytest.mark.parametrize("alg", _ALGS)
def test_flood_matches_the_reference_on_nine(nine, alg):
    # every weight <= 2 error of [[9,4;1]]: 351 patterns on 49 syndromes
    code, _, g = nine
    conv, _ = _compare(code, g, *_weight_two_patterns(code.n), DecoderConfig(alg, 0.03))
    assert (~conv).any() and conv.any()


@pytest.mark.parametrize("alg", _ALGS)
def test_flood_matches_the_reference_on_twentyfive(twentyfive, alg):
    # a seeded sample of [[25,8;1]] with stalled and late trials
    code, _, g = twentyfive
    xs, zs = sample_error_batch(code.n, ChannelParams(0.05, 0.4), 77, 40)
    conv, iters = _compare(code, g, xs, zs, DecoderConfig(alg, 0.05))
    assert (~conv).any() and (conv & (iters > 0)).any()


@pytest.mark.parametrize("alg", _ALGS)
def test_flood_matches_the_reference_in_a_window_of_three(twentyfive, alg, monkeypatch):
    # the sample above streamed through three columns, each refilled in
    # place as its row finishes
    code, _, g = twentyfive
    monkeypatch.setattr(decoder, "_WINDOW", 3)
    windows = _window_widths(monkeypatch)
    xs, zs = sample_error_batch(code.n, ChannelParams(0.05, 0.4), 77, 40)
    conv, iters = _compare(code, g, xs, zs, DecoderConfig(alg, 0.05))
    assert (~conv).any() and (conv & (iters > 0)).any() and max(windows) == 3


@pytest.mark.parametrize("alg", _ALGS)
@pytest.mark.parametrize("p, l", [(5, 2), (7, 3)])
def test_flood_matches_the_reference_as_each_block_streams_on_its_own(p, l, alg, monkeypatch):
    # the distinct syndromes of a seeded sample of [[25,8;1]] or
    # [[49,12;1]], in which some rows stall in their X checks alone and
    # others in their Z checks alone.  Under binary-spa each block streams
    # its own distinct halves, refills as they finish and, once its stream
    # is empty, packs its columns apart from the other block's
    code = build_theorem5(p, l, l)
    g = build_graphs(code)
    hx, hz = code.hx.to_dense(), code.hz.to_dense()
    sx, sz = syndrome_batch(code, *sample_error_batch(code.n, ChannelParams(0.05, 0.4), 9, 30))
    rows = np.unique(np.hstack([sx, sz]), axis=0)
    x = g.x_checks
    halves = [len(np.unique(rows[:, :x], axis=0)), len(np.unique(rows[:, x:], axis=0))]
    assert min(halves) < max(halves) < len(rows)  # rows share halves
    prior = float(np.log(0.95 / 0.05))
    met = [[_binary_block([list(np.flatnonzero(r)) for r in h], list(s), code.n, prior, 100)[1]
            for s in part] for h, part in ((hx, rows[:, :x]), (hz, rows[:, x:]))]
    x_met, z_met = np.array(met)
    assert (x_met & ~z_met).any() and (~x_met & z_met).any()
    cfg = DecoderConfig(alg, 0.05)
    want = [reference_decode(hx, hz, list(r[:x]), list(r[x:]), cfg) for r in rows]
    windows = _window_widths(monkeypatch)
    for width in (1, 3, 7, len(rows)):  # the last holds every row at once
        del windows[:]
        monkeypatch.setattr(decoder, "_WINDOW", width)
        est_x, est_z, conv, iters = decoder._flood(g, rows, cfg)
        got = [(a.tolist(), b.tolist(), bool(c), int(i))
               for a, b, c, i in zip(est_x, est_z, conv, iters)]
        assert got == want, width
        # the window shrinks as its blocks' streams run out (one of width
        # 1 ends at once)
        assert len(windows) > 1 or width == 1, width


@pytest.mark.parametrize("alg", _ALGS)
def test_flood_matches_the_reference_at_the_guards(twentyfive, alg):
    # at p_d 1e-11 the priors sit near the clip's bound of 28.3, so messages
    # saturate and the clip decides estimates (the reference's clamp of 30
    # must then agree with the decoder having none): 60 seeded weight-2
    # errors of [[25,8;1]]
    code, _, g = twentyfive
    xs, zs = _weight_two_patterns(code.n)
    pick = np.sort(np.random.default_rng(0).choice(np.arange(3 * code.n, len(xs)), 60,
                                                   replace=False))
    conv, _ = _compare(code, g, xs[pick], zs[pick], DecoderConfig(alg, 1e-11))
    assert (~conv).any()


# an irregular [hx; hz]: rows of weight 1 to 4 and qubit 7 in no check, so
# the graph has padded slots and no edge into either bit of qubit 7
_IRREGULAR_HX = np.array([[1, 1, 0, 0, 0, 0, 0, 0],
                          [0, 1, 1, 1, 0, 0, 0, 0],
                          [0, 0, 0, 1, 1, 1, 1, 0],
                          [1, 0, 0, 0, 0, 0, 0, 0]], np.uint8)
_IRREGULAR_HZ = np.array([[1, 0, 1, 0, 1, 0, 0, 0],
                          [0, 1, 0, 0, 0, 1, 0, 0],
                          [0, 0, 1, 1, 0, 0, 1, 0]], np.uint8)


def _compare_on_weight_two(hx, hz, cfg):
    """_compare_dense on _graph(hx, hz) and every weight <= 2 error.

    Some trials must stall and some converge after the first pass.
    Returns the estimates.
    """
    xs, zs = _weight_two_patterns(hx.shape[1])
    sx = (zs.astype(np.int64) @ hx.T % 2).astype(np.uint8)
    sz = (xs.astype(np.int64) @ hz.T % 2).astype(np.uint8)
    est_x, est_z, conv, iters = _compare_dense(hx, hz, _graph(hx, hz), sx, sz, cfg)
    assert (~conv).any() and (conv & (iters > 0)).any()
    return est_x, est_z


@pytest.mark.parametrize("alg", _ALGS)
def test_flood_matches_the_reference_on_an_irregular_graph(alg):
    hx, hz = _IRREGULAR_HX, _IRREGULAR_HZ
    g = _graph(hx, hz)
    # padded slots, and columns 7 and 15 (the x and z bits of qubit 7) sum
    # only the zero after the messages
    assert (g.idx == 16).any()
    assert np.flatnonzero(g.slots[0] == g.idx.size).tolist() == [7, 15]
    est_x, est_z = _compare_on_weight_two(hx, hz, DecoderConfig(alg, 0.1, l_max=30))
    assert not est_x[:, 7].any() and not est_z[:, 7].any()


def _heavy_columns():
    """[hx; hz] of weight-3 rows on 12 qubits: 10 X checks share qubit 0
    and 9 Z checks qubit 5."""
    n = 12
    hx, hz = np.zeros((10, n), np.uint8), np.zeros((9, n), np.uint8)
    for r in range(10):
        hx[r, [0, 1 + r, 1 + (r + 4) % 11]] = 1
    others = [q for q in range(n) if q != 5]
    for r in range(9):
        hz[r, [5, others[r], others[(r + 3) % 11]]] = 1
    return hx, hz


@pytest.mark.parametrize("alg", _ALGS)
def test_flood_matches_the_reference_on_columns_of_degree_nine_and_more(alg):
    # the z bit of qubit 0 sums 10 messages and the x bit of qubit 5 sums
    # 9, where numpy's reduceat would switch to its pairwise order
    hx, hz = _heavy_columns()
    g = _graph(hx, hz)
    degree = (g.slots != g.idx.size).sum(axis=0)
    assert degree[12] == 10 and degree[5] == 9 and np.sort(degree)[-3] < 9
    _compare_on_weight_two(hx, hz, DecoderConfig(alg, 0.1, l_max=30))
