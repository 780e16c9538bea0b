"""Trial runner, burst audits, and sweep output."""

import hashlib
import tracemalloc
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqc import decoder, harness
from eaqc.channel import ChannelParams, category_bits, sample_error_batch
from eaqc.clifford import logical_operators, symplectic_product
from eaqc.decoder import (
    DecoderConfig,
    _flood,
    build_graphs,
    decode_batch,
    decode_quaternary_batch,
    syndrome_batch,
)
from eaqc.eacode import _assemble, build_theorem5, build_theorem8
from eaqc.gf2 import DimensionMismatch, ModelMatrix
from eaqc.harness import (
    CSV_COLUMNS,
    BurstReport,
    BurstTooLarge,
    SimConfig,
    burst_oracle,
    min_weight_decoder,
    ml_coset_decoder,
    residual_in_group,
    run_trials,
    stabilizer_symplectic,
    sweep,
    wilson_interval,
    write_csv,
)


@pytest.fixture(scope="module")
def nine():
    return build_theorem5(3, 1, 1)


@pytest.fixture(scope="module")
def twentyfive():
    return build_theorem5(5, 2, 2)


@pytest.fixture(scope="module")
def fortynine():
    return build_theorem5(7, 3, 3)


# ── wilson intervals ──────────────────────────────────────────────────

def test_wilson_frozen_values():
    low, high = wilson_interval(5, 100)
    assert np.isclose(low, 0.02154336145631356)
    assert np.isclose(high, 0.11175196527208817)
    low0, high0 = wilson_interval(0, 100)
    assert low0 == 0.0 and np.isclose(high0, 0.03699480747600191)


def test_wilson_rejects_bad_input():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)


@given(st.integers(1, 2000), st.data())
def test_wilson_brackets_the_point_estimate(trials, data):
    failures = data.draw(st.integers(0, trials))
    low, high = wilson_interval(failures, trials)
    ph = failures / trials
    assert 0.0 <= low <= ph + 1e-12
    assert ph - 1e-12 <= high <= 1.0


# ── membership ────────────────────────────────────────────────────────

def test_stabilizer_rows_are_members(nine):
    basis = stabilizer_symplectic(nine)
    hx = nine.hx.to_dense()
    hz = nine.hz.to_dense()
    assert bool(np.all(residual_in_group(basis, nine, np.zeros_like(hx[0:1]), np.zeros_like(hz[0:1]))))
    # transmitted part of an X stabilizer with zero ebit residual is NOT
    # a member (the generator carries a one on its ebit coordinate)
    assert not residual_in_group(basis, nine, hx[0:1], np.zeros_like(hz[0:1]))[0]


def test_logical_is_not_member(nine):
    basis = stabilizer_symplectic(nine)
    x = np.zeros((1, 9), np.uint8)
    x[0, [5, 7]] = 1
    assert not residual_in_group(basis, nine, x, np.zeros_like(x))[0]
    sx, sz = syndrome_batch(nine, x, np.zeros_like(x))
    assert not sx.any() and not sz.any()


def test_successful_residuals_commute_with_extended_rows(twentyfive):
    code = twentyfive
    cfg = SimConfig(code, ChannelParams(0.03, 0.0),
                    DecoderConfig("quaternary-spa", 0.03), 50, 5)
    # the invariant behind membership: re-verify on a small manual run
    from eaqc.channel import sample_error_batch
    basis = stabilizer_symplectic(code)
    xs, zs = sample_error_batch(code.n, cfg.channel, 5, 50)
    sx, sz = syndrome_batch(code, xs, zs)
    ex, ez, conv, _ = decode_quaternary_batch(build_graphs(code), sx, sz, cfg.decoder)
    member = residual_in_group(basis, code, xs ^ ex, zs ^ ez)
    q = code.n + code.c
    hex_d = code.hex.to_dense()
    hez_d = code.hez.to_dense()
    for t in np.nonzero(member)[0]:
        rx = np.zeros(q, np.int64)
        rz = np.zeros(q, np.int64)
        rx[: code.n] = xs[t] ^ ex[t]
        rz[: code.n] = zs[t] ^ ez[t]
        assert not np.any((hex_d @ rz) % 2)
        assert not np.any((hez_d @ rx) % 2)


# ── run_trials ────────────────────────────────────────────────────────

def test_noiseless_channel_has_zero_ler(twentyfive):
    cfg = SimConfig(twentyfive, ChannelParams(0.0, 0.5),
                    DecoderConfig("binary-spa", 0.01), 200, 3)
    res = run_trials(cfg)
    assert res.failures == 0 and res.ler == 0.0 and res.non_converged == 0
    assert res.ci_low == 0.0 and res.ci_high > 0.0


def test_run_trials_is_deterministic(nine):
    cfg = SimConfig(nine, ChannelParams(0.05, 0.3),
                    DecoderConfig("quaternary-spa", 0.05), 300, 11)
    assert run_trials(cfg) == run_trials(cfg)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from(["binary-spa", "quaternary-spa"]))
def test_decode_chunks_do_not_change_the_result(twentyfive, seed, alg):
    # the byte budget sets the chunk size; 1, 7 and all trials per chunk
    # must give the same SimResult, stalled trials included
    trials = 40
    cfg = SimConfig(twentyfive, ChannelParams(0.06, 0.4), DecoderConfig(alg, 0.06),
                    trials, seed)
    per_trial = 8 * build_graphs(twentyfive).idx.size
    decode = harness.decode_batch
    results = []
    for size in (1, 7, trials):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return decode(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_DECODE_BYTES", size * per_trial)
            mp.setattr(harness, "decode_batch", counted)
            results.append(run_trials(cfg))
        assert len(calls) == -(-trials // size)
    assert results[0] == results[1] == results[2]


def test_point_memory_does_not_grow_with_trials():
    # sampling, syndromes, decoding and membership all run one chunk at a
    # time, so a point's peak is one chunk's (448 trials here)
    code = build_theorem8(6, 2)
    peaks = []
    for trials in (1000, 5000):
        cfg = SimConfig(code, ChannelParams(0.001, 0.0),
                        DecoderConfig("quaternary-spa", 0.001), trials, 0)
        tracemalloc.start()
        try:
            run_trials(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("alg", ["binary-spa", "quaternary-spa"])
@pytest.mark.parametrize("p, l", [(5, 2), (7, 3)])
def test_members_of_the_group_converged(p, l, alg):
    # run_trials counts a trial as failed when its residual is not a
    # member; that takes in every non-converged trial, whose residual has a
    # nonzero syndrome
    code = build_theorem5(p, l, l)
    xs, zs = sample_error_batch(code.n, ChannelParams(0.05, 0.5), 3, 400)
    sx, sz = syndrome_batch(code, xs, zs)
    est_x, est_z, conv, _ = decode_batch(build_graphs(code), sx, sz,
                                         DecoderConfig(alg, 0.05, l_max=20))
    member = residual_in_group(stabilizer_symplectic(code), code,
                               xs ^ est_x, zs ^ est_z)
    assert (~conv).any() and member.any()
    assert np.all(member <= conv)


def test_sweep_builds_each_code_setup_once(twentyfive, nine, monkeypatch):
    def grid(code):
        cfg = SimConfig(code, ChannelParams(0.02, 0.0),
                        DecoderConfig("quaternary-spa", 0.02), 40, 5)
        return sweep(cfg, (0.02, 0.04), (0.0, 0.5))

    grid(nine)  # whatever code an earlier test left cached, it is nine now
    calls = {"build_graphs": 0, "stabilizer_symplectic": 0}
    for name in calls:
        def counted(code, _fn=getattr(harness, name), _name=name):
            calls[_name] += 1
            return _fn(code)
        monkeypatch.setattr(harness, name, counted)

    def built():
        return calls["build_graphs"], calls["stabilizer_symplectic"]

    first = grid(twentyfive)
    assert built() == (1, 1)
    assert grid(twentyfive) == first  # the cached setup: no rebuild
    assert built() == (1, 1)
    grid(nine)  # a second code in between rebuilds
    assert grid(twentyfive) == first
    assert built() == (3, 3)
    monkeypatch.setattr(harness, "_decoding_setup",
                        harness._decoding_setup.__wrapped__)
    # every point built from scratch, and the sweep's syndrome table too
    assert grid(twentyfive) == first
    assert built() == (8, 8)


def test_ler_strictly_inside_unit_interval_at_moderate_noise(nine):
    cfg = SimConfig(nine, ChannelParams(0.03, 0.0),
                    DecoderConfig("quaternary-spa", 0.03), 500, 42)
    res = run_trials(cfg)
    assert 0.0 < res.ler < 1.0
    assert res.failures >= res.non_converged


def test_trials_validated(nine):
    with pytest.raises(ValueError):
        SimConfig(nine, ChannelParams(0.1, 0.0),
                  DecoderConfig("binary-spa", 0.1), 0, 1)


@pytest.mark.parametrize("trials, seed, error", [
    (100.0, 1, TypeError), (True, 1, TypeError), (10, 0.0, TypeError),
    (10, False, TypeError), (10, -1, ValueError),
])
def test_count_fields_fail_at_construction(nine, trials, seed, error):
    with pytest.raises(error):
        SimConfig(nine, ChannelParams(0.1, 0.0),
                  DecoderConfig("binary-spa", 0.1), trials, seed)


def test_numpy_counts_give_the_same_csv(nine):
    def csv_of(trials, seed):
        cfg = SimConfig(nine, ChannelParams(0.1, 0.0),
                        DecoderConfig("binary-spa", 0.1), trials, seed)
        assert type(cfg.trials) is int and type(cfg.master_seed) is int
        return write_csv(sweep(cfg, (0.1,), (0.0,)))

    assert csv_of(np.int64(30), np.uint32(4)) == csv_of(30, 4)


# ── the Pauli-pattern enumerator ──────────────────────────────────────

def _loop_patterns(n, supports, letters):
    """Categories of each support's assignments, as plain itertools loops."""
    rows = []
    for support in supports:
        for assignment in product(letters, repeat=len(support)):
            row = [0] * n
            for q, letter in zip(support, assignment):
                row[q] = letter
            rows.append(row)
    return np.array(rows, np.int8).reshape(-1, n)


@lru_cache
def _logicals(code):
    """(x | z) rows of Z1, X1, Z2, X2, ... on the n transmitted qubits."""
    n, q = code.n, code.n + code.c
    ops = logical_operators(code)[:, ::-1].reshape(-1, 2 * q)
    return np.hstack([ops[:, :n], ops[:, q:q + n]])


def _enumerate_against_loop(code, supports, letters):
    """_enumerate's rows, each column group checked against the loop's
    patterns pushed through category_bits, syndrome_batch and
    symplectic_product; compared bit by bit, since on [[49,12;1]] the
    syndrome and class columns are 66 bits, wider than one int64."""
    n = code.n
    rows = harness._letter_rows(code, _logicals(code))
    got = harness._enumerate(rows, supports, letters)
    cats = _loop_patterns(n, supports, letters)
    x, z = category_bits(cats)
    syn = np.hstack(syndrome_batch(code, x, z))
    assert got.dtype == np.uint8
    assert np.array_equal(got[:, :2 * n], np.hstack([x, z]))
    assert np.array_equal(got[:, 2 * n:2 * n + syn.shape[1]], syn)
    assert np.array_equal(got[:, 2 * n + syn.shape[1]:],
                          symplectic_product(np.hstack([x, z]), _logicals(code)))
    return got, cats


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_patterns_list_every_pauli_in_digit_order(nine, fortynine, n):
    for code in (nine, fortynine):
        _, cats = _enumerate_against_loop(code, [range(n - 1, -1, -1)], range(4))
        # row t is t in base 4 with qubit 0 the least significant digit
        digits = (np.arange(4 ** n)[:, None] >> (2 * np.arange(n))) & 3
        assert np.array_equal(cats[:, :n], digits) and not cats[:, n:].any()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.data())
def test_patterns_match_itertools_by_weight_and_window(nine, fortynine, n, data):
    w = data.draw(st.integers(1, min(n, 3)))
    for code in (nine, fortynine):
        qubits = data.draw(st.lists(st.integers(0, code.n - 1), min_size=n,
                                    max_size=n, unique=True))
        supports = data.draw(st.permutations(list(combinations(qubits, w))))
        _enumerate_against_loop(code, supports, (1, 2, 3))
        windows = [range(s, s + w) for s in range(code.n - w + 1)]
        got, cats = _enumerate_against_loop(code, windows, range(4))
        # repeats removed in first-occurrence order, as burst_oracle does
        seen = np.array(list(dict.fromkeys(map(tuple, cats.tolist()))), np.int8)
        kept = got[harness._first_rows(got[:, :2 * code.n])]
        assert np.array_equal(kept[:, :2 * code.n], np.hstack(category_bits(seen)))


def _min_weight_reference(code, syndromes):
    """The per-support loop min_weight_decoder used before the enumerator."""
    n = code.n
    needed = set(syndromes)
    table = {}
    zero = (np.zeros(code.hx.rows, np.uint8).tobytes(),
            np.zeros(code.hz.rows, np.uint8).tobytes())
    if zero in needed:
        table[zero] = (np.zeros(n, np.uint8), np.zeros(n, np.uint8))
        needed.discard(zero)
    for weight in range(1, n + 1):
        assignments = np.array(list(product((1, 2, 3), repeat=weight)), np.int8)
        for support in combinations(range(n), weight):
            cats = np.zeros((assignments.shape[0], n), np.int8)
            cats[:, support] = assignments
            x, z = category_bits(cats)
            sx, sz = syndrome_batch(code, x, z)
            for t in range(x.shape[0]):
                key = (sx[t].tobytes(), sz[t].tobytes())
                if key in needed:
                    table[key] = (x[t].copy(), z[t].copy())
                    needed.discard(key)
            if not needed:
                return table
    raise AssertionError("some syndromes are not reachable")


def _assert_same_table(got, want):
    assert list(got) == list(want)  # same keys in the same insertion order
    for key, (x, z) in want.items():
        assert np.array_equal(got[key][0], x) and np.array_equal(got[key][1], z)


@pytest.mark.parametrize("block", [1, 7, None])
def test_min_weight_matches_the_reference_on_every_syndrome(nine, monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(harness, "_PATTERN_BLOCK", block)
    keys = [(bytes(bits[:3]), bytes(bits[3:])) for bits in product((0, 1), repeat=6)]
    _assert_same_table(min_weight_decoder(nine, keys), _min_weight_reference(nine, keys))


def test_min_weight_matches_the_reference_on_window_two(twentyfive):
    x, z = category_bits(_loop_patterns(25, [range(s, s + 2) for s in range(24)], range(4)))
    sx, sz = syndrome_batch(twentyfive, x, z)
    keys = [(sx[t].tobytes(), sz[t].tobytes()) for t in range(len(x))]
    _assert_same_table(min_weight_decoder(twentyfive, keys),
                       _min_weight_reference(twentyfive, keys))


# ── oracles ───────────────────────────────────────────────────────────

def test_min_weight_table_returns_exact_singles(nine):
    # Y singles have unique syndromes, so the table must return them
    keys = []
    errors = []
    for i in range(9):
        x = np.zeros(9, np.uint8)
        z = np.zeros(9, np.uint8)
        x[i] = z[i] = 1
        sx, sz = syndrome_batch(nine, x[None], z[None])
        keys.append((sx[0].tobytes(), sz[0].tobytes()))
        errors.append((x, z))
    table = min_weight_decoder(nine, keys)
    for key, (x, z) in zip(keys, errors):
        tx, tz = table[key]
        assert np.array_equal(tx, x) and np.array_equal(tz, z)


def test_min_weight_rejects_malformed_syndromes(nine):
    # such keys match no pattern; they must fail before any enumeration
    for key in [(bytes(4), bytes(3)), (bytes(3), bytes(2)), (b"\x02\x00\x00", bytes(3))]:
        with pytest.raises(DimensionMismatch, match="expected 3 \\+ 3 bytes"):
            min_weight_decoder(nine, [key])


def test_min_weight_rejects_unreachable_syndromes(twentyfive, monkeypatch):
    # hx of [[25,8;1]] has rank 9 on 10 rows, so sx = e_0 is not hx·z for
    # any z; a sweep for it would run through all 4^25 patterns
    def no_enumeration(*args):
        raise AssertionError("enumerated patterns for an unreachable syndrome")

    monkeypatch.setattr(harness, "_enumerate", no_enumeration)
    sx = np.eye(1, twentyfive.hx.rows, dtype=np.uint8)[0]
    for key in [(sx.tobytes(), bytes(10)), (bytes(10), sx.tobytes())]:
        with pytest.raises(RuntimeError, match="not reachable"):
            min_weight_decoder(twentyfive, [key])


def test_min_weight_table_zero_syndrome_is_identity(nine):
    zero = (np.zeros(3, np.uint8).tobytes(), np.zeros(3, np.uint8).tobytes())
    table = min_weight_decoder(nine, [zero])
    tx, tz = table[zero]
    assert not tx.any() and not tz.any()


def test_ml_decoder_prefers_singles_cosets(nine):
    basis = stabilizer_symplectic(nine)
    table = ml_coset_decoder(nine, 0.03)
    assert len(table) == 64
    for i in range(9):
        x = np.zeros(9, np.uint8)
        z = np.zeros(9, np.uint8)
        x[i] = z[i] = 1
        sx, sz = syndrome_batch(nine, x[None], z[None])
        tx, tz = table[np.concatenate([sx[0], sz[0]]).tobytes()]
        assert residual_in_group(basis, nine, (x ^ tx)[None], (z ^ tz)[None])[0]


def test_ml_decoder_refuses_large_register(twentyfive):
    with pytest.raises(BurstTooLarge):
        ml_coset_decoder(twentyfive, 0.03)


@pytest.mark.parametrize("p_d", [float("nan"), -1.0, 2.0])
def test_ml_decoder_rejects_a_p_d_outside_the_unit_interval(nine, p_d, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("enumeration started")

    # the check comes before the letter table or any enumeration
    monkeypatch.setattr(harness, "_letter_rows", never)
    monkeypatch.setattr(harness, "_enumerate", never)
    with pytest.raises(ValueError, match="p_d must lie in"):
        ml_coset_decoder(nine, p_d)


# Recorded before the oracles shared one pattern enumerator: the window-3
# oracle failures of [[9,4;1]] in report order, and a digest of its p_d 0.03
# ML table (keys, representatives and key order).
_NINE_WINDOW3_FAILURES = (
    ((1,), (2,)), ((2,), (1,)), ((0,), (2,)), ((0, 1), (2,)),
    ((0, 1), (1, 2)), ((0,), (1,)), ((0, 2), (1,)), ((0, 2), (1, 2)),
)
_NINE_ML_DIGEST = "4b149e901c8448513f76c0d024a5feb8c546c9459665daaf9bb2eed900c8c8c7"


def test_ml_table_is_pinned(nine):
    digest = hashlib.sha256()
    for key, (x, z) in ml_coset_decoder(nine, 0.03).items():
        digest.update(key + x.tobytes() + z.tobytes())
    assert digest.hexdigest() == _NINE_ML_DIGEST


# Recorded from the sort-based ML oracle: its [[9,4;1]] table at p_d 0.6,
# which moves the representative of 7 of the 64 syndromes away from the
# p_d 0.03 table (every p_d from 0.03 to 0.5 gives the 0.03 table).
_NINE_ML_DIGEST_AT_0_6 = "22905df169ba3bf406914bff5f760f274f575ae65a3129ede67dc4e4b97ac05b"


def test_ml_table_is_pinned_at_a_second_p_d(nine):
    digest = hashlib.sha256()
    for key, (x, z) in ml_coset_decoder(nine, 0.6).items():
        digest.update(key + x.tobytes() + z.tobytes())
    assert digest.hexdigest() == _NINE_ML_DIGEST_AT_0_6


def _ml_reference(code, p_d):
    """The ML table by a plain loop over every error, its coset keyed by
    (syndrome bytes, class bytes); per syndrome, the coset last in
    (probability, class bytes) order, listed as syndromes first occur."""
    n = code.n
    cats = (np.arange(4 ** n)[:, None] >> (2 * np.arange(n))) & 3
    x, z = category_bits(cats)
    syn = np.hstack(syndrome_batch(code, x, z))
    cls = symplectic_product(np.hstack([x, z]), _logicals(code))
    weights = np.count_nonzero(x | z, axis=1)
    cosets = {}  # key -> (first error, count of each weight)
    for t, (s, c, w) in enumerate(zip(syn, cls, weights.tolist())):
        cosets.setdefault((s.tobytes(), c.tobytes()), (t, [0] * (n + 1)))[1][w] += 1
    p = min(max(p_d, 1e-12), 1 - 1e-12)
    ratio = (p / 3.0) / (1.0 - p)
    best = {}
    for (s, c), (first, counts) in cosets.items():
        prob = 0.0
        for w in range(n, -1, -1):
            prob = prob * ratio + counts[w]
        if s not in best or (prob, c) > best[s][:2]:
            best[s] = (prob, c, first)
    return {s: (x[t], z[t]) for s, (_, _, t) in best.items()}


@pytest.mark.parametrize("order,x_rows,z_rows,k", [
    (3, [[0, 1]] * 12 + [[0, 2]], [[0, 2]] * 12 + [[1, 1]], 0),
    (3, [[0, 1]] * 13, [[0, 0]] * 12 + [[0, 1]], 0),
    (2, [[0, 1, 1]] * 18 + [[1, 0, 1]], [[0, 0, 1]] * 18 + [[1, 1, 0]], 3),
], ids=["k0-two-new-rows", "k0-one-new-row", "k3"])
def test_ml_matches_the_reference_past_one_word_of_syndrome(order, x_rows, z_rows, k):
    # 76-78 checks on 6 qubits, most of them repeats: the syndrome is wider
    # than one uint64, and the last block-row of hz, past bit 64, is new
    code = _assemble("tiled", ModelMatrix(order, np.array(x_rows)),
                     ModelMatrix(order, np.array(z_rows)), min_floor=4)
    assert code.hx.rows + code.hz.rows > 64 and code.n == 6 and code.k == k
    for p_d in (0.03, 0.6):
        _assert_same_table(ml_coset_decoder(code, p_d), _ml_reference(code, p_d))


def _window_widths(monkeypatch):
    """Record the column count of each window the message passing makes
    from now on: its first, and each it shrinks to."""
    widths = []

    class Recorded(decoder._RuleScratch):
        def __init__(self, sign, dmax):
            widths.append(sign.shape[1])
            super().__init__(sign, dmax)

    monkeypatch.setattr(decoder, "_RuleScratch", Recorded)
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


def test_burst_oracle_decodes_each_distinct_syndrome_once(nine, monkeypatch):
    calls, floods = [], []

    def recorded(graph, sx, sz, cfg):
        calls.append((sx, sz, decode_batch(graph, sx, sz, cfg)))
        return calls[-1][2]

    def flood(graph, rows, cfg):
        floods.append(rows.copy())
        return _flood(graph, rows, cfg)

    monkeypatch.setattr(harness, "decode_batch", recorded)
    monkeypatch.setattr(decoder, "_flood", flood)
    windows = _window_widths(monkeypatch)
    streams = _recorded_streams(monkeypatch)
    rep = burst_oracle(nine, 3)
    (got_sx, got_sz, (dx, dz, conv, _)), = calls
    # every window-3 pattern but the identity, repeats removed in order
    cats = _loop_patterns(9, [range(s, s + 3) for s in range(7)], range(4))
    cats = np.array(list(dict.fromkeys(map(tuple, cats.tolist())))[1:], np.int8)
    sx, sz = syndrome_batch(nine, *category_bits(cats))
    assert len(cats) == rep.patterns == 351
    assert np.array_equal(got_sx, sx) and np.array_equal(got_sz, sz)
    # one message-passing run over every pattern's syndrome, whose one block
    # streams the 64 distinct syndromes in one window of them all (fewer
    # than decoder._WINDOW), so no column is refilled
    (rows,), (stream,) = floods, streams
    assert np.array_equal(rows, np.hstack([sx, sz]))
    assert windows[0] == 64 < decoder._WINDOW
    held = stream.s.T
    assert len(held) == len({r.tobytes() for r in held}) == 64
    assert {r.tobytes() for r in held} == {r.tobytes() for r in rows}
    # each pattern gets what decoding it alone gives
    g, cfg = build_graphs(nine), DecoderConfig("quaternary-spa", 0.03)
    for t in range(351):
        alone = decode_batch(g, sx[t:t + 1], sz[t:t + 1], cfg)
        for got, want in zip((dx, dz, conv), alone):
            assert np.array_equal(got[t], want[0])


def test_burst_oracle_failures_are_pinned(nine):
    assert burst_oracle(nine, 3).oracle_failures == _NINE_WINDOW3_FAILURES


def test_a_burst_oracle_decode_keeps_to_the_window(nine, monkeypatch):
    # the 64 distinct syndromes of the window-3 audit stream through five
    # columns, refilled as they finish, and the report stays the same
    want = burst_oracle(nine, 3)
    monkeypatch.setattr(decoder, "_WINDOW", 5)
    windows = _window_widths(monkeypatch)
    got = burst_oracle(nine, 3)
    assert windows[0] == max(windows) == 5
    assert got == want
    assert got.patterns == 351 and got.oracle_failures == _NINE_WINDOW3_FAILURES


# ── burst audits ──────────────────────────────────────────────────────

def test_burst_window_three_frozen_counts(nine):
    rep = burst_oracle(nine, 3)
    assert rep.windows == 7
    assert rep.patterns == 351
    assert rep.oracle_corrected == 51
    assert rep.spa_corrected == 9
    assert 0.0 < rep.oracle_fraction < 1.0
    assert rep.spa_fraction <= rep.oracle_fraction


def test_burst_zero_is_vacuously_perfect(nine):
    rep = burst_oracle(nine, 0)
    assert rep.patterns == 0
    assert rep.oracle_fraction == 1.0 and rep.spa_fraction == 1.0


def test_burst_refusal_with_count(twentyfive):
    with pytest.raises(BurstTooLarge) as err:
        burst_oracle(twentyfive, 10)
    assert err.value.count == 16 * (4 ** 10 - 1)
    assert "refus" in str(err.value) or "limit" in str(err.value)


def test_burst_rejects_oversized_window(nine):
    with pytest.raises(ValueError):
        burst_oracle(nine, 10)


def test_burst_length_is_an_integer_count(nine, monkeypatch):
    got = burst_oracle(nine, np.int64(2))
    assert got == burst_oracle(nine, 2) and type(got.burst_len) is int

    def refused(*args):
        raise AssertionError("patterns enumerated")

    monkeypatch.setattr(harness, "_enumerate", refused)
    for value in (True, 2.0):
        with pytest.raises(TypeError, match="burst length must be an integer"):
            burst_oracle(nine, value)


def test_zero_syndrome_logical_defeats_the_window_oracle(nine):
    # the weight-2 x pattern on qubits 5 and 7 sits inside a length-3
    # window, has zero syndrome, and is not a stabilizer, so the oracle
    # returns identity and the residual is a logical
    basis = stabilizer_symplectic(nine)
    x = np.zeros((1, 9), np.uint8)
    x[0, [5, 7]] = 1
    assert not residual_in_group(basis, nine, x, np.zeros_like(x))[0]
    rep = burst_oracle(nine, 3)
    assert rep.oracle_corrected < rep.patterns


# ── sweeps ────────────────────────────────────────────────────────────

def test_sweep_grid_and_csv(twentyfive):
    cfg = SimConfig(twentyfive, ChannelParams(0.02, 0.0),
                    DecoderConfig("quaternary-spa", 0.02), 60, 9)
    rows = sweep(cfg, (0.02, 0.04), (0.0, 0.5))
    assert len(rows) == 4
    assert [(r["p_d"], r["eta"]) for r in rows] == [
        (0.02, 0.0), (0.02, 0.5), (0.04, 0.0), (0.04, 0.5)
    ]
    for r in rows:
        assert r["family"] == "theorem5"
        assert (r["n"], r["k"], r["c"]) == (25, 8, 1)
        assert r["decoder"] == "quaternary-spa"
        assert r["seed"] == 9
        assert r["ci_low"] <= r["LER"] <= r["ci_high"]
    text = write_csv(rows)
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(text.splitlines()) == 5


def test_sweep_without_axes_is_an_error(nine):
    cfg = SimConfig(nine, ChannelParams(0.02, 0.0),
                    DecoderConfig("quaternary-spa", 0.02), 10, 1)
    for pd_values, eta_values in (((), ()), ((), (0.0,)), ((0.02,), ())):
        with pytest.raises(ValueError):
            sweep(cfg, pd_values, eta_values)


def test_a_sweep_reads_generator_axes_as_tuples(twentyfive):
    cfg = SimConfig(twentyfive, ChannelParams(0.02, 0.0),
                    DecoderConfig("quaternary-spa", 0.02), 20, 4)
    pds, etas = (0.02, 0.04), (0.0, 0.5)
    rows = sweep(cfg, (p for p in pds), (e for e in etas))
    assert len(rows) == 4 and rows == sweep(cfg, pds, etas)
    with pytest.raises(ValueError, match="at least one p_d and one eta"):
        sweep(cfg, (p for p in ()), etas)


def test_sweep_is_byte_reproducible(nine):
    cfg = SimConfig(nine, ChannelParams(0.03, 0.0),
                    DecoderConfig("quaternary-spa", 0.03), 150, 21)
    text = write_csv(sweep(cfg, (0.02, 0.03), (0.0,)))
    assert text == write_csv(sweep(cfg, (0.02, 0.03), (0.0,)))


def _recorded_results(monkeypatch):
    """Record the SimResult of each run_trials call from now on."""
    results = []
    run = harness.run_trials

    def recorded(*args):
        results.append(run(*args))
        return results[-1]

    monkeypatch.setattr(harness, "run_trials", recorded)
    return results


def _recorded_decodes(monkeypatch):
    """Record each decode_batch call the harness makes from now on: its
    [sx | sz] rows, its table (None when it has none) and its outputs."""
    calls = []
    decode = harness.decode_batch

    def recorded(graph, sx, sz, cfg, *, known=None):
        out = decode(graph, sx, sz, cfg, known=known)
        calls.append((np.hstack([sx, sz]), known, out))
        return out

    monkeypatch.setattr(harness, "decode_batch", recorded)
    return calls


def _flood_runs(monkeypatch):
    """Record the rows of each message-passing run from now on."""
    flood, runs = decoder._flood, []

    def counted(g, rows, cfg):
        runs.append(rows)
        return flood(g, rows, cfg)

    monkeypatch.setattr(decoder, "_flood", counted)
    return runs


@pytest.mark.parametrize("alg", ["binary-spa", "quaternary-spa"])
def test_a_sweep_gives_equal_rows_with_and_without_its_syndrome_table(
        twentyfive, alg, monkeypatch):
    trials = 40
    cfg = SimConfig(twentyfive, ChannelParams(0.05, 0.0), DecoderConfig(alg, 0.05),
                    trials, 13)
    pds, etas = (0.04, 0.07), (0.0, 0.5)
    calls = _recorded_decodes(monkeypatch)
    results = _recorded_results(monkeypatch)
    shared = sweep(cfg, pds, etas)
    # one call without a table decodes the four points' rows, then each
    # point reads its own table
    union = [out for _, known, out in calls if known is None]
    assert len(union) == 1 and len(calls) == 5
    shared_results = results[:]
    # one trial short of the four points: each runs alone, in one chunk
    per_trial = 8 * build_graphs(twentyfive).idx.size
    monkeypatch.setattr(harness, "_DECODE_BYTES", (4 * trials - 1) * per_trial)
    del results[:], calls[:]
    alone = sweep(cfg, pds, etas)
    assert [(len(rows), known) for rows, known, _ in calls] == [(trials, None)] * 4
    assert shared == alone and write_csv(shared) == write_csv(alone)
    assert shared_results == results and len(results) == 4
    assert any(r["non_converged"] for r in shared)
    assert (~union[0][2]).any()  # the union holds stalled syndromes


@pytest.mark.parametrize("alg", ["binary-spa", "quaternary-spa"])
def test_a_one_chunk_sweep_decodes_its_rows_in_one_call_and_reads_them_by_position(
        twentyfive, alg, monkeypatch):
    # the one call without a table takes every point's rows in point order,
    # points x trials of them, in one run; each point's table holds its own
    # rows and their outputs, and another point's batch raises before any run
    trials = 30
    cfg = SimConfig(twentyfive, ChannelParams(0.05, 0.0), DecoderConfig(alg, 0.05),
                    trials, 13)
    calls = _recorded_decodes(monkeypatch)
    runs = _flood_runs(monkeypatch)
    sweep(cfg, (0.04, 0.07), (0.0, 0.5, 0.9))
    (union, none, outputs), *points = calls
    assert none is None and len(union) == 6 * trials and len(points) == 6
    assert [len(rows) for rows in runs] == [6 * trials]
    assert np.array_equal(union, np.vstack([rows for rows, _, _ in points]))
    for i, (rows, known, got) in enumerate(points):
        at = slice(i * trials, (i + 1) * trials)
        assert np.array_equal(known.rows, rows)
        for part, whole in zip(got, outputs):
            assert np.array_equal(part, whole[at])
    graph, x = build_graphs(twentyfive), twentyfive.hx.rows
    first, (second, _, _) = points[0][1], points[1]
    assert not np.array_equal(first.rows, second)
    with pytest.raises(ValueError, match="another batch's syndromes"):
        decode_batch(graph, second[:, :x], second[:, x:], cfg.decoder, known=first)
    assert len(runs) == 1


def test_a_sweep_syndrome_table_decodes_within_the_window(fortynine, monkeypatch):
    # the four points' rows hold more distinct syndromes than the decoder's
    # window, at a trial count other than the window's, yet decode in one
    # run whose every pass sums the messages of at most decoder._WINDOW
    # columns, and whose every window's arrays are that narrow
    trials = 60
    cfg = SimConfig(fortynine, ChannelParams(0.03, 0.5),
                    DecoderConfig("quaternary-spa", 0.03), trials, 0)
    runs = _flood_runs(monkeypatch)
    column_sums, passes = decoder._column_sums, []

    def measured(mu, slots):
        passes.append(mu.shape[1])
        return column_sums(mu, slots)

    monkeypatch.setattr(decoder, "_column_sums", measured)
    windows = _window_widths(monkeypatch)
    sweep(cfg, (0.02, 0.03), (0.0, 0.5))
    (rows,) = runs
    distinct = len(np.unique(rows, axis=0))
    assert trials != decoder._WINDOW < distinct <= len(rows) == 4 * trials
    assert max(passes) == max(windows) == decoder._WINDOW
