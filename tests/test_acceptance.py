"""Acceptance gate: one test per primary criterion, one verdict line each.

Every test prints `[criterion NN] PASS/FAIL: detail` before asserting, so
the log carries the measured numbers even when a criterion cannot be met.

Criteria 07 and 09 were first stated as claims about [[9,4;1]] that the
exhaustive oracles refute, and they now assert what the oracles prove
instead; their verdict lines still quote the original claim next to the
measured ceiling.  The code has distance 2 (every qubit has degree 1 in
each Tanner graph), so its 27 single errors give only 15 distinct
syndromes and no decoder corrects more than 15/27.  At p_d 0.03, 52 of the
64 syndromes have two or more equally likely cosets, so "matching ML" on
them only compares against the table's tie-break.  Of the 351 window-3
burst patterns, at most 65 are correctable by any decoder: X on {5, 7}
lies in a window, has zero syndrome and is a logical operator.  Criterion
07 therefore checks the 15-single ceiling, the unshared singles, and
agreement with the unique most-likely coset where one exists; criterion 09
checks the window ceiling, the witness, and a window-1 positive control
on [[25,8;1]], where every single error is correctable.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from eaqc.channel import ChannelParams, category_bits
from eaqc.clifford import (
    conjugate,
    group_preserved,
    h_s_cz,
    hadamard_swap,
    logical_action,
    logical_operators,
    s_cz,
    stabilizer_matrix,
    symplectic_product,
)
from eaqc.decoder import DecoderConfig, build_graphs, decode_batch
from eaqc.eacode import (
    build_theorem5,
    build_theorem6,
    build_theorem7,
    build_theorem8,
    build_theorem9,
    build_theorem10,
)
from eaqc.gf2 import BinaryMatrix, ModelMatrix, expand, gfrank, matmul
from eaqc.girth import girth_bfs, has_four_cycle, has_six_cycle
from eaqc.harness import (
    SimConfig,
    burst_oracle,
    min_weight_decoder,
    ml_coset_decoder,
    residual_in_group,
    run_trials,
    stabilizer_symplectic,
    sweep,
    write_csv,
)
from eaqc.models import (
    special_prime_model,
    theorem5_selection,
    theorem6_models,
    theorem7_model,
    theorem8_model,
    theorem9_model,
    theorem10_model,
)
from paulis import PauliVector, logical_stack


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    return line


def _syndromes(code, x, z):
    hx = code.hx.to_dense().astype(np.int64)
    hz = code.hz.to_dense().astype(np.int64)
    sx = ((z.astype(np.int64) @ hx.T) % 2).astype(np.uint8)
    sz = ((x.astype(np.int64) @ hz.T) % 2).astype(np.uint8)
    return sx, sz


def _coset_keys(code, x, z):
    """(syndrome, logical class) of each row, each packed into one integer.

    Two errors differ by an element of the extended stabilizer group
    exactly when both integers agree.
    """
    sx, sz = _syndromes(code, x, z)
    syn = np.concatenate([sx, sz], axis=1).astype(np.int64)
    # the logical class: forms with Z1, X1, Z2, X2, ... on the n qubits
    n, q = code.n, code.n + code.c
    ops = logical_operators(code)[:, ::-1].reshape(-1, 2 * q)
    logicals = np.hstack([ops[:, :n], ops[:, q:q + n]])
    cls = symplectic_product(np.hstack([x, z]), logicals)
    return syn @ (1 << np.arange(syn.shape[1])), cls @ (1 << np.arange(cls.shape[1]))


def _ceiling(syn, cls):
    """Most of these patterns that any decoder can correct.

    A decoder returns one coset per syndrome, so per syndrome it corrects
    at most the largest group of patterns sharing a logical class.
    """
    pairs, counts = np.unique(np.stack([syn, cls], axis=1), axis=0,
                              return_counts=True)
    best = np.zeros(int(syn.max()) + 1, np.int64)
    np.maximum.at(best, pairs[:, 0], counts)
    return int(best.sum())


def _coset_weight_enumerators(code):
    """A[s, c, w]: how many Paulis of weight w have syndrome s and class c.

    One vectorised pass over all 4^n Paulis; only for tiny codes.
    """
    n = code.n
    digits = np.arange(4 ** n, dtype=np.int64)
    cats = ((digits[:, None] >> (2 * np.arange(n))) & 3).astype(np.int8)
    x, z = category_bits(cats)
    syn, cls = _coset_keys(code, x, z)
    shape = (1 << (code.hx.shape[0] + code.hz.shape[0]), 1 << (2 * code.k), n + 1)
    flat = (syn * shape[1] + cls) * shape[2] + np.count_nonzero(cats, axis=1)
    return np.bincount(flat, minlength=shape[0] * shape[1] * shape[2]).reshape(shape)


def _table_cosets(code, table):
    """Key syndrome, representative syndrome, class and support per entry
    of an oracle table; syndromes and classes packed as in _coset_keys."""
    bits = np.stack([np.frombuffer(k if isinstance(k, bytes) else b"".join(k),
                                   np.uint8) for k in table]).astype(np.int64)
    rep_x, rep_z = (np.stack(v) for v in zip(*table.values()))
    rep_syn, rep_cls = _coset_keys(code, rep_x, rep_z)
    return bits @ (1 << np.arange(bits.shape[1])), rep_syn, rep_cls, rep_x | rep_z


def _window_patterns(n, burst_len):
    """Every nonzero Pauli pattern confined to burst_len consecutive qubits."""
    found = {}
    for start in range(n - burst_len + 1):
        for assign in product(range(4), repeat=burst_len):
            if any(assign):
                cats = np.zeros(n, np.int8)
                cats[start : start + burst_len] = assign
                found.setdefault(cats.tobytes(), cats)
    return np.stack(list(found.values()))


def test_criterion_01_prime_submodel_rank_formula():
    t0 = time.perf_counter()
    bad = []
    for p in (3, 5, 7, 11):
        m = special_prime_model(p)
        for k in range(1, p + 1):
            got = gfrank(expand(m.row_submodel(range(k))))
            want = p + (k - 1) * (p - 1)
            if got != want:
                bad.append((p, k, got, want))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0
    _verdict(1, ok, f"rank law over p in {{3,5,7,11}}, all k; "
                    f"mismatches={bad}, {elapsed:.2f}s (< 5s)")
    assert not bad
    assert elapsed < 5.0


def test_criterion_02_all_ones_plus_identity_rank():
    bad = []
    for p in (5, 7, 11, 13, 17):
        dense = (np.ones((p, p), np.uint8) + np.eye(p, dtype=np.uint8)) % 2
        got = gfrank(BinaryMatrix.from_dense(dense))
        if got != p - 1:
            bad.append((p, got))
    _verdict(2, not bad, f"gfrank(J_p + I_p) = p - 1 for p in {{5,7,11,13,17}}; "
                         f"mismatches={bad}")
    assert not bad


def test_criterion_03_small_code_parameters():
    cases = [
        (build_theorem5(3, 1, 1), (9, 4, 1)),
        (build_theorem5(5, 2, 2), (25, 8, 1)),
        (build_theorem5(7, 3, 3), (49, 12, 1)),
        (build_theorem6(7, 3, 3), (42, 10, 6)),
        (build_theorem7(11, 5), (121, 70, 51)),
    ]
    bad = []
    for code, want in cases:
        got = (code.n, code.k, code.c)
        c_direct = gfrank(matmul(code.hx, code.hz.transpose()))
        commuting = gfrank(matmul(code.hex, code.hez.transpose())) == 0
        prod_zero = not matmul(code.hex, code.hez.transpose()).to_dense().any()
        if got != want or c_direct != code.c or not commuting or not prod_zero:
            bad.append((code.family, got, want, c_direct, commuting))
    _verdict(3, not bad,
             "[[9,4;1]] [[25,8;1]] [[49,12;1]] [[42,10;6]] [[121,70;51]] with "
             f"c = gfrank(hx hz^T) and hex hez^T = 0 bit-exact; mismatches={bad}")
    assert not bad


def test_criterion_04_geometric_instance_ranks():
    t0 = time.perf_counter()
    code = build_theorem8(6, 2)
    rank_h = gfrank(code.hx)
    elapsed = time.perf_counter() - t0
    got = (code.n, code.k, code.c, rank_h)
    ok = got == (390, 132, 128, 193) and elapsed < 60.0
    _verdict(4, ok, f"l=6 w=2: n={code.n}, gfrank(H)={rank_h} (= 193), "
                    f"c={code.c} (<= 193), k={code.k}; {elapsed:.1f}s (< 60s)")
    assert rank_h <= 193 and code.c <= 193
    assert got == (390, 132, 128, 193)
    assert elapsed < 60.0


@pytest.mark.girth
def test_criterion_05_girth_bfs_and_model_tests():
    above4 = []
    for p, l in ((3, 1), (5, 2), (7, 3), (11, 5), (13, 6)):
        mx, mz = theorem5_selection(p, l, l)
        above4.append(("theorem5", p, girth_bfs(expand(mx.vstack(mz)), cap=8)))
    for p, l in ((7, 3), (11, 5)):
        mx, mz = theorem6_models(p, l, l)
        above4.append(("theorem6", p, girth_bfs(expand(mx.vstack(mz)), cap=8)))
    for p, l in ((11, 5), (13, 6)):
        above4.append(("theorem7", p, girth_bfs(expand(theorem7_model(p, l)), cap=8)))
    above6 = [
        ("theorem8", girth_bfs(expand(theorem8_model(6, 2)), cap=8)),
        ("theorem9", girth_bfs(
            expand(theorem9_model((2, 4, 6), 2, enforce_scale=False)), cap=8)),
        ("theorem10", girth_bfs(
            expand(theorem10_model((2, 4, 6), 2, enforce_scale=False)), cap=8)),
    ]
    bad4 = [row for row in above4 if not row[2] > 4]
    bad6 = [row for row in above6 if not row[1] > 6]

    rng = np.random.default_rng(0)
    disagreements = []
    floors_seen = {4: 0, 6: 0, 8: 0}
    for i in range(200):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(2, 9))
        order = int(rng.integers(2, 66))
        m = ModelMatrix(order, rng.integers(0, order, (rows, cols)))
        floor = 4 if has_four_cycle(m) else (6 if has_six_cycle(m) else 8)
        floors_seen[floor] += 1
        g = girth_bfs(expand(m), cap=8)
        agree = (g == floor) if floor in (4, 6) else g >= 8
        if not agree:
            disagreements.append((i, order, rows, cols, floor, g))
    ok = not bad4 and not bad6 and not disagreements
    _verdict(5, ok, f"girth > 4 on {len(above4)} small graphs, > 6 on 3 large; "
                    f"200 random models agree with BFS (floors {floors_seen}); "
                    f"bad={bad4 + bad6 + disagreements}")
    assert not bad4 and not bad6
    assert not disagreements


def _frozen_logicals():
    mk = PauliVector.from_support
    return logical_stack([
        (mk(10, x_on=[2, 3, 4, 5, 7, 8]), mk(10, z_on=[0, 8])),
        (mk(10, x_on=[2, 4, 5, 7]), mk(10, z_on=[0, 1, 2, 5, 7, 8])),
        (mk(10, x_on=[4, 6]), mk(10, z_on=[1, 6])),
        (mk(10, x_on=[5, 7]), mk(10, z_on=[2, 7])),
    ])


def test_criterion_06_transversal_operators():
    t0 = time.perf_counter()
    not_preserved = []
    for p in (3, 5, 7):
        t = stabilizer_matrix(p)
        for name, seq in (("hadamard_swap", hadamard_swap(p)),
                          ("s_cz", s_cz(p)), ("h_s_cz", h_s_cz(p))):
            if not group_preserved(t, conjugate(t, seq)):
                not_preserved.append((p, name))

    t3 = stabilizer_matrix(3)
    before = t3.rows
    # swap layer: X and Z banks trade places bodily, no signs picked up
    after_hs = conjugate(t3, hadamard_swap(3))
    perm = [3, 4, 5, 0, 1, 2]
    hs_exact = np.array_equal(after_hs.rows, before[perm])
    hs_signs = not after_hs.phases.any()
    # phase/CZ layer: X generators gain the z support of their Z partner,
    # Z generators are fixed
    after_sc = conjugate(t3, s_cz(3))
    expected = before.copy()
    expected[:3, 10:] ^= before[3:, 10:]
    sc_exact = np.array_equal(after_sc.rows, expected)
    sc_signs = not after_sc.phases.any()

    logs = _frozen_logicals()
    tables_ok = (
        logical_action(t3, logs, hadamard_swap(3)) == {
            "X1": ("Z1",), "Z1": ("X1",),
            "X2": ("Z2", "Z3", "Z4"), "Z2": ("X2", "X3", "X4"),
            "X3": ("Z2", "Z4"), "Z3": ("X2", "X3"),
            "X4": ("Z2", "Z3"), "Z4": ("X2", "X4"),
        }
        and logical_action(t3, logs, s_cz(3)) == {
            "X1": ("X1", "Z1"), "Z1": ("Z1",),
            "X2": ("X2", "Z2", "Z3", "Z4"), "Z2": ("Z2",),
            "X3": ("Z2", "X3", "Z4"), "Z3": ("Z3",),
            "X4": ("Z2", "Z3", "X4"), "Z4": ("Z4",),
        }
        and logical_action(t3, logs, h_s_cz(3)) == {
            "X1": ("X1",), "Z1": ("X1", "Z1"),
            "X2": ("X2",), "Z2": ("X2", "Z2", "X3", "X4"),
            "X3": ("X3",), "Z3": ("X2", "X3", "Z3"),
            "X4": ("X4",), "Z4": ("X2", "X4", "Z4"),
        }
    )
    elapsed = time.perf_counter() - t0
    ok = (not not_preserved and hs_exact and hs_signs and sc_exact
          and sc_signs and tables_ok and elapsed < 10.0)
    _verdict(6, ok, f"group preserved with +1 signs for p in {{3,5,7}} "
                    f"(failures={not_preserved}); p=3 conjugated matrices "
                    f"match expected images row-exactly "
                    f"(swap={hs_exact}/{hs_signs}, phase-cz={sc_exact}/{sc_signs}); "
                    f"logical tables={tables_ok}; {elapsed:.1f}s (< 10s)")
    assert not not_preserved
    assert hs_exact and hs_signs and sc_exact and sc_signs
    assert tables_ok
    assert elapsed < 10.0


def test_criterion_07_single_error_correction_and_ml_match():
    code = build_theorem5(3, 1, 1)
    n = code.n
    p_d = 0.03
    graph = build_graphs(code)
    basis = stabilizer_symplectic(code)

    pats = []
    for w in (1, 2):
        for support in combinations(range(n), w):
            for assign in product((1, 2, 3), repeat=w):
                cats = np.zeros(n, np.int8)
                cats[list(support)] = assign
                pats.append(cats)
    cats = np.stack(pats)
    x, z = category_bits(cats)
    sx, sz = _syndromes(code, x, z)
    syn, cls = _coset_keys(code, x, z)
    singles = np.count_nonzero(cats, axis=1) == 1

    # cosets tie exactly when their weight enumerators agree; the closest
    # untied pair here is 1.1e-6 apart relatively, far above rounding
    enum = _coset_weight_enumerators(code)
    weights = np.arange(n + 1)
    prob = enum @ ((p_d / 3) ** weights * (1 - p_d) ** (n - weights))
    top = enum[np.arange(len(enum)), prob.argmax(axis=1)]
    most_likely = (prob > 0) & (enum == top[:, None, :]).all(axis=2)
    reached = most_likely.any(axis=1)
    tied = most_likely.sum(axis=1) > 1
    untied = ~tied[syn]

    decoded = {}
    for alg in ("binary-spa", "quaternary-spa"):
        cfg = DecoderConfig(alg, p_d, l_max=100)
        ex, ez, conv, _ = decode_batch(graph, sx, sz, cfg)
        out_syn, out_cls = _coset_keys(code, ex, ez)
        decoded[alg] = (
            residual_in_group(basis, code, x ^ ex, z ^ ez) & conv,
            conv,
            (out_syn == syn) & most_likely[syn, out_cls],
        )
    bin_ok = decoded["binary-spa"][0]
    quat_ok, quat_conv, quat_in_ml = decoded["quaternary-spa"]

    ml = ml_coset_decoder(code, p_d)
    keys = np.concatenate([sx, sz], axis=1)
    ml_x = np.stack([ml[k.tobytes()][0] for k in keys])
    ml_z = np.stack([ml[k.tobytes()][1] for k in keys])
    ml_ok = residual_in_group(basis, code, x ^ ml_x, z ^ ml_z)
    # each entry's representative has the entry's syndrome and lies in a
    # most likely coset of it
    key_syn, rep_syn, rep_cls, _ = _table_cosets(code, ml)
    table_sound = (len(ml) == int(reached.sum())
                   and np.array_equal(rep_syn, key_syn)
                   and bool(most_likely[rep_syn, rep_cls].all()))

    # 1. each syndrome admits one coset, and singles sharing a syndrome are
    #    pairwise inequivalent: the distinct syndromes cap every decoder
    distinct = len(np.unique(syn[singles]))
    ceiling = _ceiling(syn[singles], cls[singles])
    ml_singles = int(ml_ok[singles].sum())
    bin_singles = int(bin_ok[singles].sum())
    quat_singles = int(quat_ok[singles].sum())
    ceiling_ok = (distinct == ceiling == ml_singles == 15 and table_sound
                  and max(bin_singles, quat_singles) <= ceiling)
    # 2. singles whose syndrome no other single shares
    values, counts = np.unique(syn[singles], return_counts=True)
    unshared = singles & np.isin(syn, values[counts == 1])
    quat_unshared = int(quat_ok[unshared].sum())
    unshared_ok = quat_unshared == int(unshared.sum()) == 9
    # 3. where the most likely coset is unique, quaternary converges into it
    into_ml = int((quat_conv & quat_in_ml)[untied].sum())
    fraction = into_ml / int(untied.sum())
    match_ok = fraction >= 0.95
    # 4. no converged output leaves the most likely cosets of its syndrome
    strays = {alg: int((conv & ~in_ml).sum())
              for alg, (_, conv, in_ml) in decoded.items()}
    stray_ok = not any(strays.values())
    # 5. where the distance allows it, both decoders correct every single
    code25 = build_theorem5(5, 2, 2)
    x25, z25 = category_bits(_window_patterns(code25.n, 1))
    sx25, sz25 = _syndromes(code25, x25, z25)
    distinct25 = len(np.unique(np.concatenate([sx25, sz25], axis=1), axis=0))
    basis25, graph25 = stabilizer_symplectic(code25), build_graphs(code25)
    fixed25 = {}
    for alg in ("binary-spa", "quaternary-spa"):
        cfg = DecoderConfig(alg, p_d, l_max=100)
        ex, ez, conv, _ = decode_batch(graph25, sx25, sz25, cfg)
        fixed25[alg] = int(
            (residual_in_group(basis25, code25, x25 ^ ex, z25 ^ ez) & conv).sum())
    full_ok = distinct25 == 75 and set(fixed25.values()) == {75}

    checks = {"ceiling": ceiling_ok, "unshared": unshared_ok,
              "unique-ML match": match_ok, "most-likely": stray_ok,
              "[[25,8;1]]": full_ok}
    _verdict(7, all(checks.values()),
             f"claim 27/27 singles corrected and >= 95% ML match on weight-<=2 "
             f"patterns; [[9,4;1]] has {distinct} distinct single syndromes, "
             f"ceiling {ceiling}/27: ML {ml_singles}, binary {bin_singles}, "
             f"quaternary {quat_singles}; quaternary fixes {quat_unshared}/"
             f"{int(unshared.sum())} unshared singles; {int(tied[reached].sum())}/"
             f"{int(reached.sum())} syndromes tie at p_d {p_d}; quaternary "
             f"converges into the unique ML coset on {into_ml}/{int(untied.sum())} "
             f"untied patterns ({fraction:.2%}, need 95%) and on "
             f"{int(quat_conv[~untied].sum())}/{int((~untied).sum())} tied ones; "
             f"converged outside a most likely coset {strays}; [[25,8;1]] singles "
             f"{fixed25} of {distinct25} distinct; "
             f"failed={[k for k, ok in checks.items() if not ok]}")
    assert ceiling_ok, (distinct, ceiling, ml_singles, table_sound,
                        bin_singles, quat_singles)
    assert unshared_ok, (quat_unshared, int(unshared.sum()))
    assert match_ok, (into_ml, int(untied.sum()))
    assert stray_ok, strays
    assert full_ok, (distinct25, fixed25)


def test_ml_table_breaks_ties_by_the_largest_class():
    """On each syndrome the ML table holds, among the cosets of maximal
    probability (computed exactly), the one with the largest class bytes."""
    code = build_theorem5(3, 1, 1)
    n, p_d = code.n, Fraction(3, 100)
    enum = _coset_weight_enumerators(code).astype(object)
    prob = enum @ np.array([(p_d / 3) ** w * (1 - p_d) ** (n - w)
                            for w in range(n + 1)], dtype=object)
    most_likely = (prob == prob.max(axis=1)[:, None]) & (prob > 0)
    # class bytes compare with the first class bit most significant
    bits = (np.arange(enum.shape[1])[:, None] >> np.arange(2 * code.k)) & 1
    byte_order = bits @ (1 << np.arange(2 * code.k - 1, -1, -1))
    want = np.where(most_likely, byte_order, -1).argmax(axis=1)
    key_syn, rep_syn, rep_cls, _ = _table_cosets(code, ml_coset_decoder(code, 0.03))
    assert int((most_likely.sum(axis=1) > 1).sum()) == 52
    assert np.array_equal(rep_syn, key_syn)
    assert np.array_equal(rep_cls, want[key_syn])


def test_criterion_08_quaternary_beats_binary():
    t0 = time.perf_counter()
    results = {}
    for p, l in ((5, 2), (7, 3)):
        code = build_theorem5(p, l, l)
        for p_d in (0.02, 0.03):
            for eta in (0.0, 0.5):
                for alg in ("binary-spa", "quaternary-spa"):
                    cfg = SimConfig(
                        code=code,
                        channel=ChannelParams(p_d, eta),
                        decoder=DecoderConfig(alg, p_d=p_d, l_max=100),
                        trials=5000,
                        master_seed=0,
                    )
                    results[(code.n, p_d, eta, alg)] = run_trials(cfg)
    elapsed = time.perf_counter() - t0

    overlaps = []
    for (n, p_d, eta) in {(k[0], k[1], k[2]) for k in results}:
        b = results[(n, p_d, eta, "binary-spa")]
        q = results[(n, p_d, eta, "quaternary-spa")]
        if not (q.ler < b.ler and q.ci_high < b.ci_low):
            overlaps.append((n, p_d, eta, q.ler, q.ci_high, b.ler, b.ci_low))
    not_monotone = []
    for n in (25, 49):
        for eta in (0.0, 0.5):
            for alg in ("binary-spa", "quaternary-spa"):
                lo = results[(n, 0.02, eta, alg)].ler
                hi = results[(n, 0.03, eta, alg)].ler
                if not lo < hi:
                    not_monotone.append((n, eta, alg, lo, hi))
    ok = not overlaps and not not_monotone and elapsed <= 600.0
    _verdict(8, ok, f"quaternary LER < binary LER with disjoint 95% intervals "
                    f"at all 8 points and LER grows with p_d; "
                    f"violations={overlaps + not_monotone}; "
                    f"{elapsed:.0f}s (<= 600s)")
    assert not overlaps
    assert not not_monotone
    assert elapsed <= 600.0


def test_criterion_09_exhaustive_burst_window():
    code = build_theorem5(3, 1, 1)
    n = code.n
    report = burst_oracle(code, 3)
    cats = _window_patterns(n, 3)
    x, z = category_bits(cats)
    syn, cls = _coset_keys(code, x, z)

    # 1. singles, pairs one and two apart, then full three-qubit windows:
    #    27 + 72 + 63 + 189
    closed_form = 3 * n + 9 * (n - 1) + 9 * (n - 2) + 27 * (n - 2)
    count_ok = report.patterns == len(cats) == closed_form == 351
    # 2. the any-decoder ceiling; the oracle's table holds a lightest error
    #    per syndrome, and the oracle counts the patterns in its coset
    ceiling = _ceiling(syn, cls)
    sx, sz = _syndromes(code, x, z)
    table = min_weight_decoder(
        code, [(a.tobytes(), b.tobytes()) for a, b in zip(sx, sz)])
    key_syn, rep_syn, rep_cls, rep_support = _table_cosets(code, table)
    lightest = np.argmax(_coset_weight_enumerators(code).sum(axis=1) > 0, axis=1)
    rep_light = (np.array_equal(rep_syn, key_syn) and bool(
        (np.count_nonzero(rep_support, axis=1) == lightest[rep_syn]).all()))
    chosen = dict(zip(rep_syn.tolist(), rep_cls.tolist()))
    fixed = sum(chosen.get(s) == c for s, c in zip(syn.tolist(), cls.tolist()))
    oracle_ok = (rep_light and report.oracle_corrected == fixed
                 and report.oracle_corrected <= ceiling < report.patterns)
    # 3. sum-product sits under the same ceiling
    spa_ok = report.spa_corrected <= ceiling
    # 4. X on {5, 7}: a window pattern with zero syndrome outside the group;
    #    every zero-syndrome window pattern is a logical of its own class
    witness = np.zeros(n, np.int8)
    witness[[5, 7]] = 1
    at = np.nonzero((cats == witness).all(axis=1))[0]
    zero = syn == 0
    logical = ~residual_in_group(stabilizer_symplectic(code), code, x, z)
    witness_ok = (len(at) == 1 and bool(zero[at[0]] and logical[at[0]])
                  and bool(logical[zero].all())
                  and len(np.unique(cls[zero])) == int(zero.sum()))
    # 5. positive control: the audit confirms a claim that holds
    control = burst_oracle(build_theorem5(5, 2, 2), 1)
    control_ok = (control.patterns == 75 and control.oracle_corrected == 75
                  and control.spa_corrected == 75)

    checks = {"count": count_ok, "oracle": oracle_ok, "spa": spa_ok,
              "witness": witness_ok, "control": control_ok}
    _verdict(9, all(checks.values()),
             f"claim 100% of window-3 bursts corrected; any decoder can correct "
             f"at most {ceiling}/{report.patterns} = "
             f"{ceiling / report.patterns:.2%}; min-weight oracle corrects "
             f"{report.oracle_corrected} (its table's cosets hold {fixed}, "
             f"lightest per syndrome: {rep_light}); sum-product corrects "
             f"{report.spa_corrected}; "
             f"{int(zero.sum())} zero-syndrome window patterns are logicals in "
             f"{len(np.unique(cls[zero]))} classes, X on {{5, 7}} among them; "
             f"[[25,8;1]] window 1: oracle {control.oracle_corrected}/"
             f"{control.patterns}, sum-product {control.spa_corrected}; "
             f"failed={[k for k, ok in checks.items() if not ok]}")
    assert count_ok, (report.patterns, len(cats), closed_form)
    assert oracle_ok, (rep_light, report.oracle_corrected, fixed, ceiling,
                       report.patterns)
    assert spa_ok, (report.spa_corrected, ceiling)
    assert witness_ok, (at, report.oracle_failures)
    assert control_ok, control


def test_criterion_10_burst_weight_convergence_soft():
    code = build_theorem5(5, 2, 2)
    out = {}
    for eta in (0.0, 0.95):
        cfg = SimConfig(
            code=code,
            channel=ChannelParams(0.03, eta),
            decoder=DecoderConfig("quaternary-spa", p_d=0.03, l_max=100),
            trials=5000,
            master_seed=0,
        )
        out[eta] = run_trials(cfg)
    a, b = out[0.0], out[0.95]
    gap = abs(a.ler - b.ler)
    half_a = (a.ci_high - a.ci_low) / 2
    half_b = (b.ci_high - b.ci_low) / 2
    within = gap <= half_a + half_b
    _verdict(10, True,
             f"soft: |LER(eta=0.95) - LER(eta=0)| = {gap:.4f} vs combined "
             f"half-widths {half_a + half_b:.4f} -> "
             f"{'within' if within else 'FLAGGED, outside'} "
             f"(LERs {a.ler:.4f} / {b.ler:.4f})")
    if not within:
        pytest.xfail("flagged: eta=0.95 and eta=0 rates separated beyond "
                     "combined intervals")


def test_criterion_11_sweep_reproducibility():
    def run_inline():
        code = build_theorem5(3, 1, 1)
        cfg = SimConfig(
            code=code,
            channel=ChannelParams(0.02, 0.0),
            decoder=DecoderConfig("quaternary-spa", p_d=0.02, l_max=100),
            trials=150,
            master_seed=9,
        )
        return write_csv(sweep(cfg, (0.02, 0.03), (0.0, 0.5)))

    first, second = run_inline(), run_inline()
    outputs = []
    for threads in ("1", "4"):
        env = dict(os.environ)
        env.update({
            "OMP_NUM_THREADS": threads,
            "OPENBLAS_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
        })
        proc = subprocess.run(
            [sys.executable, "-c",
             "from eaqc.channel import ChannelParams\n"
             "from eaqc.decoder import DecoderConfig\n"
             "from eaqc.eacode import build_theorem5\n"
             "from eaqc.harness import SimConfig, sweep, write_csv\n"
             "import sys\n"
             "cfg = SimConfig(code=build_theorem5(3, 1, 1),\n"
             "                channel=ChannelParams(0.02, 0.0),\n"
             "                decoder=DecoderConfig('quaternary-spa', p_d=0.02, l_max=100),\n"
             "                trials=150, master_seed=9)\n"
             "sys.stdout.write(write_csv(sweep(cfg, (0.02, 0.03), (0.0, 0.5))))\n"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    ok = first == second and outputs[0] == outputs[1] == first
    _verdict(11, ok, "identical config and seed give byte-identical CSV "
                     "in-process and across 1- and 4-thread subprocesses")
    assert first == second
    assert outputs[0] == outputs[1] == first
