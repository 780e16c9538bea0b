"""Conjugation rules validated against explicit unitaries, then the block
operators and their action on stabilizer groups and logicals."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eaqc.clifford import (
    GateSequence,
    PauliVector,
    Tableau,
    _apply_gates,
    _product_phases,
    code_tableau,
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
from eaqc.eacode import build_theorem5
from eaqc.gf2 import gfrank

# ── unitary oracle ────────────────────────────────────────────────────

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_SDG = np.diag([1, -1j]).astype(complex)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def pauli_unitary(v: PauliVector) -> np.ndarray:
    m = np.array([[1]], dtype=complex)
    for xj, zj in zip(v.x, v.z):
        f = (np.linalg.matrix_power(_X, int(xj)) @
             np.linalg.matrix_power(_Z, int(zj)))
        m = np.kron(m, f)
    return (1j ** v.phase) * m


def match_pauli(m: np.ndarray, qubits: int) -> PauliVector:
    """Find the unique i^phase X^x Z^z equal to m."""
    for bits in range(4 ** qubits):
        x = np.array([(bits >> (2 * j)) & 1 for j in range(qubits)], np.uint8)
        z = np.array([(bits >> (2 * j + 1)) & 1 for j in range(qubits)], np.uint8)
        base = pauli_unitary(PauliVector(x, z, 0))
        for ph in range(4):
            if np.allclose(m, (1j ** ph) * base, atol=1e-9):
                return PauliVector(x, z, ph)
    raise AssertionError("matrix is not a phased Pauli")


def gate_unitary(gate: tuple, qubits: int) -> np.ndarray:
    name, *qs = gate
    if name in ("CZ", "SWAP"):
        assert qubits == 2
        base = _CZ if name == "CZ" else _SWAP
        if tuple(qs) == (0, 1):
            return base
        return _SWAP @ base @ _SWAP
    single = {"H": _H, "S": _S, "SDG": _SDG}[name]
    factors = [single if j == qs[0] else _I2 for j in range(qubits)]
    m = np.array([[1]], dtype=complex)
    for f in factors:
        m = np.kron(m, f)
    return m


def all_paulis(qubits: int, phases=(0,)):
    for bits in range(4 ** qubits):
        x = np.array([(bits >> (2 * j)) & 1 for j in range(qubits)], np.uint8)
        z = np.array([(bits >> (2 * j + 1)) & 1 for j in range(qubits)], np.uint8)
        for ph in phases:
            yield PauliVector(x, z, ph)


def conjugate_pauli(v: PauliVector, seq: GateSequence) -> PauliVector:
    """One Pauli conjugated by the package's gate rules."""
    xs, zs = v.x.copy()[None], v.z.copy()[None]
    phases = np.array([v.phase], dtype=np.int64)
    _apply_gates(xs, zs, phases, seq, v.qubits)
    return PauliVector(xs[0], zs[0], int(phases[0]))


def commutes(a: PauliVector, b: PauliVector) -> bool:
    return not symplectic_product(a.symplectic()[None], b.symplectic()[None])[0, 0]


def inverse(seq: GateSequence) -> GateSequence:
    """The gates undone in reverse order: S and S-dagger swap, the rest are involutions."""
    swap = {"S": "SDG", "SDG": "S"}
    return GateSequence(tuple((swap.get(name, name), *qs) for name, *qs in reversed(seq.gates)))


@pytest.mark.parametrize("gate", [("H", 0), ("S", 0), ("SDG", 0)])
def test_single_qubit_rules_match_unitary_conjugation(gate):
    u = gate_unitary(gate, 1)
    for v in all_paulis(1, phases=(0, 1, 2, 3)):
        got = conjugate_pauli(v, GateSequence((gate,)))
        want = match_pauli(u @ pauli_unitary(v) @ u.conj().T, 1)
        assert got == want, (gate, v)


@pytest.mark.parametrize(
    "gate", [("CZ", 0, 1), ("CZ", 1, 0), ("SWAP", 0, 1), ("SWAP", 1, 0)]
)
def test_two_qubit_rules_match_unitary_conjugation(gate):
    u = gate_unitary(gate, 2)
    for v in all_paulis(2, phases=(0, 1)):
        got = conjugate_pauli(v, GateSequence((gate,)))
        want = match_pauli(u @ pauli_unitary(v) @ u.conj().T, 2)
        assert got == want, (gate, v)


def test_product_rule_matches_matrix_product():
    for a in all_paulis(1, phases=(0, 1, 2, 3)):
        for b in all_paulis(1, phases=(0, 3)):
            want = match_pauli(pauli_unitary(a) @ pauli_unitary(b), 1)
            assert a * b == want
    for a in all_paulis(2):
        for b in all_paulis(2):
            want = match_pauli(pauli_unitary(a) @ pauli_unitary(b), 2)
            assert a * b == want


def test_commutation_matches_matrix_commutator():
    for a in all_paulis(2):
        for b in all_paulis(2):
            ma, mb = pauli_unitary(a), pauli_unitary(b)
            assert commutes(a, b) == np.allclose(ma @ mb, mb @ ma)


_two_qubit_gates = st.sampled_from(
    [("H", 0), ("H", 1), ("S", 0), ("S", 1), ("SDG", 0), ("SDG", 1),
     ("CZ", 0, 1), ("SWAP", 0, 1)]
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_two_qubit_gates, min_size=1, max_size=6), st.integers(0, 15))
def test_sequences_match_composed_unitaries(gates, pauli_bits):
    seq = GateSequence(tuple(gates))
    u = np.eye(4, dtype=complex)
    for g in gates:
        u = gate_unitary(g, 2) @ u
    x = np.array([pauli_bits & 1, (pauli_bits >> 2) & 1], np.uint8)
    z = np.array([(pauli_bits >> 1) & 1, (pauli_bits >> 3) & 1], np.uint8)
    v = PauliVector(x, z)
    got = conjugate_pauli(v, seq)
    want = match_pauli(u @ pauli_unitary(v) @ u.conj().T, 2)
    assert got == want


# ── algebra basics ────────────────────────────────────────────────────

def test_bare_y_convention():
    y = PauliVector(np.array([1], np.uint8), np.array([1], np.uint8), 1)
    assert np.allclose(pauli_unitary(y), np.array([[0, -1j], [1j, 0]]))


def test_from_support_and_equality():
    a = PauliVector.from_support(5, x_on=[0, 3], z_on=[3, 4])
    b = PauliVector.from_support(5, x_on=[3, 0], z_on=[4, 3])
    assert a == b and hash(a) == hash(b)
    assert a != PauliVector.from_support(5, x_on=[0, 3], z_on=[3, 4], phase=2)
    assert a.qubits == 5


def test_mismatched_registers_rejected():
    a = PauliVector.identity(3)
    b = PauliVector.identity(4)
    with pytest.raises(ValueError):
        a * b


def test_malformed_gates_rejected():
    for bad in [("Q", 0), ("H",), ("H", 0, 1), ("CZ", 2), ("CZ", 1, 1),
                ("SWAP", 0, 0), ("H", -1)]:
        with pytest.raises(ValueError):
            GateSequence((bad,))


def test_out_of_range_gate_rejected_at_application():
    v = PauliVector.identity(2)
    with pytest.raises(ValueError):
        conjugate_pauli(v, GateSequence((("H", 5),)))


_seq_gates = st.sampled_from(
    [("H", 0), ("H", 2), ("S", 1), ("SDG", 3), ("CZ", 0, 2), ("CZ", 1, 3),
     ("SWAP", 0, 3), ("SWAP", 1, 2)]
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_seq_gates, min_size=1, max_size=10),
    st.integers(0, 255),
    st.integers(0, 3),
)
def test_inverse_round_trips_any_pauli(gates, bits, phase):
    seq = GateSequence(tuple(gates))
    x = np.array([(bits >> j) & 1 for j in range(4)], np.uint8)
    z = np.array([(bits >> (4 + j)) & 1 for j in range(4)], np.uint8)
    v = PauliVector(x, z, phase)
    assert conjugate_pauli(conjugate_pauli(v, seq), inverse(seq)) == v


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_seq_gates, min_size=1, max_size=8),
    st.integers(0, 255),
    st.integers(0, 255),
)
def test_conjugation_is_a_homomorphism(gates, bits_a, bits_b):
    seq = GateSequence(tuple(gates))
    def mk(bits):
        x = np.array([(bits >> j) & 1 for j in range(4)], np.uint8)
        z = np.array([(bits >> (4 + j)) & 1 for j in range(4)], np.uint8)
        return PauliVector(x, z)
    a, b = mk(bits_a), mk(bits_b)
    assert conjugate_pauli(a * b, seq) == conjugate_pauli(a, seq) * conjugate_pauli(b, seq)
    assert commutes(a, b) == commutes(conjugate_pauli(a, seq), conjugate_pauli(b, seq))


# ── the block stabilizer ──────────────────────────────────────────────

def test_block_stabilizer_frozen_supports():
    t = stabilizer_matrix(3)
    assert len(t.generators) == 6
    x_supports = [set(np.nonzero(g.x)[0]) for g in t.generators[:3]]
    z_supports = [set(np.nonzero(g.z)[0]) for g in t.generators[3:]]
    assert x_supports == [{0, 4, 8, 9}, {1, 5, 6, 9}, {2, 3, 7, 9}]
    assert z_supports == [{0, 5, 7, 9}, {1, 3, 8, 9}, {2, 4, 6, 9}]
    assert all(g.phase == 0 for g in t.generators)
    assert all(not g.z.any() for g in t.generators[:3])
    assert all(not g.x.any() for g in t.generators[3:])


@pytest.mark.parametrize("p,rank", [(3, 6), (5, 18), (7, 38)])
def test_block_stabilizer_counts_and_rank(p, rank):
    t = stabilizer_matrix(p)
    assert t.qubits == p * p + 1
    assert len(t.generators) == p * (p - 1)
    assert gfrank(t.symplectic()) == rank


# ── the shared symplectic form and product phase ──────────────────────


def _form_loop(u: np.ndarray, v: np.ndarray, q: int) -> int:
    """x·z' + z·x' (mod 2), qubit by qubit."""
    s = 0
    for j in range(q):
        s += int(u[j]) * int(v[q + j]) + int(u[q + j]) * int(v[j])
    return s % 2


def _folded_phase(gens: list, lam: np.ndarray) -> int:
    """Phase of the in-order product of the selected generators."""
    prod = PauliVector.identity(gens[0].qubits)
    for idx in np.nonzero(lam)[0]:
        prod = prod * gens[idx]
    return prod.phase


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 300),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_symplectic_product_matches_per_qubit_loop_and_commutes(r, s, q, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, (r, 2 * q), dtype=np.uint8)
    b = rng.integers(0, 2, (s, 2 * q), dtype=np.uint8)
    got = symplectic_product(a, b)
    assert got.shape == (r, s)
    for i in range(r):
        u = PauliVector(a[i, :q], a[i, q:])
        for j in range(s):
            assert got[i, j] == _form_loop(a[i], b[j], q)
            assert commutes(u, PauliVector(b[j, :q], b[j, q:])) == (got[i, j] == 0)


def test_uint8_sums_keep_parity_past_255():
    # 257-qubit rows are 514 bits, a product over 9 packed words; the 258
    # generators make the sign's pair count a product over 5 words
    q = 257
    x_all = np.concatenate([np.ones(q), np.zeros(q)]).astype(np.uint8)[None]
    z_all = np.concatenate([np.zeros(q), np.ones(q)]).astype(np.uint8)[None]
    assert symplectic_product(x_all, z_all)[0, 0] == 1
    assert symplectic_product(x_all, x_all)[0, 0] == 0
    # 258 copies of X0Z0: the j-th moves its X past j earlier Z blocks
    g = 258
    rows = np.ones((g, 2), dtype=np.uint8)
    gens = [PauliVector(r[:1], r[1:]) for r in rows]
    sel = np.ones((1, g), dtype=np.uint8)
    got = _product_phases(sel, rows, np.zeros(g, dtype=np.int64))
    assert got[0] == _folded_phase(gens, sel[0]) == 2


@given(st.integers(1, 300), st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_product_phases_match_folded_products(g, q, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, (g, 2 * q), dtype=np.uint8)
    phases = rng.integers(0, 4, g)
    sel = rng.integers(0, 2, (4, g), dtype=np.uint8)
    gens = [PauliVector(rows[i, :q], rows[i, q:], phases[i]) for i in range(g)]
    got = _product_phases(sel, rows, phases)
    assert list(got) == [_folded_phase(gens, lam) for lam in sel]


def test_block_stabilizer_rejects_composite():
    with pytest.raises(ValueError):
        stabilizer_matrix(9)


def test_noncommuting_generators_rejected():
    x0 = PauliVector.from_support(2, x_on=[0])
    z0 = PauliVector.from_support(2, z_on=[0])
    with pytest.raises(ValueError):
        Tableau((x0, z0))


def test_dependency_with_negative_sign_rejected():
    a = PauliVector.from_support(1, x_on=[0])
    b = PauliVector.from_support(1, x_on=[0], phase=2)
    with pytest.raises(ValueError):
        Tableau((a, b))
    # same dependency with matching signs is a legal generating set
    Tableau((a, PauliVector.from_support(1, x_on=[0])))
    # Z0X1 · X0Z1 = i^2 X0Z0·X1Z1: the phases sum to 0, so only the
    # cross term z_i·x_j of the product rule gives the sign
    z0x1 = PauliVector.from_support(2, x_on=[1], z_on=[0])
    x0z1 = PauliVector.from_support(2, x_on=[0], z_on=[1])
    with pytest.raises(ValueError, match="multiplies to -I"):
        Tableau((z0x1, x0z1, PauliVector.from_support(2, [0, 1], [0, 1])))
    Tableau((z0x1, x0z1, PauliVector.from_support(2, [0, 1], [0, 1], phase=2)))


def test_non_hermitian_generator_rejected():
    # iX and the phase-0 XZ (= -iY) each square to -I
    for phase, z in ((1, 0), (0, 1)):
        with pytest.raises(ValueError, match="not Hermitian"):
            Tableau((PauliVector([1], [z], phase),))
    Tableau((PauliVector([1], [1], 1),))  # Y = i·XZ
    Tableau((PauliVector([1], [0], 2),))  # -X


def _gate_sequences(q: int):
    one = st.tuples(st.sampled_from(["H", "S", "SDG"]), st.integers(0, q - 1))
    gate = one
    if q > 1:
        two = st.tuples(st.sampled_from(["CZ", "SWAP"]), st.permutations(range(q)))
        two = two.map(lambda g: (g[0], *g[1][:2]))
        gate = one | two
    return st.lists(gate, max_size=8).map(lambda gs: GateSequence(tuple(gs)))


@st.composite
def _tableau_pairs(draw):
    """A stabilizer group and the generators of a second one on its register.

    The first is k single-qubit Z generators plus some of their products,
    shuffled and conjugated by a random Clifford circuit.  The second is the
    first conjugated by another circuit, with some signs flipped and
    perhaps its last generator dropped.
    """
    q = draw(st.integers(1, 5))
    k = draw(st.integers(1, q))
    masks = draw(st.lists(st.integers(1, 2**k - 1), max_size=3))
    gens = [PauliVector.from_support(q, z_on=[i]) for i in range(k)]
    gens += [PauliVector.from_support(q, z_on=[i for i in range(k) if m >> i & 1])
             for m in masks]
    order = draw(st.permutations(range(len(gens))))
    before = conjugate(Tableau(tuple(gens[i] for i in order)), draw(_gate_sequences(q)))
    after = list(conjugate(before, draw(_gate_sequences(q))).generators)
    flips = draw(st.lists(st.booleans(), min_size=len(after), max_size=len(after)))
    after = [PauliVector(g.x, g.z, g.phase + 2 * f) for g, f in zip(after, flips)]
    if len(after) > 1 and draw(st.booleans()):
        after.pop()
    return before, after


def _group_elements(gens) -> set:
    """Every product of a subset of the generators, signs included."""
    out = set()
    for mask in range(2 ** len(gens)):
        prod = PauliVector.identity(gens[0].qubits)
        for i, g in enumerate(gens):
            if mask >> i & 1:
                prod = prod * g
        out.add(prod)
    return out


@settings(max_examples=200, deadline=None)
@given(_tableau_pairs())
def test_group_preserved_matches_subset_search(pair):
    before, after_gens = pair
    try:
        after = Tableau(tuple(after_gens))
    except ValueError:
        assume(False)  # a flipped sign made a dependency multiply to -I
    want = _group_elements(before.generators) == _group_elements(after.generators)
    assert group_preserved(before, after) == want
    assert group_preserved(after, before) == want


# ── the transversal operators ─────────────────────────────────────────

def test_hadamard_then_block_reversal_gate_list():
    g = hadamard_swap(3)
    assert list(g)[:10] == [("H", i) for i in range(10)]
    assert list(g)[10:] == [("SWAP", 3, 6), ("SWAP", 4, 7), ("SWAP", 5, 8)]


def test_phase_and_pair_cz_gate_list():
    g = s_cz(3)
    assert list(g) == [
        ("CZ", 3, 6), ("CZ", 4, 7), ("CZ", 5, 8),
        ("S", 0), ("S", 1), ("S", 2), ("SDG", 9),
    ]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_operator_gate_counts(p):
    q = p * p + 1
    hs = [g[0] for g in hadamard_swap(p)]
    assert hs.count("H") == q
    assert hs.count("SWAP") == p * (p - 1) // 2
    sc = [g[0] for g in s_cz(p)]
    assert sc.count("CZ") == p * (p - 1) // 2
    assert sc.count("S") == p
    assert sc.count("SDG") == 1
    hsc = [g[0] for g in h_s_cz(p)]
    assert hsc.count("H") == 2 * q


@pytest.mark.parametrize("p", [3, 5, 7])
def test_all_three_operators_preserve_the_group(p):
    t = stabilizer_matrix(p)
    for seq in (hadamard_swap(p), s_cz(p), h_s_cz(p)):
        assert group_preserved(t, conjugate(t, seq))


def test_hadamard_swap_imagewise_row_block_exchange():
    t = stabilizer_matrix(3)
    after = conjugate(t, hadamard_swap(3))
    perm = [3, 4, 5, 0, 1, 2]
    for i, j in enumerate(perm):
        assert after.generators[i].phase == 0
        assert np.array_equal(after.generators[i].x, t.generators[j].x)
        assert np.array_equal(after.generators[i].z, t.generators[j].z)


def test_phase_layer_grafts_dual_support_onto_x_rows():
    t = stabilizer_matrix(3)
    after = conjugate(t, s_cz(3))
    for i in range(3):
        assert np.array_equal(after.generators[i].x, t.generators[i].x)
        assert np.array_equal(after.generators[i].z, t.generators[3 + i].z)
        assert after.generators[i].phase == 0
    for i in range(3, 6):
        assert after.generators[i] == t.generators[i]


def test_single_hadamard_breaks_the_group():
    t = stabilizer_matrix(3)
    assert not group_preserved(t, conjugate(t, GateSequence((("H", 0),))))


def test_sign_flip_breaks_preservation_even_with_equal_span():
    t = stabilizer_matrix(3)
    gens = list(t.generators)
    g0 = gens[0]
    gens[0] = PauliVector(g0.x, g0.z, 2)
    flipped = Tableau(tuple(gens))
    assert not group_preserved(t, flipped)
    assert group_preserved(t, t)
    # the re-expressed generator's sign comes from the cross term alone
    z0x1 = PauliVector.from_support(2, x_on=[1], z_on=[0])
    x0z1 = PauliVector.from_support(2, x_on=[0], z_on=[1])
    before = Tableau((z0x1, x0z1))
    for phase, kept in ((0, False), (2, True)):
        xzxz = PauliVector.from_support(2, [0, 1], [0, 1], phase)
        assert group_preserved(before, Tableau((z0x1, xzxz))) == kept


# ── logical structure ─────────────────────────────────────────────────

def _frozen_logicals():
    mk = PauliVector.from_support
    return [
        (mk(10, x_on=[2, 3, 4, 5, 7, 8]), mk(10, z_on=[0, 8])),
        (mk(10, x_on=[2, 4, 5, 7]), mk(10, z_on=[0, 1, 2, 5, 7, 8])),
        (mk(10, x_on=[4, 6]), mk(10, z_on=[1, 6])),
        (mk(10, x_on=[5, 7]), mk(10, z_on=[2, 7])),
    ]


@pytest.mark.parametrize("p,pairs", [(3, 4), (5, 8), (7, 12)])
def test_logical_pair_counts(p, pairs):
    t = stabilizer_matrix(p)
    logs = logical_operators(t)
    assert len(logs) == pairs
    for i, (xi, zi) in enumerate(logs):
        assert not commutes(xi, zi)
        for g in t.generators:
            assert commutes(xi, g) and commutes(zi, g)
        for j, (xj, zj) in enumerate(logs):
            if i != j:
                assert commutes(xi, xj) and commutes(xi, zj) and commutes(zi, zj)


# supports of the basis logical_operators returns on the p=5 block
# stabilizer and on [[25,8;1]]; the transversal tables are written in it
_CANONICAL_P5 = [
    ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], [0, 1, 3, 4, 5, 6, 7, 10]),
    ([3, 6, 7, 10], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
    ([3, 4, 6, 8, 10, 11], [1, 3, 4, 5, 10, 13]),
    ([1, 2, 4, 5, 10, 12], [2, 3, 5, 8, 10, 11]),
    ([2, 7, 8, 9, 10, 11, 12, 13], [3, 4, 6, 9, 11, 12]),
    ([4, 5, 6, 9, 10, 12, 13, 14], [4, 7, 8, 9, 10, 11, 13, 14]),
    ([3, 6, 7, 8, 10, 11, 12, 15], [0, 1, 2, 6, 7, 8, 13, 20]),
    ([0, 3, 4, 7, 8, 9, 12, 20], [2, 7, 8, 9, 10, 13, 14, 15]),
]


@pytest.mark.parametrize("source", ["block", "code"])
def test_logical_basis_is_pinned(source):
    obj = stabilizer_matrix(5) if source == "block" else build_theorem5(5, 2, 2)
    mk = PauliVector.from_support
    assert logical_operators(obj) == [
        (mk(26, x_on=xs), mk(26, z_on=zs)) for xs, zs in _CANONICAL_P5
    ]


def test_code_tableau_generates_the_same_group():
    code = build_theorem5(3, 1, 1)
    t_code = code_tableau(code)
    t_block = stabilizer_matrix(3)
    assert t_code.qubits == 10
    assert group_preserved(t_block, t_code)
    assert group_preserved(t_code, t_block)


def test_logical_operators_accepts_a_code():
    code = build_theorem5(3, 1, 1)
    assert len(logical_operators(code)) == code.k == 4


def test_frozen_logical_basis_is_canonical():
    t = stabilizer_matrix(3)
    act = logical_action(t, _frozen_logicals(), GateSequence((("H", 0), ("H", 0))))
    # identity circuit maps every logical to itself
    assert act == {
        "X1": ("X1",), "Z1": ("Z1",), "X2": ("X2",), "Z2": ("Z2",),
        "X3": ("X3",), "Z3": ("Z3",), "X4": ("X4",), "Z4": ("Z4",),
    }


def test_hadamard_swap_logical_table():
    act = logical_action(stabilizer_matrix(3), _frozen_logicals(), hadamard_swap(3))
    assert act == {
        "X1": ("Z1",), "Z1": ("X1",),
        "X2": ("Z2", "Z3", "Z4"), "Z2": ("X2", "X3", "X4"),
        "X3": ("Z2", "Z4"), "Z3": ("X2", "X3"),
        "X4": ("Z2", "Z3"), "Z4": ("X2", "X4"),
    }


def test_phase_cz_logical_table():
    act = logical_action(stabilizer_matrix(3), _frozen_logicals(), s_cz(3))
    assert act == {
        "X1": ("X1", "Z1"), "Z1": ("Z1",),
        "X2": ("X2", "Z2", "Z3", "Z4"), "Z2": ("Z2",),
        "X3": ("Z2", "X3", "Z4"), "Z3": ("Z3",),
        "X4": ("Z2", "Z3", "X4"), "Z4": ("Z4",),
    }


def test_conjugated_phase_cz_logical_table():
    act = logical_action(stabilizer_matrix(3), _frozen_logicals(), h_s_cz(3))
    assert act == {
        "X1": ("X1",), "Z1": ("X1", "Z1"),
        "X2": ("X2",), "Z2": ("X2", "Z2", "X3", "X4"),
        "X3": ("X3",), "Z3": ("X2", "X3", "Z3"),
        "X4": ("X4",), "Z4": ("X2", "X4", "Z4"),
    }


def test_computed_logicals_give_self_consistent_tables():
    # tables over a computed basis differ from the frozen ones, but the
    # action must still be an invertible relabeling with residuals in
    # the group
    t = stabilizer_matrix(5)
    logs = logical_operators(t)
    act = logical_action(t, logs, hadamard_swap(5))
    assert set(act) == {f"{k}{i}" for k in "XZ" for i in range(1, 9)}
    assert all(act[key] for key in act)


def test_action_refuses_non_preserving_sequence():
    t = stabilizer_matrix(3)
    with pytest.raises(ValueError):
        logical_action(t, _frozen_logicals(), GateSequence((("H", 0),)))


def test_action_refuses_broken_basis():
    t = stabilizer_matrix(3)
    logs = _frozen_logicals()
    bad = logs[:3] + [(logs[3][0], logs[2][1])]
    with pytest.raises(ValueError):
        logical_action(t, bad, hadamard_swap(3))
