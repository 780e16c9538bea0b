"""Conjugation rules validated against explicit unitaries, then the block
operators and their action on stabilizer groups and logicals."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eaqc.clifford import (
    GateSequence,
    Tableau,
    _apply_gates,
    _dependencies,
    _negative_dependency,
    _product_phases,
    _quotient_rows,
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
from eaqc.eacode import (
    build_theorem5,
    build_theorem6,
    build_theorem7,
    build_theorem8,
    build_theorem9,
)
from eaqc.gf2 import BinaryMatrix, RowBasis, gfrank
from clifford_reference import apply_gates_one_at_a_time
from gf2_reference import independent_rows
from paulis import PauliVector, generators, logical_pairs, logical_stack, tableau

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
    rows = v.symplectic()[None]
    phases = np.array([v.phase], dtype=np.int64)
    _apply_gates(rows, phases, seq)
    return PauliVector.from_row(rows[0], int(phases[0]))


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
    a = PauliVector.from_support(3)
    b = PauliVector.from_support(4)
    with pytest.raises(ValueError):
        a * b


def test_malformed_gates_rejected():
    for bad in [("Q", 0), ("H",), ("H", 0, 1), ("CZ", 2), ("CZ", 1, 1),
                ("SWAP", 0, 0), ("H", -1)]:
        with pytest.raises(ValueError):
            GateSequence((bad,))


def test_gate_sequences_take_integer_qubit_indices_only():
    # 1.5 failed inside conjugate with an IndexError, True with a broadcast
    # ValueError; both now fail where the sequence is built
    for bad in [("H", 1.5), ("H", True), ("CZ", 0, 1.0), ("SWAP", "0", 1)]:
        with pytest.raises(TypeError, match="must be an integer"):
            GateSequence((bad,))
    seq = GateSequence((("H", np.int64(1)), ("CZ", np.int64(0), np.uint8(2))))
    assert seq.gates == (("H", 1), ("CZ", 0, 2))
    assert all(type(q) is int for _, *qs in seq.gates for q in qs)


def test_out_of_range_gate_rejected_at_application():
    v = PauliVector.from_support(2)
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
    assert len(t.rows) == 6
    x_supports = [set(np.nonzero(r[:10])[0]) for r in t.rows[:3]]
    z_supports = [set(np.nonzero(r[10:])[0]) for r in t.rows[3:]]
    assert x_supports == [{0, 4, 8, 9}, {1, 5, 6, 9}, {2, 3, 7, 9}]
    assert z_supports == [{0, 5, 7, 9}, {1, 3, 8, 9}, {2, 4, 6, 9}]
    assert not t.phases.any()
    assert not t.rows[:3, 10:].any()
    assert not t.rows[3:, :10].any()


@pytest.mark.parametrize("p,rank", [(3, 6), (5, 18), (7, 38)])
def test_block_stabilizer_counts_and_rank(p, rank):
    t = stabilizer_matrix(p)
    assert t.qubits == p * p + 1
    assert len(t.rows) == p * (p - 1)
    assert gfrank(BinaryMatrix.from_dense(t.rows)) == rank == t.rank


def test_tableau_holds_read_only_copies():
    rows = np.array([[1, 0, 0, 0], [0, 0, 0, 1]], np.uint8)  # -X0 and Z1
    phases = np.array([2, 0])
    t = Tableau(rows, phases)
    assert t.rows.dtype == np.uint8 and t.phases.dtype == np.int64
    assert not t.rows.flags.writeable and not t.phases.flags.writeable
    rows[0, 0] = 0
    assert t.rows[0, 0] == 1 and list(t.phases) == [2, 0]
    assert rows.flags.writeable


@pytest.mark.parametrize("rows,phases", [
    (np.zeros((2, 3), np.uint8), [0, 0]),  # odd width
    (np.zeros(4, np.uint8), [0]),  # one row, not a stack
    (np.zeros((2, 4), np.uint8), [0]),  # one phase short
    (np.zeros((1, 4), np.uint8), [[0]]),  # phases not a column
])
def test_tableau_rejects_misshapen_rows_and_phases(rows, phases):
    with pytest.raises(ValueError, match="one phase per row"):
        Tableau(rows, phases)


def test_tableau_rejects_non_integer_input():
    # a phase of 0.5 was read as 0, and a row entry of 1.7 as bit 1
    with pytest.raises(TypeError, match="integer rows and phases"):
        Tableau([[1, 0]], [0.5])
    with pytest.raises(TypeError, match="integer rows and phases"):
        Tableau([[1.7, 0]], [0])
    # integers are still read mod 2 (bits) and mod 4 (phases)
    t = Tableau(np.array([[3, 0], [-1, 2]], np.int64), np.array([6, -2]))
    assert t.rows.tolist() == [[1, 0], [1, 0]] and t.phases.tolist() == [2, 2]


def test_tableau_needs_a_generator():
    with pytest.raises(ValueError, match="at least one generator"):
        Tableau(np.zeros((0, 4), np.uint8), np.zeros(0, np.int64))


# ── the shared symplectic form and product phase ──────────────────────


def _form_loop(u: np.ndarray, v: np.ndarray, q: int) -> int:
    """x·z' + z·x' (mod 2), qubit by qubit."""
    s = 0
    for j in range(q):
        s += int(u[j]) * int(v[q + j]) + int(u[q + j]) * int(v[j])
    return s % 2


def _folded_phase(gens: list, lam: np.ndarray) -> int:
    """Phase of the in-order product of the selected generators."""
    prod = PauliVector.from_support(gens[0].qubits)
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


def _digest(*arrays) -> str:
    """First 16 hex digits of the sha256 of the arrays' bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# p -> digest of the uint8 (x | z) rows and int64 phases of
# stabilizer_matrix(p), recorded from its own grid-and-support loops
_BLOCK_STABILIZER_SHA256 = {
    3: "4112cab4b2578708",
    5: "e70ec858a0b6ca47",
    7: "edec4a1bd83d2ff8",
    11: "c0c6096229c57b7d",
}


@pytest.mark.parametrize("p", sorted(_BLOCK_STABILIZER_SHA256))
def test_block_stabilizer_is_pinned(p):
    t = stabilizer_matrix(p)
    assert t.rows.shape == (p * (p - 1), 2 * (p * p + 1))
    assert _digest(t.rows, t.phases) == _BLOCK_STABILIZER_SHA256[p]


def test_block_stabilizer_rejects_composite():
    with pytest.raises(ValueError):
        stabilizer_matrix(9)


@pytest.mark.parametrize("build", [stabilizer_matrix, hadamard_swap, s_cz, h_s_cz])
def test_transversal_builders_refuse_a_bool_p(build):
    # True used to read as 1 and raise "p must be an odd prime, got True"
    with pytest.raises(TypeError, match="^p must be an integer"):
        build(True)


def test_noncommuting_generators_rejected():
    x0 = PauliVector.from_support(2, x_on=[0])
    z0 = PauliVector.from_support(2, z_on=[0])
    with pytest.raises(ValueError):
        tableau((x0, z0))


def test_dependency_with_negative_sign_rejected():
    a = PauliVector.from_support(1, x_on=[0])
    b = PauliVector.from_support(1, x_on=[0], phase=2)
    with pytest.raises(ValueError):
        tableau((a, b))
    # same dependency with matching signs is a legal generating set
    tableau((a, PauliVector.from_support(1, x_on=[0])))
    # Z0X1 · X0Z1 = i^2 X0Z0·X1Z1: the phases sum to 0, so only the
    # cross term z_i·x_j of the product rule gives the sign
    z0x1 = PauliVector.from_support(2, x_on=[1], z_on=[0])
    x0z1 = PauliVector.from_support(2, x_on=[0], z_on=[1])
    with pytest.raises(ValueError, match="multiplies to -I"):
        tableau((z0x1, x0z1, PauliVector.from_support(2, [0, 1], [0, 1])))
    tableau((z0x1, x0z1, PauliVector.from_support(2, [0, 1], [0, 1], phase=2)))


def test_non_hermitian_generator_rejected():
    # iX and the phase-0 XZ (= -iY) each square to -I
    for phase, z in ((1, 0), (0, 1)):
        with pytest.raises(ValueError, match="not Hermitian"):
            Tableau([[1, z]], [phase])
    Tableau([[1, 1]], [1])  # Y = i·XZ
    Tableau([[1, 0]], [2])  # -X


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
    before = conjugate(tableau([gens[i] for i in order]), draw(_gate_sequences(q)))
    after = generators(conjugate(before, draw(_gate_sequences(q))))
    flips = draw(st.lists(st.booleans(), min_size=len(after), max_size=len(after)))
    after = [PauliVector(g.x, g.z, g.phase + 2 * f) for g, f in zip(after, flips)]
    if len(after) > 1 and draw(st.booleans()):
        after.pop()
    return before, after


def _group_elements(gens) -> set:
    """Every product of a subset of the generators, signs included."""
    out = set()
    for mask in range(2 ** len(gens)):
        prod = PauliVector.from_support(gens[0].qubits)
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
        after = tableau(after_gens)
    except ValueError:
        assume(False)  # a flipped sign made a dependency multiply to -I
    want = _group_elements(generators(before)) == _group_elements(generators(after))
    assert group_preserved(before, after) == want
    assert group_preserved(after, before) == want


@settings(max_examples=100, deadline=None)
@given(_tableau_pairs())
def test_tableau_rank_equals_gfrank_on_drawn_tableaux(pair):
    before, after_gens = pair
    assert before.rank == gfrank(BinaryMatrix.from_dense(before.rows))
    try:
        after = tableau(after_gens)
    except ValueError:
        assume(False)  # a flipped sign made a dependency multiply to -I
    assert after.rank == gfrank(BinaryMatrix.from_dense(after.rows))


def test_tableau_builds_its_row_basis_once(monkeypatch):
    t = stabilizer_matrix(3)
    logs = logical_operators(t)
    build, shapes = RowBasis.build, []

    def counted(a):
        shapes.append(a.shape)
        return build(a)

    monkeypatch.setattr(RowBasis, "build", staticmethod(counted))
    for seq in (hadamard_swap(3), s_cz(3), h_s_cz(3)):
        logical_action(t, logs, seq)
    # the other eliminations are of transposed stacks, (20, 6) and (20, 12)
    assert shapes.count(t.rows.shape) == 1
    assert t.basis is t.basis


# ── the transversal operators ─────────────────────────────────────────

def test_hadamard_then_block_reversal_gate_list():
    g = hadamard_swap(3).gates
    assert g[:10] == tuple(("H", i) for i in range(10))
    assert g[10:] == (("SWAP", 3, 6), ("SWAP", 4, 7), ("SWAP", 5, 8))


def test_phase_and_pair_cz_gate_list():
    assert s_cz(3).gates == (
        ("CZ", 3, 6), ("CZ", 4, 7), ("CZ", 5, 8),
        ("S", 0), ("S", 1), ("S", 2), ("SDG", 9),
    )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_operator_gate_counts(p):
    q = p * p + 1
    hs = [g[0] for g in hadamard_swap(p).gates]
    assert hs.count("H") == q
    assert hs.count("SWAP") == p * (p - 1) // 2
    sc = [g[0] for g in s_cz(p).gates]
    assert sc.count("CZ") == p * (p - 1) // 2
    assert sc.count("S") == p
    assert sc.count("SDG") == 1
    hsc = [g[0] for g in h_s_cz(p).gates]
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
        assert after.phases[i] == 0
        assert np.array_equal(after.rows[i, :10], t.rows[j, :10])
        assert np.array_equal(after.rows[i, 10:], t.rows[j, 10:])


def test_phase_layer_grafts_dual_support_onto_x_rows():
    t = stabilizer_matrix(3)
    after = conjugate(t, s_cz(3))
    for i in range(3):
        assert np.array_equal(after.rows[i, :10], t.rows[i, :10])
        assert np.array_equal(after.rows[i, 10:], t.rows[3 + i, 10:])
        assert after.phases[i] == 0
    for i in range(3, 6):
        assert generators(after)[i] == generators(t)[i]


def test_single_hadamard_breaks_the_group():
    t = stabilizer_matrix(3)
    assert not group_preserved(t, conjugate(t, GateSequence((("H", 0),))))


def test_sign_flip_breaks_preservation_even_with_equal_span():
    t = stabilizer_matrix(3)
    phases = t.phases.copy()
    phases[0] = 2
    flipped = Tableau(t.rows, phases)
    assert not group_preserved(t, flipped)
    assert group_preserved(t, t)
    # the re-expressed generator's sign comes from the cross term alone
    z0x1 = PauliVector.from_support(2, x_on=[1], z_on=[0])
    x0z1 = PauliVector.from_support(2, x_on=[0], z_on=[1])
    before = tableau((z0x1, x0z1))
    for phase, kept in ((0, False), (2, True)):
        xzxz = PauliVector.from_support(2, [0, 1], [0, 1], phase)
        assert group_preserved(before, tableau((z0x1, xzxz))) == kept


# ── logical structure ─────────────────────────────────────────────────

def _frozen_logicals():
    mk = PauliVector.from_support
    return logical_stack([
        (mk(10, x_on=[2, 3, 4, 5, 7, 8]), mk(10, z_on=[0, 8])),
        (mk(10, x_on=[2, 4, 5, 7]), mk(10, z_on=[0, 1, 2, 5, 7, 8])),
        (mk(10, x_on=[4, 6]), mk(10, z_on=[1, 6])),
        (mk(10, x_on=[5, 7]), mk(10, z_on=[2, 7])),
    ])


@pytest.mark.parametrize("p,pairs", [(3, 4), (5, 8), (7, 12)])
def test_logical_pair_counts(p, pairs):
    t = stabilizer_matrix(p)
    logs = logical_pairs(logical_operators(t))
    assert len(logs) == pairs
    for i, (xi, zi) in enumerate(logs):
        assert not commutes(xi, zi)
        for g in generators(t):
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
    got = logical_operators(obj)
    assert got.dtype == np.uint8
    assert np.array_equal(got, logical_stack(
        (mk(26, x_on=xs), mk(26, z_on=zs)) for xs, zs in _CANONICAL_P5
    ))


# every README code -> digest of the uint8 (x | z) rows of its logical
# basis in X1, Z1, X2, Z2, ... order; the transversal tables and the ML
# coset classes are written in this basis
_README_LOGICALS_SHA256 = [
    (build_theorem5, (3, 1, 1), {}, "dff8ab6e801fcbdb"),
    (build_theorem5, (5, 2, 2), {}, "eccd3f1def3d4cc8"),
    (build_theorem5, (7, 3, 3), {}, "fef53cc13502805b"),
    (build_theorem6, (7, 3, 3), {}, "66ec44fc1a4a4b81"),
    (build_theorem7, (11, 5), {}, "04b2e961d655e06b"),
    (build_theorem8, (6, 2), {}, "39b88ea5f423f755"),
    (build_theorem9, ((2, 4, 6), 2), {"enforce_scale": False}, "bf9d0ca3f007dd19"),
]


@pytest.mark.parametrize(
    "builder,args,kwargs,digest", _README_LOGICALS_SHA256,
    ids=[f"{b.__name__}{a}" for b, a, *_ in _README_LOGICALS_SHA256],
)
def test_readme_logical_bases_are_pinned(builder, args, kwargs, digest):
    code = builder(*args, **kwargs)
    logs = logical_operators(code)
    assert len(logs) == code.k
    assert logs.shape == (code.k, 2, 2 * (code.n + code.c))
    assert _digest(logs) == digest


def _greedy_quotient_rows(t: Tableau) -> np.ndarray:
    """The kernel rows an in-order greedy scan over [generators; kernel] keeps."""
    q = t.qubits
    swapped = np.hstack([t.rows[:, q:], t.rows[:, :q]])
    kernel = RowBasis.build(BinaryMatrix.from_dense(swapped)).kernel()
    stacked = np.vstack([t.rows, kernel.to_dense()])
    kept = independent_rows(BinaryMatrix.from_dense(stacked))
    return stacked[kept[kept >= len(t.rows)]]


@pytest.mark.parametrize(
    "builder,args,kwargs,digest", _README_LOGICALS_SHA256,
    ids=[f"{b.__name__}{a}" for b, a, *_ in _README_LOGICALS_SHA256],
)
def test_quotient_rows_match_the_greedy_scan_on_readme_codes(builder, args, kwargs, digest):
    code = builder(*args, **kwargs)
    t = code_tableau(code)
    got = _quotient_rows(t)
    assert len(got) == 2 * code.k
    assert np.array_equal(got, _greedy_quotient_rows(t))


@settings(max_examples=150, deadline=None)
@given(_tableau_pairs())
def test_quotient_rows_match_the_greedy_scan_on_drawn_tableaux(pair):
    # k Z generators on q qubits give q - k logical pairs, none when k = q
    t = pair[0]
    got = _quotient_rows(t)
    assert len(got) == 2 * (t.qubits - t.rank)
    assert got.dtype == np.uint8
    assert np.array_equal(got, _greedy_quotient_rows(t))


def test_quotient_rows_of_a_maximal_group_are_empty():
    mk = PauliVector.from_support
    t = tableau((mk(2, x_on=[0, 1]), mk(2, z_on=[0, 1])))
    assert _quotient_rows(t).shape == _greedy_quotient_rows(t).shape == (0, 4)


def test_logical_operators_memory_is_bounded():
    # every pair is copied out of the working array, so no earlier
    # quotient stays alive; about 4.9 MiB on [[390,132;128]]
    code = build_theorem8(6, 2)
    tracemalloc.start()
    try:
        logical_operators(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_code_tableau_generates_the_same_group():
    code = build_theorem5(3, 1, 1)
    t_code = code_tableau(code)
    t_block = stabilizer_matrix(3)
    assert t_code.qubits == 10
    assert group_preserved(t_block, t_code)
    assert group_preserved(t_code, t_block)


def test_logical_operators_of_a_maximal_group_are_an_empty_stack():
    # XX and ZZ on 2 qubits: the normalizer is the group itself, so k = 0
    mk = PauliVector.from_support
    t = tableau((mk(2, x_on=[0, 1]), mk(2, z_on=[0, 1])))
    got = logical_operators(t)
    assert got.shape == (0, 2, 4)
    assert got.dtype == np.uint8


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
    assert logical_action(t, _frozen_logicals(), GateSequence((("H", 0),))) is None


def test_action_refuses_a_basis_on_another_register():
    t = stabilizer_matrix(3)
    mk = PauliVector.from_support
    wide = logical_stack([(mk(11, x_on=[0]), mk(11, z_on=[0]))])
    logs = _frozen_logicals()
    # a wider register, then stacks of the right width but the wrong shape
    for bad in (wide, logs.reshape(8, 20), logs.reshape(2, 4, 20), logs[:, :1]):
        with pytest.raises(ValueError, match="register size mismatch"):
            logical_action(t, bad, hadamard_swap(3))


def test_action_refuses_broken_basis():
    t = stabilizer_matrix(3)
    logs = _frozen_logicals()
    bad = logs.copy()
    bad[3, 1] = logs[2, 1]
    with pytest.raises(ValueError):
        logical_action(t, bad, hadamard_swap(3))


# ── gate runs, inherited dependencies and the CSS sign rule ───────────


def test_gate_runs_split_where_the_name_changes_or_qubits_meet():
    seq = GateSequence((
        ("H", 0), ("H", 1), ("H", 0), ("S", 2), ("S", 3), ("SDG", 3),
        ("CZ", 0, 1), ("CZ", 2, 3), ("CZ", 1, 2), ("SWAP", 0, 1), ("SWAP", 3, 2),
    ))
    got = [(name, qs.tolist()) for name, qs in seq._runs]
    assert got == [
        ("H", [[0], [1]]), ("H", [[0]]), ("S", [[2], [3]]), ("SDG", [[3]]),
        ("CZ", [[0, 1], [2, 3]]), ("CZ", [[1, 2]]), ("SWAP", [[0, 1], [3, 2]]),
    ]


def _clustered_gates(rng, q: int, count: int) -> GateSequence:
    """Gates over all five names on q qubits; a name often repeats, and
    qubits repeat and overlap, so runs form and split."""
    names = ["H", "S", "SDG", "CZ", "SWAP"]
    gates, name = [], names[0]
    for _ in range(count):
        if rng.random() < 0.4:
            name = names[rng.integers(len(names))]
        arity = 2 if name in ("CZ", "SWAP") else 1
        gates.append((name, *rng.choice(q, arity, replace=False).tolist()))
    return GateSequence(tuple(gates))


def test_gate_runs_match_the_gate_at_a_time_reference():
    rng = np.random.default_rng(31)
    run_lengths = []
    for _ in range(400):
        q = int(rng.integers(2, 7))
        seq = _clustered_gates(rng, q, int(rng.integers(1, 40)))
        rows = rng.integers(0, 2, (int(rng.integers(1, 6)), 2 * q), dtype=np.uint8)
        phases = rng.integers(0, 4, len(rows))
        got_rows, got_phases = rows.copy(), phases.copy()
        _apply_gates(got_rows, got_phases, seq)
        apply_gates_one_at_a_time(rows, phases, seq.gates)
        assert np.array_equal(got_rows, rows), seq
        assert np.array_equal(got_phases, phases), seq
        run_lengths += [len(qs) for _, qs in seq._runs]
    # about a third of the runs hold several gates, up to a full register
    assert max(run_lengths) == 6 and run_lengths.count(1) < 0.8 * len(run_lengths)


@settings(max_examples=150, deadline=None)
@given(_tableau_pairs(), st.data())
def test_a_conjugate_inherits_the_dependencies_of_a_fresh_build(pair, data):
    t = pair[0]
    got = conjugate(t, data.draw(_gate_sequences(t.qubits)))
    fresh = Tableau(got.rows, got.phases)  # the same rows and phases are accepted
    assert got.dependencies is t.dependencies
    assert got.rank == fresh.rank == gfrank(BinaryMatrix.from_dense(got.rows))
    # the inherited rows annihilate the new rows and span their whole kernel
    deps = got.dependencies
    assert not ((deps.astype(np.int64) @ got.rows) % 2).any()
    assert len(deps) == len(got.rows) - got.rank
    assert gfrank(BinaryMatrix.from_dense(deps)) == len(deps)
    assert not deps.flags.writeable


def test_each_group_eliminates_its_dependencies_once(monkeypatch):
    from eaqc import clifford

    calls = []

    def counted(rows):
        calls.append(rows.shape)
        return _dependencies(rows)

    monkeypatch.setattr(clifford, "_dependencies", counted)
    # CSS tableaux of phase 0 build with none
    t = stabilizer_matrix(5)
    code_tableau(build_theorem8(6, 2))
    assert calls == []
    logs = logical_operators(t)
    for seq in (hadamard_swap(5), s_cz(5), h_s_cz(5)):
        assert group_preserved(t, conjugate(t, seq))
        logical_action(t, logs, seq)
    # t's own once, for its rank; every conjugate inherits it; each of
    # the six group_preserved calls eliminates its stack
    assert calls == [(20, 52)] + [(40, 52)] * 6


def _css_stack(rng, q: int) -> np.ndarray:
    """Commuting X and Z rows on q qubits, with repeats and products among
    them, shuffled: X rows drawn from the kernel of the Z rows."""
    hz = rng.integers(0, 2, (int(rng.integers(1, q + 1)), q), dtype=np.uint8)
    hz = np.vstack([hz, (rng.integers(0, 2, (2, len(hz))) @ hz) % 2])
    kernel = RowBasis.build(BinaryMatrix.from_dense(hz)).kernel().to_dense()
    hx = (rng.integers(0, 2, (int(rng.integers(0, q + 2)), len(kernel))) @ kernel) % 2
    rows = np.vstack([np.hstack([hx, np.zeros_like(hx)]),
                      np.hstack([np.zeros_like(hz), hz])]).astype(np.uint8)
    return rows[rng.permutation(len(rows))]


@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_random_css_stacks_of_phase_zero_have_no_negative_dependency(q, seed):
    rows = _css_stack(np.random.default_rng(seed), q)
    phases = np.zeros(len(rows), np.int64)
    assert not symplectic_product(rows, rows).any()
    assert not _negative_dependency(_dependencies(rows), rows, phases)
    Tableau(rows, phases)


@pytest.mark.parametrize(
    "builder,args,kwargs,digest", _README_LOGICALS_SHA256,
    ids=[f"{b.__name__}{a}" for b, a, *_ in _README_LOGICALS_SHA256],
)
def test_readme_code_tableaux_have_no_negative_dependency(builder, args, kwargs, digest):
    t = code_tableau(builder(*args, **kwargs))
    assert not t.phases.any()
    assert not _negative_dependency(_dependencies(t.rows), t.rows, t.phases)


def test_a_css_tableau_with_a_nonzero_phase_checks_its_signs():
    # X1 twice with phases 0 and 2: X1 · (-X1) = -I
    with pytest.raises(ValueError, match="multiplies to -I"):
        Tableau([[1, 0], [1, 0]], [0, 2])
    with pytest.raises(ValueError, match="multiplies to -I"):
        Tableau([[1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]], [0, 0, 2])
    assert Tableau([[1, 0], [1, 0]], [2, 2]).rank == 1
