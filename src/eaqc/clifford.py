"""Phase-tracking stabilizer tableaux and the transversal Clifford operators.

A Pauli operator is stored as i^phase · prod_j X^x_j Z^z_j with the global
phase exponent kept mod 4.  Gate conjugation rules follow from this
convention; the test suite validates every primitive against brute-force
unitary conjugation on 2x2 / 4x4 matrices before anything else relies on
them.

Two rules of the stabilizer formalism (Aaronson & Gottesman, PRA 70,
052328, 2004) each have one home here.  `symplectic_product` is the only
place that forms x·z' + z·x' (mod 2): commutation, the tableau gram check,
the pairing of logicals, their checks and images, and the harness's
coset classes all call it on stacks of (x | z) rows.  `_product_phases` is
the only place that works out the sign of an in-order product of
generators, Σ p_i + 2·Σ_{i<j} z_i·x_j (mod 4).  Its one caller is the
sign rule, `_negative_dependency`: no product of commuting Hermitian
generators that multiplies out to a multiple of I may be −I.  A tableau
applies it to its own generators, and `group_preserved` to the generators
of two tableaux stacked together.  Every mod-2 product in both, and in the
logical action, is a packed `gf2.matmul`; only the mod-4 sums of phases
and pair counts are integer arithmetic.

The three operators built here act across a full code block: a Hadamard
layer with a block-reversal qubit permutation, a phase-gate/CZ layer, and
the Hadamard conjugate of the latter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eaqc.eacode import EaCode
from eaqc.gf2 import BinaryMatrix, RowBasis, gfrank, independent_rows, matmul, nullspace
from eaqc.models import _require_odd_prime, special_prime_model

__all__ = [
    "PauliVector",
    "symplectic_product",
    "category_bits",
    "Tableau",
    "GateSequence",
    "stabilizer_matrix",
    "conjugate",
    "hadamard_swap",
    "s_cz",
    "h_s_cz",
    "group_preserved",
    "logical_operators",
    "logical_action",
    "code_tableau",
]

_GATE_ARITY = {"H": 1, "S": 1, "SDG": 1, "CZ": 2, "SWAP": 2}


@dataclass(frozen=True)
class PauliVector:
    """i^phase · prod_j X^x_j Z^z_j on a register of qubits.

    The (x, z) pair encodes I/X/Y/Z as (0,0)/(1,0)/(1,1)/(0,1); the Y
    convention is Y = i·XZ, so a bare Y on one qubit is (x=1, z=1,
    phase=1).
    """

    x: np.ndarray
    z: np.ndarray
    phase: int = 0

    def __post_init__(self) -> None:
        x = np.ascontiguousarray(np.asarray(self.x, dtype=np.uint8) & 1)
        z = np.ascontiguousarray(np.asarray(self.z, dtype=np.uint8) & 1)
        if x.ndim != 1 or z.shape != x.shape:
            raise ValueError("x and z must be equal-length bit vectors")
        x.flags.writeable = False
        z.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phase", int(self.phase) % 4)

    @property
    def qubits(self) -> int:
        return len(self.x)

    @staticmethod
    def identity(qubits: int) -> "PauliVector":
        return PauliVector(np.zeros(qubits, np.uint8), np.zeros(qubits, np.uint8))

    @staticmethod
    def from_support(qubits: int, x_on=(), z_on=(), phase: int = 0) -> "PauliVector":
        x = np.zeros(qubits, dtype=np.uint8)
        z = np.zeros(qubits, dtype=np.uint8)
        x[list(x_on)] = 1
        z[list(z_on)] = 1
        return PauliVector(x, z, phase)

    def __mul__(self, other: "PauliVector") -> "PauliVector":
        if self.qubits != other.qubits:
            raise ValueError("qubit counts differ")
        # moving other's X block through self's Z block costs (-1) each hit
        cross = int(np.sum(self.z & other.x))
        return PauliVector(
            self.x ^ other.x,
            self.z ^ other.z,
            (self.phase + other.phase + 2 * cross) % 4,
        )

    def symplectic(self) -> np.ndarray:
        return np.concatenate([self.x, self.z])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliVector):
            return NotImplemented
        return (
            self.phase == other.phase
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self) -> int:
        return hash((self.x.tobytes(), self.z.tobytes(), self.phase))


def symplectic_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forms x·z' + z·x' (mod 2) of every row of a with every row of b.

    a and b are 2-D stacks of (x | z) rows of one even width, as 0/1
    integers; entry [i, j] of the result, a uint8 bit, is 1 exactly when
    row i of a anticommutes with row j of b.  It is the GF(2) product of a
    with the (z | x)-swapped rows of b, formed by `gf2.matmul`.
    """
    q = a.shape[1] // 2
    swapped = BinaryMatrix.from_dense(np.hstack([b[:, q:], b[:, :q]]).T)
    return matmul(BinaryMatrix.from_dense(a), swapped).to_dense()


def _product_phases(sel: np.ndarray, rows: np.ndarray,
                    phases: np.ndarray) -> np.ndarray:
    """Phase exponent of each in-order product of selected generators.

    Row r of sel (0/1 over the generators) selects i_1 < i_2 < ...; rows
    are the generators' (x | z) bits and phases their exponents.  Moving
    each later X block through the earlier Z blocks gives
    Σ p_i + 2·Σ_{i<j} z_i·x_j (mod 4).
    """
    q = rows.shape[1] // 2
    zx = matmul(BinaryMatrix.from_dense(rows[:, q:]),
                BinaryMatrix.from_dense(rows[:, :q].T))
    cross = BinaryMatrix.from_dense(np.triu(zx.to_dense(), 1))
    pairs = matmul(BinaryMatrix.from_dense(sel), cross).to_dense() & sel
    return (sel @ phases + 2 * pairs.sum(axis=1)) % 4


def _negative_dependency(rows: np.ndarray, phases: np.ndarray) -> bool:
    """Whether some product of the rows is a multiple of I other than +I.

    rows are commuting Hermitian generators, as (x | z) bits with their
    phase exponents.  The signs of their dependencies then multiply like
    the dependencies add, so checking a basis of the kernel of rowsᵀ
    checks them all.
    """
    deps = nullspace(BinaryMatrix.from_dense(rows.T)).to_dense()
    return bool(len(deps) and _product_phases(deps, rows, phases).any())


def category_bits(cats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) bit arrays of Pauli categories (I, X, Y, Z) = (0, 1, 2, 3)."""
    x = ((cats == 1) | (cats == 2)).astype(np.uint8)
    z = ((cats == 2) | (cats == 3)).astype(np.uint8)
    return x, z


@dataclass(frozen=True)
class GateSequence:
    """Gates listed in order of application (first entry acts first)."""

    gates: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for g in self.gates:
            name, *qs = g
            if name not in _GATE_ARITY or len(qs) != _GATE_ARITY[name]:
                raise ValueError(f"malformed gate {g!r}")
            if any(q < 0 for q in qs):
                raise ValueError(f"negative qubit index in {g!r}")
            if len(qs) == 2 and qs[0] == qs[1]:
                raise ValueError(f"two-qubit gate on one qubit: {g!r}")

    def __iter__(self):
        return iter(self.gates)

    def __len__(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class Tableau:
    """Commuting Hermitian Pauli generators of a stabilizer group.

    Each generator squares to +I.  Generators may be dependent; what is
    enforced is that no dependency multiplies out to −I, so the sign of
    any group element is well defined by any expression in the
    generators.  `group_preserved` applies the same rule to two tableaux
    stacked together.
    """

    generators: tuple[PauliVector, ...]

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("a tableau needs at least one generator")
        q = gens[0].qubits
        if any(g.qubits != q for g in gens):
            raise ValueError("generators disagree on qubit count")
        rows = np.stack([g.symplectic() for g in gens])
        phases = np.array([g.phase for g in gens])
        # i^p·X^x·Z^z squares to (-1)^(p + x·z) I, and a Pauli is Hermitian
        # exactly when it squares to +I
        if ((phases + (rows[:, :q] & rows[:, q:]).sum(axis=1)) % 2).any():
            raise ValueError("a generator is not Hermitian")
        if symplectic_product(rows, rows).any():
            raise ValueError("generators do not pairwise commute")
        if _negative_dependency(rows, phases):
            raise ValueError("a generator dependency multiplies to -I")

    @property
    def qubits(self) -> int:
        return self.generators[0].qubits

    def symplectic(self) -> BinaryMatrix:
        rows = np.stack([g.symplectic() for g in self.generators])
        return BinaryMatrix.from_dense(rows)


# ── gate application ──────────────────────────────────────────────────


def _apply_gates(xs: np.ndarray, zs: np.ndarray, phases: np.ndarray,
                 gates: GateSequence, qubits: int) -> None:
    """Conjugate rows (in place) by each gate in order.

    Rules per the i^phase·X^x·Z^z convention:
      H:    swap x,z; phase += 2xz
      S:    z ^= x;  phase += x
      S†:   z ^= x;  phase += 3x
      CZ:   z_a ^= x_b, z_b ^= x_a; phase += 2 x_a x_b
      SWAP: exchange both columns
    """
    for g in gates:
        name, *qs = g
        if any(q >= qubits for q in qs):
            raise ValueError(f"gate {g!r} is out of range for {qubits} qubits")
        if name == "H":
            (q,) = qs
            phases += 2 * (xs[:, q].astype(np.int64) * zs[:, q])
            xs[:, q], zs[:, q] = zs[:, q].copy(), xs[:, q].copy()
        elif name == "S":
            (q,) = qs
            phases += xs[:, q]
            zs[:, q] ^= xs[:, q]
        elif name == "SDG":
            (q,) = qs
            phases += 3 * xs[:, q].astype(np.int64)
            zs[:, q] ^= xs[:, q]
        elif name == "CZ":
            a, b = qs
            phases += 2 * (xs[:, a].astype(np.int64) * xs[:, b])
            za = zs[:, a] ^ xs[:, b]
            zb = zs[:, b] ^ xs[:, a]
            zs[:, a], zs[:, b] = za, zb
        else:  # SWAP
            a, b = qs
            xs[:, [a, b]] = xs[:, [b, a]]
            zs[:, [a, b]] = zs[:, [b, a]]
    phases %= 4


def conjugate(t: Tableau, g: GateSequence) -> Tableau:
    xs = np.stack([gen.x for gen in t.generators]).copy()
    zs = np.stack([gen.z for gen in t.generators]).copy()
    ph = np.array([gen.phase for gen in t.generators], dtype=np.int64)
    _apply_gates(xs, zs, ph, g, t.qubits)
    return Tableau(tuple(
        PauliVector(xs[i], zs[i], int(ph[i])) for i in range(len(t.generators))
    ))


# ── the block stabilizer and its transversal operators ────────────────


def stabilizer_matrix(p: int) -> Tableau:
    """p(p−1) generators on p²+1 qubits from the scalar-multiple grid.

    Block-row i of the deterministic grid contributes p X-type generators
    for i = 1..(p−1)/2 and p Z-type generators for i = (p−1)/2+1..p−1;
    every generator also touches the final shared-pair qubit.
    """
    _require_odd_prime(p)
    rho = (p - 1) // 2
    q = p * p + 1
    grid = special_prime_model(p).exponents
    gens = []
    for kind_is_x, lo in ((True, 1), (False, rho + 1)):
        for i in range(lo, lo + rho):
            for u in range(p):
                support = [j * p + (u + int(grid[i, j])) % p for j in range(p)]
                support.append(p * p)
                if kind_is_x:
                    gens.append(PauliVector.from_support(q, x_on=support))
                else:
                    gens.append(PauliVector.from_support(q, z_on=support))
    return Tableau(tuple(gens))


def hadamard_swap(p: int) -> GateSequence:
    """Transversal H on every qubit, then block j <-> block p+1-j swaps."""
    _require_odd_prime(p)
    q = p * p + 1
    gates = [("H", i) for i in range(q)]
    for i in range(2, (p + 1) // 2 + 1):
        for k in range(1, p + 1):
            a = (i - 1) * p + k
            b = (p + 1 - i) * p + k
            gates.append(("SWAP", a - 1, b - 1))
    return GateSequence(tuple(gates))


def s_cz(p: int) -> GateSequence:
    """CZ between mirrored blocks, S on the first block, S† on the last qubit.

    Every gate acts on a disjoint qubit set, so the listed order is
    immaterial.
    """
    _require_odd_prime(p)
    gates = []
    for j in range(1, (p - 1) // 2 + 1):
        for k in range(1, p + 1):
            gates.append(("CZ", p * j + k - 1, p * (p - j) + k - 1))
    gates.extend(("S", i) for i in range(p))
    gates.append(("SDG", p * p))
    return GateSequence(tuple(gates))


def h_s_cz(p: int) -> GateSequence:
    """The s_cz operator conjugated by a transversal Hadamard layer."""
    q = p * p + 1
    hs = tuple(("H", i) for i in range(q))
    return GateSequence(hs + s_cz(p).gates + hs)


# ── group preservation and logical structure ──────────────────────────


def group_preserved(before: Tableau, after: Tableau) -> bool:
    """Whether after generates before's stabilizer group, signs included.

    The row spaces are equal when before, after and their stack share one
    rank; the signs agree when no dependency of the stack multiplies to −I.
    """
    if before.qubits != after.qubits:
        raise ValueError("tableaux act on different registers")
    sym_before, sym_after = before.symplectic(), after.symplectic()
    stacked = sym_before.vstack(sym_after)
    if not gfrank(sym_before) == gfrank(sym_after) == gfrank(stacked):
        return False
    phases = [g.phase for g in before.generators + after.generators]
    return not _negative_dependency(stacked.to_dense(), np.array(phases))


def code_tableau(code: EaCode) -> Tableau:
    """Independent generators from the extended check matrices.

    X-type rows carry hex in the x half, Z-type rows carry hez in the z
    half; a row that depends on the rows before it is dropped.
    """
    q = code.n + code.c
    rows = code.stabilizer_rows()
    kept = rows.to_dense()[independent_rows(rows)]
    return Tableau(tuple(PauliVector(v[:q], v[q:]) for v in kept))


def logical_operators(obj) -> list[tuple[PauliVector, PauliVector]]:
    """Canonical anticommuting logical pairs modulo the stabilizer.

    Builds the normalizer as the kernel of the symplectically swapped
    generator matrix, quotients out the stabilizer rows, and pairs the
    representatives so each X-side anticommutes only with its own Z-side.
    """
    t = code_tableau(obj) if isinstance(obj, EaCode) else obj
    q = t.qubits
    sym = t.symplectic().to_dense()
    swapped = np.hstack([sym[:, q:], sym[:, :q]])
    kernel = nullspace(BinaryMatrix.from_dense(swapped)).to_dense()
    # extend the stabilizer rows to a basis of the normalizer
    stacked = np.vstack([sym, kernel])
    kept = independent_rows(BinaryMatrix.from_dense(stacked))
    remaining = stacked[kept[kept >= len(sym)]]
    pairs = []
    while len(remaining):
        a, rest = remaining[0], remaining[1:]
        with_a = symplectic_product(rest, a[None])[:, 0]
        if not with_a.any():
            raise RuntimeError("degenerate symplectic form on the quotient")
        hit = int(np.argmax(with_a))
        b = rest[hit]
        rest = np.delete(rest, hit, axis=0)
        with_a = np.delete(with_a, hit)
        with_b = symplectic_product(rest, b[None])[:, 0]
        # clear each row's form with b by adding a, then its form with a by
        # adding b; (c ^ a)·a = c·a, so both read the rows as they were
        remaining = rest ^ np.outer(with_b, a) ^ np.outer(with_a, b)
        pairs.append(
            (PauliVector(a[:q], a[q:]), PauliVector(b[:q], b[q:]))
        )
    return pairs


def _check_logical_basis(
    t: Tableau, logicals: list[tuple[PauliVector, PauliVector]]
) -> np.ndarray:
    """The logicals' (x | z) rows X1, Z1, X2, Z2, ... once they pass.

    The first failing operator, in that order, names the error: one on the
    wrong register, or one that anticommutes with a generator; then the
    first pair that does not anticommute or meets another pair.
    """
    flat = [op for pair in logicals for op in pair]
    fits = next((i for i, op in enumerate(flat) if op.qubits != t.qubits), len(flat))
    rows = np.array([op.symplectic() for op in flat[:fits]], dtype=np.uint8)
    rows = rows.reshape(fits, 2 * t.qubits)
    if symplectic_product(rows, t.symplectic().to_dense()).any():
        raise ValueError("a supplied logical fails to commute with the group")
    if fits < len(flat):
        raise ValueError("logical operator register size mismatch")
    k = len(logicals)
    gram = symplectic_product(rows, rows)
    pattern = np.kron(np.eye(k, dtype=np.uint8), [[0, 1], [1, 0]])
    wrong = (gram != pattern).reshape(k, 4 * k).any(axis=1)
    if wrong.any():
        i = int(np.argmax(wrong))
        if not gram[2 * i, 2 * i + 1]:
            raise ValueError(f"pair {i} does not anticommute")
        raise ValueError("cross-pair commutation violated")
    return rows


def logical_action(
    t: Tableau,
    logicals: list[tuple[PauliVector, PauliVector]],
    g: GateSequence,
) -> dict[str, tuple[str, ...]]:
    """Image of each logical under g, written in the supplied logical basis.

    Keys and factors are 1-based labels "X1", "Z1", ...  Signs of the
    images are not reported: a representative shifts by stabilizer
    elements, which flips signs freely, so only the class is meaningful.
    """
    after = conjugate(t, g)
    if not group_preserved(t, after):
        raise ValueError("the gate sequence does not preserve the stabilizer group")
    basis = _check_logical_basis(t, logicals)
    q = t.qubits
    xs, zs = basis[:, :q].copy(), basis[:, q:].copy()
    _apply_gates(xs, zs, np.zeros(len(basis), dtype=np.int64), g, q)
    images = np.hstack([xs, zs])
    # the form with Z_j is the X_j coefficient and the form with X_j the
    # Z_j coefficient, so pair each basis row with its partner
    coeff = symplectic_product(images, basis[np.arange(len(basis)) ^ 1])
    spanned = matmul(BinaryMatrix.from_dense(coeff), BinaryMatrix.from_dense(basis))
    stab = RowBasis.build(t.symplectic())
    if not stab.contains_batch(BinaryMatrix.from_dense(images) + spanned).all():
        raise RuntimeError(
            "image does not reduce to the logical basis modulo the group"
        )
    labels = [f"{kind}{j}" for j in range(1, len(logicals) + 1) for kind in "XZ"]
    return {
        label: tuple(labels[c] for c in np.flatnonzero(row))
        for label, row in zip(labels, coeff)
    }
