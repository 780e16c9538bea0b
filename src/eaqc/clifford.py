"""Phase-tracking stabilizer tableaux and the transversal Clifford operators.

A Pauli operator is one (x | z) row of bits with a phase exponent kept
mod 4: i^phase · prod_j X^x_j Z^z_j.  A tableau is a stack of such rows
with a column of phases (Aaronson & Gottesman, PRA 70, 052328, 2004), and
a logical basis is a (k, 2, 2q) stack of rows, X_j then Z_j.  Gate
conjugation rules follow from this convention; the test suite validates
every primitive against brute-force unitary conjugation on 2x2 / 4x4
matrices before anything else relies on them.

Two rules of the stabilizer formalism each have one home here.
`_xz_words` is the one packed form of x·z' + z·x' (mod 2): a row packed
as (x words | z words) anticommutes with another exactly when its AND
with the other's swapped words has odd popcount.  `symplectic_product`
reads every pair of two stacks of (x | z) rows so, as one packed GF(2)
product, for commutation, the tableau gram check and the checks and
images of logicals; `logical_operators` packs its quotient rows once and
pairs them in that form, one AND and one popcount parity per row a step.
It picks the quotient rows off one elimination of the generators on the
normalizer's free columns, not off the stack of generators and kernel.
`_product_phases` is the only place that works out the sign of an
in-order product of generators, Σ p_i + 2·Σ_{i<j} z_i·x_j (mod 4).  Its
one caller is the sign rule, `_negative_dependency`: no product of
commuting Hermitian generators that multiplies out to a multiple of I may
be −I.  A tableau applies it to its own generators, eliminating their
dependencies at most once, and two kinds of tableau need no elimination
for it.  A `conjugate` takes its parent's dependencies and rank: every
gate maps the (x | z) rows by an invertible GF(2) map, so the kernel of
rowsᵀ does not change, and only the signs are checked again.  A CSS
tableau of phase 0 (each row pure X or pure Z, every phase 0) is valid
as it stands: each z_i·x_j term pairs a Z row with an X row, and their
commutation makes the overlap even, so no dependency multiplies to −I.
`group_preserved` applies the rule to the generators of two tableaux
stacked together, reads the stack's rank off its dependencies and
compares it with the two tableaux' ranks.
Every mod-2 product in both, and in the logical action, is a packed
GF(2) product (`gf2.matmul` or its kernel on packed rows); only the mod-4
sums of phases and pair counts are integer arithmetic.

The block stabilizer of the transversal operators is the tableau of the
Theorem-5 code with l1 = l2 = (p−1)/2.  The three operators built here act
across that block: a Hadamard layer with a block-reversal qubit
permutation, a phase-gate/CZ layer, and the Hadamard conjugate of the
latter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from eaqc.eacode import EaCode, build_theorem5
from eaqc.gf2 import BinaryMatrix, RowBasis, _count, _matmul_words, matmul
from eaqc.models import _require_odd_prime

__all__ = [
    "symplectic_product",
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


def _xz_words(rows: np.ndarray) -> np.ndarray:
    """(x | z) rows packed as (x words | z words), each half whole words.

    The symplectic form of two packed rows u and v is the popcount parity
    of u & _swap_xz(v).  `symplectic_product` reads every pair so in one
    GF(2) product, and `_anticommutes_with` every row with one row.
    """
    q = rows.shape[1] // 2
    return np.hstack([BinaryMatrix.from_dense(rows[:, :q]).words,
                      BinaryMatrix.from_dense(rows[:, q:]).words])


def _swap_xz(words: np.ndarray) -> np.ndarray:
    """Packed rows with their x and z words exchanged: (z words | x words)."""
    half = words.shape[-1] // 2
    return np.concatenate([words[..., half:], words[..., :half]], axis=-1)


def _anticommutes_with(words: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each packed row anticommutes with the packed row v."""
    return (np.bitwise_count(words & _swap_xz(v)).sum(axis=1) & 1).astype(bool)


def symplectic_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forms x·z' + z·x' (mod 2) of every row of a with every row of b.

    a and b are 2-D stacks of (x | z) rows of one even width, as 0/1
    integers; entry [i, j] of the result, a uint8 bit, is 1 exactly when
    row i of a anticommutes with row j of b.  It is the GF(2) product of
    a's packed rows with the (z | x)-swapped packed rows of b.
    """
    return _matmul_words(_xz_words(a), _swap_xz(_xz_words(b)))


def _product_phases(sel: np.ndarray, rows: np.ndarray,
                    phases: np.ndarray) -> np.ndarray:
    """Phase exponent of each in-order product of selected generators.

    Row r of sel (0/1 over the generators) selects i_1 < i_2 < ...; rows
    are the generators' (x | z) bits and phases their exponents.  Moving
    each later X block through the earlier Z blocks gives
    Σ p_i + 2·Σ_{i<j} z_i·x_j (mod 4).
    """
    q = rows.shape[1] // 2
    x, z = (BinaryMatrix.from_dense(half).words for half in (rows[:, :q], rows[:, q:]))
    # row j of earlier holds x_j·z_i for each i < j
    earlier = BinaryMatrix.from_dense(np.tril(_matmul_words(x, z), -1))
    pairs = _matmul_words(BinaryMatrix.from_dense(sel).words, earlier.words) & sel
    return (sel @ phases + 2 * pairs.sum(axis=1)) % 4


def _dependencies(rows: np.ndarray) -> np.ndarray:
    """A basis of the kernel of rowsᵀ: the products of rows equal to ±I.

    There are as many as the row count exceeds the rank of rows.
    """
    return RowBasis.build(BinaryMatrix.from_dense(rows.T)).kernel().to_dense()


def _negative_dependency(deps: np.ndarray, rows: np.ndarray, phases: np.ndarray) -> bool:
    """Whether some product of the rows is a multiple of I other than +I.

    rows are commuting Hermitian generators, as (x | z) bits with their
    phase exponents, and deps their `_dependencies`.  The signs of the
    dependencies multiply like the dependencies add, so checking a basis
    checks them all.
    """
    return bool(len(deps) and _product_phases(deps, rows, phases).any())


@dataclass(frozen=True)
class GateSequence:
    """Gates listed in order of application (first entry acts first).

    Each qubit index is kept as a plain int (`gf2._count`): a bool, a
    float or anything without __index__ raises TypeError here.
    """

    gates: tuple[tuple, ...]

    def __post_init__(self) -> None:
        gates = []
        for g in self.gates:
            name, *qs = g
            if name not in _GATE_ARITY or len(qs) != _GATE_ARITY[name]:
                raise ValueError(f"malformed gate {g!r}")
            qs = [_count(q, f"a qubit index of {g!r}") for q in qs]
            if any(q < 0 for q in qs):
                raise ValueError(f"negative qubit index in {g!r}")
            if len(qs) == 2 and qs[0] == qs[1]:
                raise ValueError(f"two-qubit gate on one qubit: {g!r}")
            gates.append((name, *qs))
        object.__setattr__(self, "gates", tuple(gates))

    def __iter__(self):
        return iter(self.gates)

    @cached_property
    def _runs(self) -> tuple[tuple[str, np.ndarray], ...]:
        """The gates as maximal runs of one name on pairwise-disjoint qubits.

        Each run, in order, is (name, an (r, arity) array of its qubits).
        """
        runs, used = [], set()
        for name, *qs in self.gates:
            if not runs or runs[-1][0] != name or used.intersection(qs):
                runs.append((name, []))
                used = set()
            runs[-1][1].append(qs)
            used.update(qs)
        return tuple((name, np.array(qs, dtype=np.intp)) for name, qs in runs)


@dataclass(frozen=True, eq=False)
class Tableau:
    """Commuting Hermitian Pauli generators of a stabilizer group.

    rows is an (m, 2q) uint8 stack of (x | z) generators and phases their
    (m,) int64 exponents mod 4; both are read-only copies.  They are given
    as integers (or bools), read mod 2 and mod 4; any other dtype raises
    TypeError.  Each generator squares to +I.  Generators may be
    dependent; what is enforced is that no dependency multiplies out to
    −I, so the sign of any group element is well defined by any expression
    in the generators.  `group_preserved` applies the same rule to two
    tableaux stacked together.

    dependencies, a read-only basis of the kernel of rowsᵀ (one row per
    product of generators equal to ±I); rank, the dimension of the row
    space, m less their count; and basis, the rows' reduced echelon form
    for membership, are each built on first use and then kept.  A CSS
    tableau of phase 0 checks its signs without its dependencies, and a
    `conjugate` takes its parent's.
    """

    rows: np.ndarray
    phases: np.ndarray

    def __post_init__(self) -> None:
        rows, phases = np.asarray(self.rows), np.asarray(self.phases)
        if rows.dtype.kind not in "biu" or phases.dtype.kind not in "biu":
            raise TypeError("a tableau needs integer rows and phases, "
                            f"got {rows.dtype} and {phases.dtype}")
        rows = rows.astype(np.uint8) & 1
        phases = phases.astype(np.int64) % 4
        if rows.ndim != 2 or rows.shape[1] % 2 or phases.shape != rows.shape[:1]:
            raise ValueError("a tableau needs (m, 2q) rows and one phase per row")
        if not len(rows):
            raise ValueError("a tableau needs at least one generator")
        rows.flags.writeable = False
        phases.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "phases", phases)
        q = self.qubits
        # i^p·X^x·Z^z squares to (-1)^(p + x·z) I, and a Pauli is Hermitian
        # exactly when it squares to +I
        if ((phases + (rows[:, :q] & rows[:, q:]).sum(axis=1)) % 2).any():
            raise ValueError("a generator is not Hermitian")
        if symplectic_product(rows, rows).any():
            raise ValueError("generators do not pairwise commute")
        # a CSS tableau of phase 0 needs no dependencies (see the module notes)
        mixed = (rows[:, :q].any(axis=1) & rows[:, q:].any(axis=1)).any()
        if ((mixed or phases.any())
                and _negative_dependency(self.dependencies, rows, phases)):
            raise ValueError("a generator dependency multiplies to -I")

    @property
    def qubits(self) -> int:
        return self.rows.shape[1] // 2

    @cached_property
    def dependencies(self) -> np.ndarray:
        deps = _dependencies(self.rows)
        deps.flags.writeable = False
        return deps

    @cached_property
    def rank(self) -> int:
        return len(self.rows) - len(self.dependencies)

    @cached_property
    def basis(self) -> RowBasis:
        return RowBasis.build(BinaryMatrix.from_dense(self.rows))


# ── gate application ──────────────────────────────────────────────────


def _apply_gates(rows: np.ndarray, phases: np.ndarray, gates: GateSequence) -> None:
    """Conjugate (x | z) rows and their phases (in place) by each gate in order.

    Rules per the i^phase·X^x·Z^z convention:
      H:    swap x,z; phase += 2xz
      S:    z ^= x;  phase += x
      S†:   z ^= x;  phase += 3x
      CZ:   z_a ^= x_b, z_b ^= x_a; phase += 2 x_a x_b
      SWAP: exchange both columns

    Each run of same-name gates on pairwise-disjoint qubits
    (`GateSequence._runs`) is one update over its columns: gates on
    disjoint qubits commute, and none reads a column another writes.
    """
    qubits = rows.shape[1] // 2
    xs, zs = rows[:, :qubits], rows[:, qubits:]
    for name, qs in gates._runs:
        out = (qs >= qubits).any(axis=1)
        if out.any():
            g = (name, *qs[np.argmax(out)].tolist())
            raise ValueError(f"gate {g!r} is out of range for {qubits} qubits")
        a, b = qs[:, 0], qs[:, -1]  # b is a for one-qubit gates
        if name == "H":
            xa, za = xs[:, a], zs[:, a]
            phases += 2 * (xa & za).sum(axis=1, dtype=np.int64)
            xs[:, a], zs[:, a] = za, xa
        elif name in ("S", "SDG"):
            xa = xs[:, a]
            phases += (1 if name == "S" else 3) * xa.sum(axis=1, dtype=np.int64)
            zs[:, a] ^= xa
        elif name == "CZ":
            phases += 2 * (xs[:, a] & xs[:, b]).sum(axis=1, dtype=np.int64)
            zs[:, a], zs[:, b] = zs[:, a] ^ xs[:, b], zs[:, b] ^ xs[:, a]
        else:  # SWAP
            ab, ba = np.concatenate([a, b]), np.concatenate([b, a])
            xs[:, ab], zs[:, ab] = xs[:, ba], zs[:, ba]
    phases %= 4


def conjugate(t: Tableau, g: GateSequence) -> Tableau:
    """The tableau of t's generators conjugated by g.

    Every gate maps the (x | z) rows by an invertible GF(2) map, so the
    kernel of rowsᵀ does not change: the result takes t's dependencies and
    rank instead of eliminating its rows again.  Its rows and phases are
    checked as any tableau's are, the signs against those dependencies.
    """
    rows, phases = t.rows.copy(), t.phases.copy()
    _apply_gates(rows, phases, g)
    out = object.__new__(Tableau)
    vars(out).update(dependencies=t.dependencies, rank=t.rank)
    out.__init__(rows, phases)
    return out


# ── the block stabilizer and its transversal operators ────────────────


def stabilizer_matrix(p: int) -> Tableau:
    """The block stabilizer: p(p−1) generators on p²+1 qubits.

    It is `code_tableau` of the Theorem-5 code with l1 = l2 = (p−1)/2:
    block-row i of the deterministic grid gives p X-type generators for
    i = 1..(p−1)/2 and p Z-type generators for i = (p−1)/2+1..p−1, and
    every generator also touches the final shared-pair qubit.
    """
    return code_tableau(build_theorem5(p, (p - 1) // 2, (p - 1) // 2))


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
    rank, each being its row count less its dependencies; the signs agree
    when no dependency of the stack multiplies to −I.
    """
    if before.qubits != after.qubits:
        raise ValueError("tableaux act on different registers")
    stacked = np.vstack([before.rows, after.rows])
    deps = _dependencies(stacked)
    if not before.rank == after.rank == len(stacked) - len(deps):
        return False
    return not _negative_dependency(deps, stacked, np.append(before.phases, after.phases))


def code_tableau(code: EaCode) -> Tableau:
    """Every extended check of a code as a generator of phase 0.

    X-type rows carry hex in the x half, Z-type rows carry hez in the z
    half.  Dependent rows stay: a tableau admits them.
    """
    rows = code.stabilizer_rows().to_dense()
    return Tableau(rows, np.zeros(len(rows), dtype=np.int64))


def _quotient_rows(t: Tableau) -> np.ndarray:
    """Kernel rows of the swapped generators that extend t to the normalizer.

    They are the kernel rows an in-order greedy scan over [generators;
    kernel] keeps, as (x | z) rows.  Kernel row i is 1 at the i-th free
    column and 0 at the others, so a normalizer element is the sum of the
    kernel rows at its free 1s, and the scan drops row i exactly when some
    product of generators has its last free 1 at i: a pivot of one
    elimination of the generators' free columns, in reverse order.
    """
    q = t.qubits
    swapped = np.hstack([t.rows[:, q:], t.rows[:, :q]])
    normalizer = RowBasis.build(BinaryMatrix.from_dense(swapped))
    free = normalizer.free_cols
    last = RowBasis.build(BinaryMatrix.from_dense(t.rows[:, free[::-1]])).pivot_cols
    kept = np.setdiff1d(np.arange(len(free)), len(free) - 1 - last)
    return normalizer.kernel().to_dense()[kept]


def logical_operators(obj) -> np.ndarray:
    """Canonical anticommuting logical pairs modulo the stabilizer.

    Builds the normalizer as the kernel of the symplectically swapped
    generator matrix, keeps the kernel rows that extend the stabilizer
    rows to a basis of it (`_quotient_rows`), and pairs those
    representatives so each X-side anticommutes only with its own Z-side.
    The quotient rows are packed once and paired in packed form.
    Returns a (k, 2, 2q) uint8 stack: pair j is the (x | z) rows of X_j
    then Z_j; k = 0 when the normalizer is the stabilizer.
    """
    t = code_tableau(obj) if isinstance(obj, EaCode) else obj
    q = t.qubits
    remaining = _xz_words(_quotient_rows(t))
    pairs = []
    while len(remaining):
        a, rest = remaining[0], remaining[1:]
        with_a = _anticommutes_with(rest, a)
        if not with_a.any():
            raise RuntimeError("degenerate symplectic form on the quotient")
        hit = int(np.argmax(with_a))
        b = rest[hit]
        others = np.arange(len(rest)) != hit
        # a copy, so no view keeps an earlier working array alive
        rest, with_a = rest[others], with_a[others]
        with_b = _anticommutes_with(rest, b)
        # clear each row's form with b by adding a, then its form with a by
        # adding b; (c ^ a)·a = c·a, so both read the rows as they were
        rest[with_b] ^= a
        rest[with_a] ^= b
        pairs.append(np.stack([a, b]))
        remaining = rest
    words = np.array(pairs, dtype=np.uint64).reshape(-1, remaining.shape[1])
    half = words.shape[1] // 2
    x, z = (BinaryMatrix(len(words), q, w).to_dense()
            for w in (words[:, :half], words[:, half:]))
    return np.hstack([x, z]).reshape(-1, 2, 2 * q)


def _check_logical_basis(t: Tableau, logicals: np.ndarray) -> np.ndarray:
    """The logicals' (x | z) rows X1, Z1, X2, Z2, ... once they pass.

    A stack that is not (k, 2, 2q) on t's register fails first; then the
    first operator, in that order, that anticommutes with a generator; then
    the first pair that does not anticommute or meets another pair.
    """
    logicals = np.asarray(logicals, dtype=np.uint8)
    if logicals.ndim != 3 or logicals.shape[1:] != (2, t.rows.shape[1]):
        raise ValueError("logical operator register size mismatch")
    rows = logicals.reshape(-1, t.rows.shape[1])
    if symplectic_product(rows, t.rows).any():
        raise ValueError("a supplied logical fails to commute with the group")
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
    t: Tableau, logicals: np.ndarray, g: GateSequence
) -> dict[str, tuple[str, ...]] | None:
    """Image of each logical under g, written in the supplied logical basis.

    logicals is a (k, 2, 2q) stack as `logical_operators` returns.  Keys
    and factors are 1-based labels "X1", "Z1", ...  Signs of the images are
    not reported: a representative shifts by stabilizer elements, which
    flips signs freely, so only the class is meaningful.  Returns None when
    g does not preserve the stabilizer group, so a caller need not conjugate
    and check g first.
    """
    if not group_preserved(t, conjugate(t, g)):
        return None
    basis = _check_logical_basis(t, logicals)
    images = basis.copy()
    _apply_gates(images, np.zeros(len(images), dtype=np.int64), g)
    # the form with Z_j is the X_j coefficient and the form with X_j the
    # Z_j coefficient, so pair each basis row with its partner
    coeff = symplectic_product(images, basis[np.arange(len(basis)) ^ 1])
    spanned = matmul(BinaryMatrix.from_dense(coeff), BinaryMatrix.from_dense(basis))
    if not t.basis.contains_batch(BinaryMatrix.from_dense(images) + spanned).all():
        raise RuntimeError(
            "image does not reduce to the logical basis modulo the group"
        )
    labels = [f"{kind}{j}" for j in range(1, len(basis) // 2 + 1) for kind in "XZ"]
    return {
        label: tuple(labels[c] for c in np.flatnonzero(row))
        for label, row in zip(labels, coeff)
    }
