"""A Pauli operator as an object: the reference model for the tests.

The package keeps Paulis as (x | z) rows of bits with a phase column.  The
tests check those stacks against this one-operator-at-a-time model: its
product rule against matrix products, its group elements by subset search,
and its folded products against the package's phase rule.  It is a helper
module, not a test module, so pytest does not collect it.
"""

from dataclasses import dataclass

import numpy as np

from eaqc.clifford import Tableau


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
    def from_support(qubits: int, x_on=(), z_on=(), phase: int = 0) -> "PauliVector":
        x = np.zeros(qubits, dtype=np.uint8)
        z = np.zeros(qubits, dtype=np.uint8)
        x[list(x_on)] = 1
        z[list(z_on)] = 1
        return PauliVector(x, z, phase)

    @staticmethod
    def from_row(row: np.ndarray, phase: int = 0) -> "PauliVector":
        q = len(row) // 2
        return PauliVector(row[:q], row[q:], phase)

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


def tableau(gens) -> Tableau:
    """The tableau whose rows and phases are those of the given Paulis."""
    return Tableau(np.array([g.symplectic() for g in gens]), [g.phase for g in gens])


def generators(t: Tableau) -> list[PauliVector]:
    """One PauliVector per row of a tableau, in order."""
    return [PauliVector.from_row(r, p) for r, p in zip(t.rows, t.phases)]


def logical_stack(pairs) -> np.ndarray:
    """The (k, 2, 2q) stack of (X_j, Z_j) pairs of Paulis."""
    return np.array([[a.symplectic(), b.symplectic()] for a, b in pairs], np.uint8)


def logical_pairs(stack: np.ndarray) -> list[tuple[PauliVector, PauliVector]]:
    """The (X_j, Z_j) pairs of a (k, 2, 2q) stack as Paulis."""
    return [(PauliVector.from_row(a), PauliVector.from_row(b)) for a, b in stack]
