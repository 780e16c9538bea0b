"""Gate conjugation one gate at a time: the reference for `_apply_gates`.

The package applies each run of same-name gates on disjoint qubits as one
update over its columns.  The tests check it against this loop, which
applies the gates in order, one column pair per gate.  It is a helper
module, not a test module, so pytest does not collect it.
"""

import numpy as np


def apply_gates_one_at_a_time(rows: np.ndarray, phases: np.ndarray, gates) -> None:
    """Conjugate (x | z) rows and their int64 phases (in place) by each gate.

    Rules per the i^phase·X^x·Z^z convention:
      H:    swap x,z; phase += 2xz
      S:    z ^= x;  phase += x
      S†:   z ^= x;  phase += 3x
      CZ:   z_a ^= x_b, z_b ^= x_a; phase += 2 x_a x_b
      SWAP: exchange both columns
    """
    qubits = rows.shape[1] // 2
    xs, zs = rows[:, :qubits], rows[:, qubits:]
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
