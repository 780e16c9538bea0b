"""One trial at a time by plain loops: the exact reference for `decode_batch`.

The package decodes a batch of syndromes through one vectorized flooding
loop.  The tests check it against this decoder, which runs one trial at a
time with plain loops over the checks and their edges.  It shares no code
with `eaqc.decoder`: it builds its own edge lists from hx and hz, and its
own variable-to-check messages from the commutation class of each Pauli
with each check.  It does every float operation in the order the
`decoder` docstring documents, so its estimates, convergence flags and
iteration counts equal the package's bit for bit, stalled trials
included:

* a column's sum is its first message plus the rest, added left to right;
* a check's product over its other slots is the running product of the
  slots before it, from the first, times the running product of the slots
  after it, from the last.

It is a helper module, not a test module, so pytest does not collect it.
"""

import numpy as np

CLIP = 1.0 - 1e-12  # tanh-domain clip
# A message clamp the package does not have; the clip alone bounds every
# message below it, so it never binds, and the tests at the guards rely on that.
CLAMP = 30.0


def column_sum(messages):
    """The first message plus the sum of the rest, added left to right."""
    if not messages:
        return 0.0
    first, *rest = messages
    if not rest:
        return first
    total = rest[0]
    for v in rest[1:]:
        total += v
    return first + total


def _check_rule(m, syndrome_bit):
    """Outgoing messages of one check from its incoming messages m."""
    sign = -2.0 if syndrome_bit else 2.0
    t = [np.tanh(v / 2.0) for v in m]
    before, after = [1.0], [1.0]  # running products from the first and the last
    for v in t[:-1]:
        before.append(before[-1] * v)
    for v in t[:0:-1]:
        after.append(after[-1] * v)
    out = []
    for e in range(len(m)):
        pe = before[e] * after[len(m) - 1 - e]
        pe = min(max(pe, -CLIP), CLIP)
        out.append(min(max(sign * np.arctanh(pe), -CLAMP), CLAMP))
    return out


def binary_block(rows, syndrome, n, prior, l_max):
    """One check block as a graph of its own: (bits, converged, iteration).

    rows lists each check's columns among the n bits it explains.
    """
    mu = [[0.0] * len(cols) for cols in rows]
    into = [[] for _ in range(n)]  # (check, slot) of each edge into a bit
    for c, cols in enumerate(rows):
        for e, j in enumerate(cols):
            into[j].append((c, e))
    for it in range(l_max + 1):
        total = [prior + column_sum([mu[c][e] for c, e in into[j]]) for j in range(n)]
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
        s_x = [column_sum([mu[c][e] for c, e in from_x[j]]) for j in range(n)]
        s_z = [column_sum([mu[c][e] for c, e in from_z[j]]) for j in range(n)]
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
    """(est_x, est_z, converged, iterations) of one trial.

    hx and hz are dense 0/1 arrays, sx and sz the trial's syndrome bits and
    cfg a `DecoderConfig`; the estimates are lists of n bits.
    """
    n = hx.shape[1]
    x_rows = [np.flatnonzero(r).tolist() for r in hx]
    z_rows = [np.flatnonzero(r).tolist() for r in hz]
    sx, sz = [int(b) for b in sx], [int(b) for b in sz]
    p = min(max(cfg.p_d, 1e-12), 1.0 - 1e-12)
    if cfg.algorithm == "binary-spa":
        prior = float(np.log((1.0 - p) / p))
        # X checks explain the z bits from sx, Z checks the x bits from sz;
        # each block stops on its own syndrome
        zb, z_ok, z_it = binary_block(x_rows, sx, n, prior, cfg.l_max)
        xb, x_ok, x_it = binary_block(z_rows, sz, n, prior, cfg.l_max)
        return xb, zb, x_ok and z_ok, max(x_it, z_it)
    m0 = float(np.log(p / (3.0 * (1.0 - p))))
    return _quaternary(x_rows, z_rows, sx, sz, n, m0, cfg.l_max)
