"""Cycle analysis: exponent-level 4/6-cycle tests and an exact BFS girth oracle.

At the exponent level, a length-2k cycle in the expanded Tanner graph
exists iff the alternating sum of exponents around a closed block path
vanishes mod the circulant order.  `has_four_cycle` and `has_six_cycle`
evaluate that sum over every closed path through 2 and 3 block-rows.  The BFS
oracle works directly on the expanded bipartite graph and is the
independent ground truth they are tested against.

`girth_bfs` runs that BFS from a block of roots at once, level by level:
bit j of a vertex's uint64 words says that root j has reached it, and one
gather per neighbour slot of a padded table moves every root's frontier a
level.  A vertex first reached along two shortest paths closes a cycle.
Roots go through in blocks whose scratch stays within `gf2._MATMUL_BYTES`,
the bound of `gf2.matmul`, so memory does not grow as V².  The tests keep
the one-root-at-a-time deque BFS it replaced as its reference.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np

from eaqc import gf2
from eaqc.gf2 import BinaryMatrix, ModelMatrix

__all__ = [
    "has_four_cycle",
    "has_six_cycle",
    "girth_bfs",
]

# (vertex, root-word) arrays that one block of roots holds at once
_BFS_ARRAYS = 6


def has_four_cycle(m: ModelMatrix) -> bool:
    """Some pair of block-rows whose difference repeats an entry mod order.

    Cycles of length 4 need two distinct block-rows and two distinct
    block-columns (checks within one circulant strip share no variable),
    so row-pair differences cover every case; a model with fewer than two
    block-rows is trivially 4-cycle-free.
    """
    e = m.exponents
    for i, j in combinations(range(m.block_rows), 2):
        d = (e[i] - e[j]) % m.order
        if len(np.unique(d)) != len(d):
            return True
    return False


def has_six_cycle(m: ModelMatrix) -> bool:
    """Any vanishing alternating sum over 3 distinct block-rows x 3 columns.

    Six-cycles force pairwise-distinct block-rows and block-columns, so
    enumerating unordered triples with both row orientations and all
    column arrangements is exhaustive.
    """
    br, bc = m.block_rows, m.block_cols
    if br < 3 or bc < 3:
        return False
    e = m.exponents
    n = m.order
    col_triples = np.asarray(list(combinations(range(bc), 3)))
    for r0, r1, r2 in combinations(range(br), 3):
        for a, b, c in ((r0, r1, r2), (r0, r2, r1)):
            for perm in permutations(range(3)):
                x = col_triples[:, perm[0]]
                y = col_triples[:, perm[1]]
                z = col_triples[:, perm[2]]
                s = (e[a, x] - e[a, y] + e[b, y] - e[b, z] + e[c, z] - e[c, x]) % n
                if (s == 0).any():
                    return True
    return False


def _neighbours(h: BinaryMatrix) -> np.ndarray:
    """(V, max degree) table of each vertex's neighbours, padded with V.

    Vertices are the h.cols variables, then the h.rows checks.  The set
    bits are read from the packed words, so no dense copy of h is made.
    """
    r, w = np.nonzero(h.words)
    bits = np.unpackbits(h.words[r, w].view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little")
    i, b = np.nonzero(bits)
    variables, checks = w[i] * 64 + b, h.cols + r[i]
    src = np.concatenate([variables, checks])
    dst = np.concatenate([checks, variables])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    n_total = h.cols + h.rows
    degree = np.bincount(src, minlength=n_total)
    slot = np.arange(len(src)) - np.repeat(np.cumsum(degree) - degree, degree)
    table = np.full((n_total, degree.max(initial=0)), n_total, dtype=np.intp)
    table[src, slot] = dst
    return table


def _first_double_reach(table: np.ndarray, roots: np.ndarray, levels: int) -> int:
    """First level d <= levels at which a root newly reaches a vertex twice.

    Bit j of a vertex's words stands for roots[j].  Each level ORs the
    neighbours' frontier words into "reached once" and, where two of them
    meet, "reached twice"; the vertices reached once and never seen before
    form the next frontier.  Returns 0 when no level has such a vertex.
    """
    n_total, degree = table.shape
    words = (len(roots) + 63) // 64
    # the padding row n_total stays zero, so padded table entries add nothing
    frontier = np.zeros((n_total + 1, words), dtype=np.uint64)
    j = np.arange(len(roots))
    frontier[roots, j >> 6] = np.uint64(1) << (j & 63).astype(np.uint64)
    seen = frontier[:n_total].copy()
    once, twice, step, both = (np.empty_like(seen) for _ in range(4))
    for d in range(1, levels + 1):
        np.take(frontier, table[:, 0], axis=0, out=once)
        twice.fill(0)
        for k in range(1, degree):
            np.take(frontier, table[:, k], axis=0, out=step)
            np.bitwise_and(once, step, out=both)
            twice |= both
            once |= step
        np.bitwise_not(seen, out=step)
        once &= step
        twice &= once
        if twice.any():
            return d
        seen |= once
        frontier[:n_total] = once
    return 0


def girth_bfs(h: BinaryMatrix, cap: int) -> int | float:
    """Exact girth of the bipartite variable/check graph, or inf if > cap.

    A BFS from every root at once, level by level on packed bits.  If a
    vertex is first reached at level d along two shortest paths, those
    paths close a cycle of length at most 2d; a root on a shortest cycle,
    of length g, reaches the vertex opposite it twice at level g/2, and no
    root reaches a vertex twice sooner.  So the girth is twice the first
    such level over all roots.  Every cycle alternates variables and
    checks, so the roots are the smaller side.  Roots go through in blocks
    whose scratch holds at most `gf2._MATMUL_BYTES`, and a block after a
    hit searches only the levels below it.  Returns the integer girth, or
    math.inf when every cycle (if any) is longer than cap, a `_count`.
    """
    cap = gf2._count(cap, "cap")
    if cap < 4 or cap % 2 != 0:
        raise ValueError(f"cap must be an even integer >= 4, got {cap}")
    table = _neighbours(h)
    n_total, degree = table.shape
    if degree < 2:
        return math.inf
    roots = np.arange(h.cols) if h.cols <= h.rows else np.arange(h.cols, n_total)
    words = max(1, gf2._MATMUL_BYTES // (_BFS_ARRAYS * 8 * (n_total + 1)))
    best, levels = math.inf, cap // 2
    for lo in range(0, len(roots), 64 * words):
        d = _first_double_reach(table, roots[lo : lo + 64 * words], levels)
        if d:
            best, levels = 2 * d, d - 1
    return best
