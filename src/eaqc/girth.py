"""Cycle analysis: exponent-level 4/6-cycle tests and an exact BFS girth oracle.

At the exponent level, a length-2k cycle in the expanded Tanner graph
exists iff the alternating sum of exponents around a closed block path
vanishes mod the circulant order.  `has_four_cycle` and `has_six_cycle`
evaluate that sum over every closed path through 2 and 3 block-rows.  The BFS
oracle works directly on the expanded bipartite graph and is the
independent ground truth they are tested against.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations, permutations

import numpy as np

from eaqc.gf2 import BinaryMatrix, ModelMatrix

__all__ = [
    "has_four_cycle",
    "has_six_cycle",
    "girth_bfs",
]


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


def girth_bfs(h: BinaryMatrix, cap: int) -> int | float:
    """Exact girth of the bipartite variable/check graph, or inf if > cap.

    Runs a truncated BFS from every vertex; the minimum over roots of
    dist[u] + dist[w] + 1 at non-tree edges is the exact girth when it is
    at most cap.  Returns the integer girth as a float-compatible value,
    or math.inf when every cycle (if any) is longer than cap.
    """
    if cap < 4 or cap % 2 != 0:
        raise ValueError(f"cap must be an even integer >= 4, got {cap}")
    n_vars, n_checks = h.cols, h.rows
    dense = h.to_dense()
    adj: list[list[int]] = [[] for _ in range(n_vars + n_checks)]
    rows_idx, cols_idx = np.nonzero(dense)
    for r, c in zip(rows_idx.tolist(), cols_idx.tolist()):
        adj[c].append(n_vars + r)
        adj[n_vars + r].append(c)

    best = math.inf
    depth_limit = cap // 2
    n_total = n_vars + n_checks
    for root in range(n_total):
        dist = [-1] * n_total
        parent = [-1] * n_total
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if dist[u] >= depth_limit:
                continue
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
        if best == 4:
            return 4
    return best if best <= cap else math.inf
