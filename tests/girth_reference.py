"""Girth by one deque BFS per root: the plain reference for `girth_bfs`.

The package finds the girth with a level-synchronous BFS from many roots at
once on packed bits.  The tests check it against this one-root-at-a-time
search, which reads each non-tree edge as it meets it.  It is a helper
module, not a test module, so pytest does not collect it.
"""

import math
from collections import deque

import numpy as np

from eaqc.gf2 import BinaryMatrix


def girth_bfs_reference(h: BinaryMatrix, cap: int) -> int | float:
    """Exact girth of the bipartite variable/check graph, or inf if > cap.

    Runs a truncated BFS from every vertex; the minimum over roots of
    dist[u] + dist[w] + 1 at non-tree edges is the exact girth when it is
    at most cap.
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
