"""How fast the host ran while a workload was measured.

A fixed kernel, built from bench code and numpy only, is timed every so
often between the timed parts of a run.  It does on fixed inputs what the
package's hot loops do: a sum-product check-node update on float messages,
a row reduction over GF(2) on uint8 rows, an integer matrix product mod 2,
and small Python-level calls.  Its time depends on the host alone, never on
the package.  The tenth percentile of its times over a run measures how fast
the host ran; the workload's time is scaled by ``REFERENCE_MS`` over that
figure, which puts runs made in a slow phase of the host on the same footing
as the others.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The probe's tenth percentile on a calm 2-core Xeon VM.  Any fixed value
# would do: the parent and the change are scaled by the same one.
REFERENCE_MS = 5.0

_RNG = np.random.default_rng(20250113)
_MSG = _RNG.normal(scale=3.0, size=(100, 40, 8))
_GATHER = _RNG.integers(0, 320, size=(40, 8))
_ROWS = _RNG.integers(0, 2, size=(96, 320), dtype=np.uint8)
_LEFT = _RNG.integers(0, 2, size=(100, 240)).astype(np.int64)
_RIGHT = _RNG.integers(0, 2, size=(240, 96)).astype(np.int64)


def _kernel() -> int:
    t = np.tanh(np.clip(_MSG, -20.0, 20.0) / 2.0)
    t = np.where(np.abs(t) < 1e-12, 1e-12, t)
    ex = np.prod(t, axis=-1, keepdims=True) / t
    mu = 2.0 * np.arctanh(np.clip(ex, -0.999999, 0.999999))
    gathered = mu.reshape(100, -1)[:, _GATHER].sum()

    rows, rank = _ROWS.copy(), 0
    for col in range(0, rows.shape[1], 4):
        hits = np.nonzero(rows[rank:, col])[0]
        if hits.size == 0:
            continue
        pivot = rank + int(hits[0])
        rows[[rank, pivot]] = rows[[pivot, rank]]
        mask = rows[:, col].astype(bool)
        mask[rank] = False
        rows[mask] ^= rows[rank]
        rank += 1
        if rank == rows.shape[0]:
            break

    syndrome = (_LEFT @ _RIGHT) % 2
    labels = {f"row{i}": int(v) for i, v in enumerate(syndrome[:, 0])}
    return rank + len(labels) + int(gathered > 0)


class HostProbe:
    """Times the kernel at most once per ``every_s`` seconds."""

    def __init__(self, every_s: float = 0.2) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self._due = 0.0

    def sample(self) -> None:
        if time.perf_counter() < self._due:
            return
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._due = t1 + self.every_s

    def summary(self) -> dict:
        ms = sorted(1e3 * s for s in self.samples)
        return {
            "samples": len(ms),
            "min_ms": ms[0],
            "p10_ms": ms[len(ms) // 10],
            "median_ms": statistics.median(ms),
        }
