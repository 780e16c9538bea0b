"""Correctness checks for benchmark operations.

Every Monte-Carlo point gets internal checks at any seed: the CSV row is
self-consistent (LER and Wilson interval recomputed from its failures),
non-converged trials are a subset of failures, and the point set matches
the reference's.  At seed 0, pass 0, each point must also equal the
recorded reference: CSV row bytes (on the recorded columns), failures
and non_converged.  Verification verdicts are compared with known answers,
which do not depend on the seed.  The traced run is also checked against
the untraced one, step by step.

No module of the package is imported at the top of this file: the worker
imports it before timing the first import of ``eaqc``.
"""

from __future__ import annotations

import csv
import io

import workloads

MAX_REPORTED = 20


def _join(values: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(values)
    return buf.getvalue()


def _fields(out: dict) -> dict[str, str]:
    return dict(zip(out["columns"], next(csv.reader([out["row"]]))))


def mc_internal_error(workload: str, size: str, master_seed: int,
                      out: dict) -> str | None:
    from eaqc.harness import wilson_interval

    f = _fields(out)
    trials, failures = int(f["trials"]), int(f["failures"])
    expected_trials = workloads.TRIALS[size][workload]
    if trials != expected_trials:
        return f"trials {trials}, expected {expected_trials}"
    if int(f["seed"]) != master_seed:
        return f"seed {f['seed']}, expected {master_seed}"
    if failures != out["failures"]:
        return f"CSV failures {failures} but run_trials returned {out['failures']}"
    if not 0 <= out["non_converged"] <= failures <= trials:
        return (f"counts out of order: non_converged {out['non_converged']}, "
                f"failures {failures}, trials {trials}")
    if f["LER"] != str(failures / trials):
        return f"LER {f['LER']} is not {failures}/{trials}"
    low, high = wilson_interval(failures, trials)
    if (f["ci_low"], f["ci_high"]) != (str(low), str(high)):
        return f"Wilson interval ({f['ci_low']}, {f['ci_high']}) != ({low}, {high})"
    return None


def mc_reference_error(out: dict, recorded: dict, columns: list[str]) -> str | None:
    f = _fields(out)
    missing = [c for c in columns if c not in f]
    if missing:
        return f"CSV lacks the recorded columns {missing}"
    row = _join([f[c] for c in columns])
    if row != recorded["row"]:
        return f"CSV row {row!r} != reference {recorded['row']!r}"
    for name in ("failures", "non_converged"):
        if out[name] != recorded[name]:
            return f"{name} {out[name]} != reference {recorded[name]}"
    return None


class Tally:
    """Counts operations checked and keeps the first failures' messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []
        self.compared_with_reference = False

    def _record(self, key: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.errors.append(f"{key}: {error}")

    def add_ops(self, workload: str, size: str, master_seed: int,
                ops: list, reference: dict) -> None:
        if workload == "verify":
            known = reference["verify"]
            for key, out in ops:
                want = known.get(key)
                self._record(key, None if out == want else
                             f"got {out!r}, known answer {want!r}")
            return
        recorded = reference["mc"][size][workload]
        columns = reference["mc"]["columns"]
        keys = sorted(key for key, _ in ops)
        if keys != sorted(recorded):
            self._record(f"{workload} point set", f"{keys} != reference "
                                                  f"{sorted(recorded)}")
        for key, out in ops:
            error = mc_internal_error(workload, size, master_seed, out)
            if error is None and master_seed == 0 and key in recorded:
                self.compared_with_reference = True
                error = mc_reference_error(out, recorded[key], columns)
            self._record(key, error)

    def add_repeat(self, ops: list, first: list) -> None:
        """A later round of the same seed must repeat the first one's outputs."""
        before = dict(first)
        for key, out in ops:
            self._record(key, None if out == before.get(key) else
                         "differs from the first round at the same seed")

    def add_faithfulness(self, plain_ops: list, traced_ops: list,
                         points: list[dict], replays_equal: bool) -> None:
        """The traced pass must reproduce the untraced one, step by step."""
        self._record("traced pass equals untraced pass",
                     None if plain_ops == traced_ops else "outputs differ")
        self._record("decode replays equal traced decodes",
                     None if replays_equal else "a replay differs")
        for point in points:
            self._record(f"decomposition {workloads.point_label(point['cfg'])}",
                         decomposition_error(point))

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.errors),
            "errors": self.errors[:MAX_REPORTED],
            "compared_with_reference": self.compared_with_reference,
        }


def decomposition_error(point: dict) -> str | None:
    """Rebuild a point's SimResult from the outputs of its traced steps.

    Sampled errors -> syndromes the decoder saw -> residuals tested for
    stabilizer membership -> failures, non-converged count and Wilson
    interval; the result must equal what run_trials returned.
    """
    import numpy as np

    from eaqc.harness import SimResult, wilson_interval

    needed = ("xs", "syndromes", "decoded", "member", "result")
    if any(name not in point for name in needed):
        return "a step was not observed: " + ", ".join(
            name for name in needed if name not in point)
    cfg, xs, zs = point["cfg"], point["xs"], point["zs"]
    hx = cfg.code.hx.to_dense().astype(np.int64)
    hz = cfg.code.hz.to_dense().astype(np.int64)
    sx, sz = point["syndromes"]
    if not (np.array_equal(sx, (zs.astype(np.int64) @ hx.T) % 2)
            and np.array_equal(sz, (xs.astype(np.int64) @ hz.T) % 2)):
        return "decoded syndromes are not those of the sampled errors"
    est_x, est_z, conv, _ = point["decoded"]
    rx, rz = point["residual"]
    if not (np.array_equal(rx, xs ^ est_x) and np.array_equal(rz, zs ^ est_z)):
        return "tested residuals are not sampled XOR decoded errors"
    failures = int(np.count_nonzero(~(point["member"] & conv)))
    low, high = wilson_interval(failures, cfg.trials)
    rebuilt = SimResult(
        trials=cfg.trials,
        failures=failures,
        non_converged=int(np.count_nonzero(~conv)),
        ler=failures / cfg.trials,
        ci_low=low,
        ci_high=high,
    )
    if rebuilt != point["result"]:
        return f"rebuilt {rebuilt} != run_trials {point['result']}"
    return None
