#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (under a minute).

    python3 perfbench/smoke.py

Checks that run.py emits, for every workload, every metric named in
BENCHMARK.json with its unit (end-to-end untraced, per-layer traced); that
a non-default seed runs on internal checks alone; that a corrupted
reference makes it exit nonzero; and that it refuses to run, without a
result, where the package sources are missing.  Exits nonzero on the first
failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "smoke"
TIMEOUT_S = 300


def _run(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def _check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        sys.exit(1)


def _check_metrics(workload: str, trace: int, spec: dict) -> None:
    code, stdout = _run(["--workload", workload, "--seed", "0", "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny"])
    doc = _result(stdout)
    label = f"{workload} trace={trace}"
    _check(code == 0 and doc is not None, f"{label}: exit 0 with a result")
    _check(set(doc) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys")
    _check(doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1,
           f"{label}: correct, {doc['failed']}/{doc['attempted']} failed")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    _check(set(doc["metrics"]) == {m["name"] for m in wanted},
           f"{label}: every {'per-layer' if trace else 'end-to-end'} metric")
    wrong = []
    for m in wanted:
        got = doc["metrics"][m["name"]]
        value = got["value"]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and got["unit"] == m["unit"] and (trace or value > 0)):
            wrong.append(f"{m['name']} = {value!r} {got['unit']}")
    _check(not wrong, f"{label}: values and units {wrong or ''}")


def _check_corrupted(workload: str, corrupt) -> None:
    reference = json.loads((HERE / "reference.json").read_text())
    corrupt(reference)
    path = OUT / f"corrupt_{workload}.json"
    path.write_text(json.dumps(reference))
    code, stdout = _run(["--workload", workload, "--seconds", "1",
                         "--size", "tiny", "--reference", str(path)])
    doc = _result(stdout)
    _check(code != 0 and doc is not None and doc["correct"] is False
           and doc["failed"] >= 1,
           f"{workload}: a corrupted reference exits {code} with correct=false")


def _bump_first_mc_point(reference: dict) -> None:
    first = next(iter(reference["mc"]["tiny"]["grid08"].values()))
    first["failures"] += 1


def _bump_burst_answer(reference: dict) -> None:
    reference["verify"]["burst_oracle [[9,4;1]] window=3"]["spa_corrected"] += 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if OUT.exists():
        shutil.rmtree(OUT)
    OUT.mkdir(parents=True)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            _check_metrics(workload, trace, spec)

    code, stdout = _run(["--workload", "grid08", "--seed", "3",
                         "--seconds", "1", "--size", "tiny"])
    _check(code == 0 and "reference: none recorded for seed 3" in stdout,
           "seed 3: no reference, internal checks pass")

    _check_corrupted("grid08", _bump_first_mc_point)
    _check_corrupted("verify", _bump_burst_answer)

    stripped = OUT / "stripped"
    shutil.copytree(HERE, stripped / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    code, stdout = _run(["--workload", "grid08", "--seconds", "1"], cwd=stripped)
    _check(code != 0 and _result(stdout) is None,
           f"without src/: exits {code} and prints no result")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
