#!/usr/bin/env python3
"""Benchmark of eaqc: Monte-Carlo throughput and verification time, by layer.

    python3 perfbench/run.py --workload grid08 [--seed 0] [--seconds 55]
                             [--trace 0|1] [--size full|tiny]
                             [--reference perfbench/reference.json]

Runs one workload (see BENCHMARK.json and perfbench/NOTES.md) against the
package under ``src/`` of the checkout holding this file.  Set-up is timed
in several fresh interpreters; the workload runs in one more fresh process
with numpy/BLAS threads pinned to one.  With ``--trace 0`` the result
carries the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a traced pass.  Every output is checked; the last line of standard output
is one JSON object {correct, attempted, failed, metrics}, and the exit
status is nonzero when any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
# Set-up is timed this many times before the measured run and as many
# times after it, so that its median spans the run's whole time window.
SETUP_REPEATS = {"full": 3, "tiny": 1}
# One thread: the package's arithmetic is integer numpy, which BLAS does not
# run, and a second thread only meets the host's other load.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
import hostprobe  # noqa: E402
import workloads  # noqa: E402


def _parse(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny shrinks every workload for the smoke test")
    ap.add_argument("--reference", default=str(HERE / "reference.json"))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _environment(args, threads: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": None,  # filled in from the worker's import
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "threads": {name: threads for name in THREAD_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _child(argv: list[str], env: dict, deadline: float) -> str:
    """Run a fresh interpreter on worker.py; returns its last output line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}"
        )
    return proc.stdout.strip().splitlines()[-1]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "eaqc" / "__init__.py").is_file():
        print(f"error: no eaqc package under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    threads = THREADS
    env = dict(os.environ)
    env.update({name: threads for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    environment = _environment(args, threads)
    outdir = HERE / "out"

    def setup_times() -> list[float]:
        if args.trace:  # set-up is an end-to-end metric only
            return []
        return [
            json.loads(_child(["setup", args.workload], env, deadline))["setup_s"]
            for _ in range(SETUP_REPEATS[args.size])
        ]

    try:
        setups = setup_times()
        doc = json.loads(_child(
            ["run", args.workload, args.size, str(args.seed), str(args.seconds),
             str(args.trace), args.reference, str(outdir)],
            env, deadline,
        ))
        setups += setup_times()
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    environment["numpy"] = doc.pop("numpy")

    if args.trace:
        wanted = spec["per_layer"]
        metrics = doc["metrics"]
    else:
        wanted = spec["end_to_end"]
        metrics = dict(doc["metrics"], setup_s=statistics.median(setups))
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = {m["name"]: metrics[m["name"]] for m in wanted}

    outdir.mkdir(exist_ok=True)
    record = outdir / (f"result_{args.workload}_{args.size}_seed{args.seed}"
                       f"_trace{args.trace}.json")
    record.write_text(json.dumps(
        {"environment": environment, "metrics": metrics, "setup_runs_s": setups,
         **doc}, indent=1, default=float))

    print("env " + json.dumps(environment))
    if args.workload == "verify":
        print("reference: known answers, independent of the seed")
    elif doc["compared_with_reference"]:
        print("reference: seed 0 outputs compared with the recorded reference")
    else:
        print(f"reference: none recorded for seed {args.seed}; internal "
              "checks only")
    if args.trace:
        _print_trace(doc)
    else:
        for i, secs in enumerate(doc["passes_s"]):
            print(f"pass {i}: {secs:.3f} s")
        print(f"{doc['rounds']:.3g} rounds; fastest time of each of "
              f"{doc['parts']} parts, summed: {doc['measured_wall_s']:.3f} s")
        probe = doc["host_probe"]
        print(f"host probe: {probe['samples']} samples, median "
              f"{probe['median_ms']:.3f} ms, p10 {probe['p10_ms']:.3f} ms, "
              f"min {probe['min_ms']:.3f} ms")
        print(f"wall_s = {doc['measured_wall_s']:.3f} s x "
              f"{hostprobe.REFERENCE_MS} ms / {probe['p10_ms']:.3f} ms = "
              f"{doc['metrics']['wall_s']:.3f} s")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    frac = doc["failed"] / doc["attempted"]
    print(f"ops_failed_frac = {frac:.6g} ({doc['failed']}/{doc['attempted']})")
    for error in doc["errors"]:
        print(f"FAILED {error}")
    correct = doc["failed"] == 0
    print(f"verdict: {'correct' if correct else 'WRONG OUTPUT'}; record {record}")
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def _print_trace(doc: dict) -> None:
    print(f"tracing: untraced pass {doc['untraced_wall_s']:.3f} s, traced pass "
          f"{doc['traced_wall_s']:.3f} s")
    total = sum(doc["layers"].values())
    print(f"layer {'':28s} {'self':>9s}  {'share':>6s} {'inclusive':>10s}")
    for name, secs in sorted(doc["layers"].items(), key=lambda kv: -kv[1]):
        print(f"layer {name:28s} {secs:8.4f}s {100 * secs / total:6.1f}% "
              f"{doc['layers_inclusive'][name]:9.4f}s")
    for p in doc["points"]:
        split = dict(p["split"])
        point_total = split.pop("total")
        parts = ", ".join(
            f"{name} {100 * secs / point_total:.1f}%"
            for name, secs in sorted(split.items(), key=lambda kv: -kv[1])
            if secs > 0.0005 * point_total
        )
        print(f"point {p['point']}: {point_total:.3f} s = {parts}")


if __name__ == "__main__":
    sys.exit(main())
