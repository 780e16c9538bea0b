#!/usr/bin/env python3
"""Record the Monte-Carlo reference outputs into perfbench/reference.json.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs pass 0 of every Monte-Carlo workload at seed 0, for every size, and
stores each point's CSV row, failures and non_converged.  Run it only at a
commit whose outputs are trusted.  The verification section holds known
answers (the README table, the burst-oracle counts of the test suite) and
is kept as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    from eaqc.harness import CSV_COLUMNS

    target = HERE / "reference.json"
    reference = json.loads(target.read_text())
    mc: dict = {"seed": 0, "columns": list(CSV_COLUMNS)}
    recorder = tracing.Recorder()
    recorder.install(trace=False)
    try:
        for size in workloads.SIZES:
            mc[size] = {}
            for workload in workloads.WORKLOADS:
                if workload == "verify":
                    continue
                ops, _, _ = workloads.run_pass(
                    workload, size, workloads.pass_seed(0, 0), recorder)
                mc[size][workload] = {
                    key: {name: out[name]
                          for name in ("row", "failures", "non_converged")}
                    for key, out in ops
                }
                print(f"{size} {workload}: {len(ops)} points", flush=True)
    finally:
        recorder.uninstall()
    reference["mc"] = mc
    target.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
