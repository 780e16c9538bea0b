#!/usr/bin/env python3
"""Per-layer split of the ROADMAP's baseline points, from the bench's spans.

    PYTHONPATH=src python3 perfbench/roadmap_baseline.py [--trials 5000]

Runs [[25,8;1]] and [[49,12;1]] at p_d 0.03, eta 0.5, seed 0, with both
decoders, under the span recorders of ``--trace 1``.  It prints one
markdown row per layer, in seconds.  At 5000 trials it takes about a minute.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROWS = (
    ("construct (build_theorem5, inclusive)", ("eacode.build",)),
    ("graphs + stabilizer basis", ("decoder.graphs", "harness.stabilizer",
                                   "gf2.rowbasis")),
    ("channel sampling", ("channel.sample",)),
    ("syndrome (run_trials self time)", ("harness.syndrome",)),
    ("decode", ("decoder.decode",)),
    ("coset membership", ("harness.coset", "gf2.contains")),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trials", type=int, default=5000)
    args = ap.parse_args()

    from eaqc import harness
    from eaqc.channel import ChannelParams
    from eaqc.decoder import DecoderConfig

    recorder = tracing.Recorder()
    recorder.install(trace=True)
    columns = []
    try:
        with recorder.root("bench.setup"):
            codes = workloads.build_codes("grid08")
        builds = [s[tracing.END] - s[tracing.START] for s in recorder.spans
                  if s[tracing.NAME] == "eacode.build"]
        for code, built in zip(codes.values(), builds):
            for algorithm in workloads.MC_DECODERS:
                harness.run_trials(harness.SimConfig(
                    code, ChannelParams(0.03, 0.5),
                    DecoderConfig(algorithm, p_d=0.03, l_max=workloads.L_MAX),
                    args.trials, 0))
                split = tracing.point_split(recorder.spans, recorder.points[-1])
                split["eacode.build"] = built
                columns.append((f"{workloads.code_label(code)} {algorithm}", split))
    finally:
        recorder.uninstall()

    print("| layer | " + " | ".join(name for name, _ in columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for row, names in ROWS:
        cells = [f"{sum(split.get(n, 0.0) for n in names):.4f}"
                 for _, split in columns]
        print(f"| {row} | " + " | ".join(cells) + " |")
    totals = [f"{split['total']:.3f}" for _, split in columns]
    print("| point total (run_trials) | " + " | ".join(totals) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
