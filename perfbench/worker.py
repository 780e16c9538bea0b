"""The measured process of one benchmark run; started by run.py.

    worker.py setup WORKLOAD
        time importing eaqc and building the workload's codes
    worker.py run WORKLOAD SIZE SEED SECONDS TRACE REFERENCE OUTDIR
        run passes and print one JSON document on the last line

The untraced run repeats rounds of the same work until the next pass
would end after SECONDS, but always completes the first round.  A round is
one pass per master seed of ``workloads.round_seeds`` (seed*1000+i).  Each
timed part of a pass keeps its fastest time over the rounds: the host's
speed drifts over seconds and minutes, and a slow phase only ever adds
time.  The sum of those fastest times is scaled to the host's reference
speed by the host probe (``hostprobe.py``), which tracks slow phases that
last the whole run; the result is ``wall_s``.  Every round's outputs are checked.  The traced run makes
pass 0 once untraced and once traced; its per-layer metrics come from the
traced copy and the set-up traced before it.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import workloads


def _setup(workload: str) -> None:
    t0 = time.perf_counter()
    workloads.build_codes(workload)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_pass(workload, size, master_seed, recorder):
    t0 = time.perf_counter()
    ops, _, _ = workloads.run_pass(workload, size, master_seed, recorder)
    return ops, time.perf_counter() - t0


def _prepare(workload, seed, recorder) -> None:
    """Run one small untimed pass to warm the process."""
    recorder.install(trace=False)
    workloads.run_pass(workload, "tiny", workloads.pass_seed(seed, 0), recorder)


def _run_untraced(workload, size, seed, seconds, reference, recorder):
    import hostprobe  # imports numpy, which the set-up time must include

    _prepare(workload, seed, recorder)
    recorder.probe = hostprobe.HostProbe()
    recorder.probe.sample()
    seeds = workloads.round_seeds(workload, size, seed)
    start = time.perf_counter()
    fastest: dict = {}
    first: dict = {}
    passes, checked = [], checks.Tally()
    done = 0  # trials (or, on verify, verdicts) in one round
    while True:
        master_seed = seeds[len(passes) % len(seeds)]
        t0 = time.perf_counter()
        ops, trials, parts = workloads.run_pass(workload, size, master_seed,
                                                recorder)
        passes.append(time.perf_counter() - t0)
        for label, secs in parts.items():
            key = (master_seed, label)
            fastest[key] = min(secs, fastest.get(key, secs))
        if master_seed in first:
            checked.add_repeat(ops, first[master_seed])
        else:
            first[master_seed] = ops
            done += trials or len(ops)
            checked.add_ops(workload, size, master_seed, ops, reference)
        elapsed = time.perf_counter() - start
        if (len(passes) >= len(seeds)
                and elapsed + statistics.median(passes) > seconds):
            break
    recorder.uninstall()
    measured = sum(fastest.values())
    probe = recorder.probe.summary()
    wall = measured * hostprobe.REFERENCE_MS / probe["p10_ms"]
    return {
        "metrics": {
            "wall_s": wall,
            "trials_per_s": done / wall,
            "peak_rss_mb": _peak_rss_mb(),
        },
        "measured_wall_s": measured,
        "host_probe": probe,
        "passes_s": passes,
        "rounds": len(passes) / len(seeds),
        "parts": len(fastest),
        **checked.summary(),
    }


def _run_traced(workload, size, seed, reference, recorder):
    import tracing

    _prepare(workload, seed, recorder)
    master_seed = workloads.pass_seed(seed, 0)
    plain_ops, plain_wall = _timed_pass(workload, size, master_seed, recorder)
    recorder.uninstall()
    checked = checks.Tally()
    checked.add_ops(workload, size, master_seed, plain_ops, reference)

    recorder.install(trace=True)
    with recorder.root("bench.setup"):
        workloads.build_codes(workload)
    with recorder.root("bench.pass") as root_index:
        traced_ops, traced_wall = _timed_pass(workload, size, master_seed,
                                                 recorder)
    recorder.uninstall()

    checked.add_ops(workload, size, master_seed, traced_ops, reference)
    checked.add_faithfulness(plain_ops, traced_ops, recorder.points,
                             recorder.replay_decodes())

    metrics = tracing.layer_metrics(recorder.spans)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.coverage"] = tracing.coverage(recorder.spans, root_index)
    points = [
        {"point": workloads.point_label(point["cfg"]),
         "split": tracing.point_split(recorder.spans, point)}
        for point in recorder.points
    ]
    return {
        "metrics": metrics,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "layers": tracing.layer_self_times(recorder.spans, within=root_index),
        "layers_inclusive": tracing.layer_inclusive_times(recorder.spans,
                                                          root_index),
        "points": points,
        "spans": recorder.spans,
        **checked.summary(),
    }


def _run(workload, size, seed, seconds, trace, reference_path, outdir):
    import tracing

    reference = json.loads(Path(reference_path).read_text())
    recorder = tracing.Recorder()
    if trace:
        doc = _run_traced(workload, size, seed, reference, recorder)
        spans = doc.pop("spans")
        outdir.mkdir(parents=True, exist_ok=True)
        target = outdir / f"spans_{workload}_{size}_seed{seed}.json"
        target.write_text(json.dumps([
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
            for s in spans
        ]))
        doc["spans_file"] = str(target)
    else:
        doc = _run_untraced(workload, size, seed, seconds, reference, recorder)
    import numpy

    doc["numpy"] = numpy.__version__
    print(json.dumps(doc, default=float))


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        _setup(argv[1])
        return 0
    _, workload, size, seed, seconds, trace, reference, outdir = argv
    _run(workload, size, int(seed), float(seconds), trace == "1", reference,
         Path(outdir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
