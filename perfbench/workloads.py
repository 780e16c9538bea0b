"""The benchmark workloads: the codes each one builds and one pass over it.

A pass returns a list of operations ``(key, output)``.  An operation is one
Monte-Carlo point (its CSV row, failures and non-converged count) or one
verification verdict; ``output`` is what the reference and the internal
checks compare.  A pass also times its parts, so that a run can keep the
fastest time of every part over repeated rounds of the same work.  A part
is a ``sweep`` call or a verification verdict; untraced, each call to a
function of ``tracing.PART_TARGETS`` inside it (a Monte-Carlo point, a rank
computation) is a part of its own, and the call keeps the rest.  Every call into the package goes through a module attribute
(``cli.main``, ``harness.burst_oracle``, ...) so that the span recorders installed
by ``tracing.py`` see it.

No module of the package is imported at the top of this file: the set-up
measurement times the first import of ``eaqc`` itself.
"""

from __future__ import annotations

import contextlib
import csv
import io
import time

WORKLOADS = ("grid08", "verify")

# Trials per Monte-Carlo point, sized so that most batches hold a stalled
# trial, as in the criterion-08 grid.  "tiny" is the smoke test's size.
TRIALS = {
    "full": {"grid08": 100},
    "tiny": {"grid08": 20},
}
SIZES = tuple(TRIALS)
# Master seeds per round of a run.  How many batches stall depends on the
# seed, so the time of one seed's pass varies from seed to seed; a round
# sums several seeds to even that out.
SEEDS_PER_ROUND = {
    "full": {"grid08": 8, "verify": 1},
    "tiny": {"grid08": 1, "verify": 1},
}

GRID08_CODES = ((5, 2), (7, 3))  # thm5 (p, l1 = l2): [[25,8;1]], [[49,12;1]]
GRID08_PD = "0.02,0.03"
GRID08_ETA = "0.0,0.5"
MC_DECODERS = ("binary-spa", "quaternary-spa")
L_MAX = 100

# The README table: label -> (family, builder arguments).
FAMILIES = (
    ("thm5 p=3 l1=1 l2=1", "thm5", (3, 1, 1)),
    ("thm5 p=5 l1=2 l2=2", "thm5", (5, 2, 2)),
    ("thm5 p=7 l1=3 l2=3", "thm5", (7, 3, 3)),
    ("thm6 p=7 l1=3 l2=3", "thm6", (7, 3, 3)),
    ("thm7 p=11 l=5", "thm7", (11, 5)),
    ("thm8 l=6 w=2", "thm8", (6, 2)),
    ("thm9 s=2,4,6 w=2 reduced", "thm9", ((2, 4, 6), 2)),
    ("thm10 s=2,4,6 w=2 reduced", "thm10", ((2, 4, 6), 2)),
)
VERIFY_TRANSVERSAL_P = {"full": (3, 5, 7), "tiny": (3,)}
VERIFY_LOGICAL_CODES = {
    "full": ("thm7 p=11 l=5", "thm8 l=6 w=2"),
    "tiny": ("thm5 p=5 l1=2 l2=2",),
}
VERIFY_SMALL_CODE = "thm5 p=3 l1=1 l2=1"  # [[9,4;1]]: burst and ML oracles
BURST_WINDOW = 3
ML_PD = 0.03


def pass_seed(seed: int, index: int) -> int:
    """Master seed of pass ``index`` of a round of a run started with ``seed``.

    Pass 0 uses the workload seed itself, so ``--seed 0`` pass 0 is the
    configuration the reference was recorded from.
    """
    return seed * 1000 + index


def round_seeds(workload: str, size: str, seed: int) -> list[int]:
    """The master seeds of the passes that make one round of a run."""
    return [pass_seed(seed, i)
            for i in range(SEEDS_PER_ROUND[size][workload])]


def _timed(parts: dict, recorder, label: str, fn, *args):
    recorder.take_call_seconds()
    recorder.sample_host()
    t0 = time.perf_counter()
    out = fn(*args)
    parts[label] = time.perf_counter() - t0
    for i, secs in enumerate(recorder.take_call_seconds()):
        parts[f"{label} call {i}"] = secs
        parts[label] -= secs
    return out


def code_label(code) -> str:
    return f"[[{code.n},{code.k};{code.c}]]"


def point_label(cfg) -> str:
    """A Monte-Carlo point of a SimConfig, as the traced run reports it."""
    return (f"{code_label(cfg.code)} {cfg.decoder.algorithm} "
            f"p_d={cfg.channel.p_d} eta={cfg.channel.eta}")


def _build_family(family: str, args):
    from eaqc import eacode

    if family in ("thm9", "thm10"):
        build = eacode.build_theorem9 if family == "thm9" else eacode.build_theorem10
        return build(*args, enforce_scale=False)
    build = {
        "thm5": eacode.build_theorem5,
        "thm6": eacode.build_theorem6,
        "thm7": eacode.build_theorem7,
        "thm8": eacode.build_theorem8,
    }[family]
    return build(*args)


def _family_models(family: str, args):
    """(mx, mz) model matrices; mz is None for single-matrix families."""
    from eaqc import eacode, models

    if family == "thm5":
        return eacode.theorem5_selection(*args)
    if family == "thm6":
        return models.theorem6_models(*args)
    if family == "thm7":
        return eacode.theorem7_model(*args), None
    if family == "thm8":
        return models.theorem8_model(*args), None
    build = models.theorem9_model if family == "thm9" else models.theorem10_model
    return build(*args, enforce_scale=False), None


def build_codes(workload: str) -> dict:
    """The codes a workload needs, by README label."""
    wanted = {
        "grid08": ("thm5 p=5 l1=2 l2=2", "thm5 p=7 l1=3 l2=3"),
        "verify": tuple(label for label, _, _ in FAMILIES),
    }[workload]
    return {
        label: _build_family(family, args)
        for label, family, args in FAMILIES
        if label in wanted
    }


# ── Monte-Carlo passes ─────────────────────────────────────────────────


def _csv_ops(text: str, results: list) -> list:
    """One operation per CSV row, paired with its run_trials result."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = lines[1:]
    if len(rows) != len(results):
        raise RuntimeError(
            f"{len(rows)} CSV rows but {len(results)} run_trials results"
        )
    ops = []
    for line, res in zip(rows, results):
        row = dict(zip(header, next(csv.reader([line]))))
        key = (f"{row['family']} n={row['n']} {row['decoder']} "
               f"p_d={row['p_d']} eta={row['eta']}")
        ops.append((key, {
            "columns": header,
            "row": line,
            "failures": res.failures,
            "non_converged": res.non_converged,
        }))
    return ops


def _grid08_pass(trials: int, master_seed: int, recorder,
                 parts: dict) -> list:
    from eaqc import cli

    ops = []
    for p, l in GRID08_CODES:
        for decoder in ("binary", "quat"):
            argv = [
                "sweep", "--family", "thm5", "--p", str(p),
                "--l1", str(l), "--l2", str(l),
                "--pd", GRID08_PD, "--eta", GRID08_ETA,
                "--decoder", decoder, "--trials", str(trials),
                "--seed", str(master_seed),
            ]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = _timed(parts, recorder, f"sweep p={p} {decoder}",
                                cli.main, argv)
            if status != 0:
                raise RuntimeError(f"eaqc {' '.join(argv)} exited {status}")
            ops += _csv_ops(buf.getvalue(), recorder.take_results())
    return ops


# ── verification pass ──────────────────────────────────────────────────


def _girth_verdict(family: str, args) -> dict:
    from eaqc import eacode, gf2, girth

    mx, mz = _family_models(family, args)
    floor = eacode.girth_floor_of(mx, mz)
    stacked = mx if mz is None else mx.vstack(mz)
    found = girth.girth_bfs(gf2.expand(stacked), cap=8)
    bfs = None if found == float("inf") else int(found)
    agree = bfs == floor if floor in (4, 6) else (bfs is None or bfs >= 8)
    return {"floor": floor, "bfs": bfs, "agree": agree}


def _transversal_verdict(p: int) -> dict:
    from eaqc import clifford

    t = clifford.stabilizer_matrix(p)
    sequences = (clifford.hadamard_swap(p), clifford.s_cz(p), clifford.h_s_cz(p))
    preserved = [clifford.group_preserved(t, clifford.conjugate(t, seq))
                 for seq in sequences]
    logicals = clifford.logical_operators(t)
    actions = [len(clifford.logical_action(t, logicals, seq))
               for seq in sequences]
    return {"preserved": preserved, "pairs": len(logicals), "actions": actions}


def _ml_verdict(code) -> dict:
    import numpy as np

    from eaqc import harness

    table = harness.ml_coset_decoder(code, ML_PD)
    hx = code.hx.to_dense().astype(np.int64)
    hz = code.hz.to_dense().astype(np.int64)
    consistent = True
    for key, (x, z) in table.items():
        syn = np.concatenate([(hx @ z.astype(np.int64)) % 2,
                              (hz @ x.astype(np.int64)) % 2]).astype(np.uint8)
        consistent &= syn.tobytes() == key
    return {"syndromes": len(table), "representatives_match": bool(consistent)}


def _verify_pass(size: str, recorder, parts: dict) -> list:
    from eaqc import clifford, harness

    ops = []

    def verdict(key, fn, *args):
        ops.append((key, _timed(parts, recorder, key, fn, *args)))

    codes = {}
    for label, family, args in FAMILIES:
        key = f"build {label}"
        code = codes[label] = _timed(parts, recorder, key, _build_family,
                                     family, args)
        ops.append((key, [code.n, code.k, code.c]))
    for label, family, args in FAMILIES:
        verdict(f"girth {label}", _girth_verdict, family, args)
    for p in VERIFY_TRANSVERSAL_P[size]:
        verdict(f"transversal p={p}", _transversal_verdict, p)
    for label in VERIFY_LOGICAL_CODES[size]:
        code = codes[label]
        verdict(f"logical_operators {code_label(code)}",
                lambda c: len(clifford.logical_operators(c)), code)
    small = codes[VERIFY_SMALL_CODE]
    key = f"burst_oracle {code_label(small)} window={BURST_WINDOW}"
    rep = _timed(parts, recorder, key, harness.burst_oracle, small,
                 BURST_WINDOW)
    ops.append((key, {
        "patterns": rep.patterns,
        "oracle_corrected": rep.oracle_corrected,
        "spa_corrected": rep.spa_corrected,
    }))
    verdict(f"ml_coset_decoder {code_label(small)} p_d={ML_PD}",
            _ml_verdict, small)
    return ops


def run_pass(workload: str, size: str, master_seed: int,
             recorder) -> tuple[list, int, dict]:
    """One pass; returns (operations, Monte-Carlo trials completed, parts).

    ``parts`` maps the label of each timed part of the pass to its seconds.
    """
    trials = TRIALS[size].get(workload, 0)
    parts: dict = {}
    if workload == "verify":
        return _verify_pass(size, recorder, parts), 0, parts
    ops = _grid08_pass(trials, master_seed, recorder, parts)
    return ops, trials * len(ops), parts
