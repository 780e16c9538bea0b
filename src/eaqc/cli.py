"""Command-line front end.

Subcommands: construct, params, girth, transversal, simulate, sweep,
burst-check.  Single results print as JSON; sweeps print as CSV.  Any
verification failure (structure checks, girth mismatch, non-preserved
operator) exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from eaqc.channel import ChannelParams
from eaqc.clifford import (
    conjugate,
    group_preserved,
    h_s_cz,
    hadamard_swap,
    logical_action,
    logical_operators,
    s_cz,
    stabilizer_matrix,
)
from eaqc.decoder import DecoderConfig
from eaqc.eacode import FAMILIES, StructureCheckFailed
from eaqc.girth import girth_bfs
from eaqc.harness import (
    BurstTooLarge,
    SimConfig,
    burst_oracle,
    sweep,
    write_csv,
)

# the flags that carry a family's builder arguments (see eacode.FAMILIES)
_CODE_FLAGS = ("p", "l1", "l2", "l", "w", "set")

_DECODER_NAMES = {
    "binary": "binary-spa",
    "quat": "quaternary-spa",
}


def _usage_error(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _parse_set(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as err:
        raise _usage_error(f"--set expects comma-separated integers: {err}")


def _build_code(args):
    build, flags = FAMILIES[args.family]
    missing = [f"--{n}" for n in flags if getattr(args, n) is None]
    if missing:
        raise _usage_error(f"--family {args.family} needs {', '.join(missing)}")
    stray = [f"--{n}" for n in _CODE_FLAGS
             if n not in flags and getattr(args, n) is not None]
    if args.reduced and "set" not in flags:
        stray.append("--reduced")
    if stray:
        raise _usage_error(f"--family {args.family} does not read {', '.join(stray)}")
    values = [_parse_set(args.set) if n == "set" else getattr(args, n)
              for n in flags]
    if "set" in flags:
        return build(*values, enforce_scale=not args.reduced)
    return build(*values)


def _bit_rows(m) -> list[str]:
    return ["".join(str(int(b)) for b in row) for row in m.to_dense()]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_construct(args) -> int:
    code = _build_code(args)
    doc = {
        "family": code.family,
        "n": code.n,
        "k": code.k,
        "c": code.c,
        "mx": code.mx.to_json_dict(),
        "mz": code.mz.to_json_dict(),
        "hex": _bit_rows(code.hex),
        "hez": _bit_rows(code.hez),
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_params(args) -> int:
    code = _build_code(args)
    doc = {
        "family": code.family,
        "n": code.n,
        "k": code.k,
        "c": code.c,
        "gfrank_hx": code.rank_hx,
        "gfrank_hz": code.rank_hz,
        "girth_floor": code.girth_floor,
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_girth(args) -> int:
    code = _build_code(args)
    floor = code.girth_floor
    stacked = code.hx if code.hz is code.hx else code.hx.vstack(code.hz)
    found = girth_bfs(stacked, cap=8)
    bfs_value = None if found == float("inf") else int(found)
    doc = {"family": code.family,
           "girth_floor": floor, "bfs_cap": 8, "bfs_girth": bfs_value}
    _emit(json.dumps(doc, indent=2), args.out)
    if floor in (4, 6):
        return 0 if bfs_value == floor else 1
    return 0 if bfs_value is None or bfs_value >= 8 else 1


def _cmd_transversal(args) -> int:
    t = stabilizer_matrix(args.p)
    sequences = {
        "hadamard_swap": hadamard_swap(args.p),
        "s_cz": s_cz(args.p),
        "h_s_cz": h_s_cz(args.p),
    }
    preserved = {
        name: group_preserved(t, conjugate(t, seq))
        for name, seq in sequences.items()
    }
    doc = {"p": args.p, "preserved": preserved, "logical_action": {}}
    if all(preserved.values()):
        logs = logical_operators(t)
        for name, seq in sequences.items():
            act = logical_action(t, logs, seq)
            doc["logical_action"][name] = {k: list(v) for k, v in act.items()}
    _emit(json.dumps(doc, indent=2), args.out)
    return 0 if all(preserved.values()) else 1


def _sim_config(args, p_d: float, eta: float) -> SimConfig:
    code = _build_code(args)
    decoder = DecoderConfig(_DECODER_NAMES[args.decoder], p_d=p_d, l_max=args.lmax)
    return SimConfig(
        code=code,
        channel=ChannelParams(p_d, eta),
        decoder=decoder,
        trials=args.trials,
        master_seed=args.seed,
    )


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as err:
        raise _usage_error(f"expected comma-separated numbers: {err}")


def _cmd_simulate(args) -> int:
    values = _parse_floats(args.pd)
    etas = _parse_floats(args.eta)
    if len(values) != 1 or len(etas) != 1:
        raise _usage_error("simulate takes a single --pd and --eta")
    cfg = _sim_config(args, values[0], etas[0])
    _emit(json.dumps(sweep(cfg, values, etas)[0], indent=2), args.out)
    return 0


def _cmd_sweep(args) -> int:
    pd_values = _parse_floats(args.pd)
    eta_values = _parse_floats(args.eta)
    # every point decodes with the first --pd as its prior
    prior = pd_values[0] if pd_values else 0.0
    rows = sweep(_sim_config(args, prior, 0.0), pd_values, eta_values)
    _emit(write_csv(rows, None), args.out)
    return 0


def _cmd_burst_check(args) -> int:
    values = _parse_floats(args.pd)
    if len(values) != 1:
        raise _usage_error("burst-check takes a single --pd")
    code = _build_code(args)
    decoder = DecoderConfig(_DECODER_NAMES[args.decoder], p_d=values[0], l_max=args.lmax)
    rep = burst_oracle(code, args.length, spa_cfg=decoder)
    doc = {
        "family": code.family,
        "n": code.n,
        "burst_len": rep.burst_len,
        "windows": rep.windows,
        "patterns": rep.patterns,
        "oracle_corrected": rep.oracle_corrected,
        "oracle_fraction": rep.oracle_fraction,
        "spa_corrected": rep.spa_corrected,
        "spa_fraction": rep.spa_fraction,
        "oracle_failures": [
            {"x_support": list(xs), "z_support": list(zs)}
            for xs, zs in rep.oracle_failures
        ],
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _add_code_flags(sp) -> None:
    sp.add_argument("--family", required=True, choices=tuple(FAMILIES))
    for name in _CODE_FLAGS:
        sp.add_argument(f"--{name}", type=str if name == "set" else int)
    sp.add_argument("--reduced", action="store_true",
                    help="waive the minimum-exponent floor for thm9/thm10")


def _add_decoder_flags(sp) -> None:
    sp.add_argument("--pd", type=str, default="0.03")
    sp.add_argument("--decoder", choices=sorted(_DECODER_NAMES), default="quat")
    sp.add_argument("--lmax", type=int, default=100)


def _add_sim_flags(sp) -> None:
    _add_decoder_flags(sp)
    sp.add_argument("--eta", type=str, default="0.0")
    sp.add_argument("--trials", type=int, default=5000)
    sp.add_argument("--seed", type=int, default=0)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The eaqc argument parser, built on the first call and then reused.

    parse_args keeps nothing between calls, so one parser serves every
    `main` call of a process.
    """
    parser = argparse.ArgumentParser(
        prog="eaqc",
        description="Construct, verify, and simulate quasi-cyclic "
                    "entanglement-assisted quantum LDPC codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("construct", _cmd_construct),
        ("params", _cmd_params),
        ("girth", _cmd_girth),
    ):
        sp = sub.add_parser(name)
        _add_code_flags(sp)
        sp.add_argument("--out", type=str)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("transversal")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--out", type=str)
    sp.set_defaults(fn=_cmd_transversal)

    for name, fn in (("simulate", _cmd_simulate), ("sweep", _cmd_sweep)):
        sp = sub.add_parser(name)
        _add_code_flags(sp)
        _add_sim_flags(sp)
        sp.add_argument("--out", type=str)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("burst-check")
    _add_code_flags(sp)
    _add_decoder_flags(sp)
    sp.add_argument("--length", type=int, required=True)
    sp.add_argument("--out", type=str)
    sp.set_defaults(fn=_cmd_burst_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (StructureCheckFailed, BurstTooLarge) as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
