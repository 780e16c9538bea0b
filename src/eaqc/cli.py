"""Command-line front end.

Subcommands: construct, params, girth, transversal, simulate, sweep,
burst-check.  Each command returns its document and exit status, and
`main` is the one writer: it opens `--out` before the command runs, or
else writes to stdout with a trailing newline, a dict as indented JSON
and the sweep's CSV text as it is.  Exit codes: 0 on success; 1 on a
verification failure (a girth contradiction or a non-preserved operator
writes its document first; a failed structure check or a refused
enumeration writes nothing); 2 on bad input, an unwritable `--out`
included.  A command that fails after the open leaves `--out` empty.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from functools import cache

from eaqc.channel import ChannelParams
from eaqc.clifford import (
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

# the flags that carry a family's builder arguments, in first-seen order
_CODE_FLAGS = tuple(dict.fromkeys(n for _, flags in FAMILIES.values() for n in flags))

_DECODER_NAMES = {
    "binary": "binary-spa",
    "quat": "quaternary-spa",
}


def _usage_error(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _parse_list(text: str, kind: type, flag: str) -> tuple:
    try:
        return tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except ValueError as err:
        noun = "integers" if kind is int else "numbers"
        raise _usage_error(f"{flag} expects comma-separated {noun}: {err}")


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
    values = [_parse_list(args.set, int, "--set") if n == "set" else getattr(args, n)
              for n in flags]
    if "set" in flags:
        return build(*values, enforce_scale=not args.reduced)
    return build(*values)


def _bit_rows(m) -> list[str]:
    return ["".join(str(int(b)) for b in row) for row in m.to_dense()]


def _code_header(code) -> dict:
    return {"family": code.family, "n": code.n, "k": code.k, "c": code.c}


def _cmd_construct(args):
    code = _build_code(args)
    return {
        **_code_header(code),
        "mx": code.mx.to_json_dict(),
        "mz": code.mz.to_json_dict(),
        "hex": _bit_rows(code.hex),
        "hez": _bit_rows(code.hez),
    }, 0


def _cmd_params(args):
    code = _build_code(args)
    return {
        **_code_header(code),
        "gfrank_hx": code.rank_hx,
        "gfrank_hz": code.rank_hz,
        "girth_floor": code.girth_floor,
    }, 0


def _cmd_girth(args):
    code = _build_code(args)
    floor = code.girth_floor
    stacked = code.hx if code.hz is code.hx else code.hx.vstack(code.hz)
    found = girth_bfs(stacked, cap=8)
    bfs = None if found == float("inf") else int(found)
    agree = bfs == floor if floor in (4, 6) else bfs is None or bfs >= 8
    doc = {"family": code.family, "girth_floor": floor, "bfs_cap": 8, "bfs_girth": bfs}
    return doc, 0 if agree else 1


def _cmd_transversal(args):
    t = stabilizer_matrix(args.p)
    logs = logical_operators(t)
    actions = {
        name: logical_action(t, logs, build(args.p))
        for name, build in (
            ("hadamard_swap", hadamard_swap), ("s_cz", s_cz), ("h_s_cz", h_s_cz))
    }
    preserved = {name: act is not None for name, act in actions.items()}
    ok = all(preserved.values())
    listed = {name: {k: list(v) for k, v in act.items()}
              for name, act in actions.items()} if ok else {}
    return {"p": args.p, "preserved": preserved, "logical_action": listed}, 0 if ok else 1


def _decoder_config(args, p_d: float) -> DecoderConfig:
    return DecoderConfig(_DECODER_NAMES[args.decoder], p_d=p_d, l_max=args.lmax)


def _sim_config(args, p_d: float) -> SimConfig:
    """The run of args' code and decoder; `sweep` sets each point's channel."""
    return SimConfig(
        code=_build_code(args),
        channel=ChannelParams(p_d, 0.0),
        decoder=_decoder_config(args, p_d),
        trials=args.trials,
        master_seed=args.seed,
    )


def _cmd_simulate(args):
    values = _parse_list(args.pd, float, "--pd")
    etas = _parse_list(args.eta, float, "--eta")
    if len(values) != 1 or len(etas) != 1:
        raise _usage_error("simulate takes a single --pd and --eta")
    return sweep(_sim_config(args, values[0]), values, etas)[0], 0


def _cmd_sweep(args):
    pd_values = _parse_list(args.pd, float, "--pd")
    eta_values = _parse_list(args.eta, float, "--eta")
    # every point decodes with the first --pd as its prior
    prior = pd_values[0] if pd_values else 0.0
    return write_csv(sweep(_sim_config(args, prior), pd_values, eta_values)), 0


def _cmd_burst_check(args):
    values = _parse_list(args.pd, float, "--pd")
    if len(values) != 1:
        raise _usage_error("burst-check takes a single --pd")
    code = _build_code(args)
    rep = burst_oracle(code, args.length, spa_cfg=_decoder_config(args, values[0]))
    return {
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
    }, 0


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
    code = _add_code_flags
    for name, fn, *flag_groups in (
        ("construct", _cmd_construct, code),
        ("params", _cmd_params, code),
        ("girth", _cmd_girth, code),
        ("transversal", _cmd_transversal,
         lambda sp: sp.add_argument("--p", type=int, required=True)),
        ("simulate", _cmd_simulate, code, _add_sim_flags),
        ("sweep", _cmd_sweep, code, _add_sim_flags),
        ("burst-check", _cmd_burst_check, code, _add_decoder_flags,
         lambda sp: sp.add_argument("--length", type=int, required=True)),
    ):
        sp = sub.add_parser(name)
        for add in flag_groups:
            add(sp)
        sp.add_argument("--out", type=str)
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sink = open(args.out, "w", newline="") if args.out else None
    except OSError as err:
        print(f"error: cannot write {args.out}: {err.strerror}", file=sys.stderr)
        return 2
    # stdout is looked up per call, so a caller's redirect of it takes effect
    with sink or contextlib.nullcontext(sys.stdout) as fh:
        try:
            doc, status = args.fn(args)
        except (StructureCheckFailed, BurstTooLarge) as err:
            print(f"verification failure: {err}", file=sys.stderr)
            return 1
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        text = doc if isinstance(doc, str) else json.dumps(doc, indent=2)
        fh.write(text if sink or text.endswith("\n") else text + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
