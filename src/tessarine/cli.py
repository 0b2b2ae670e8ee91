"""Batch command-line front end.

Subcommands read a matrix-pair JSON file, run a decomposition or check,
and print a machine-readable JSON report with the tolerances echoed.
Exit codes partition outcomes: 0 success, 2 input error, 3 proven
nonexistence, 4 unknown or algorithmic failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .complex_linalg import DEFAULT_CLUSTER_GAP
from .dcnum import DEFAULT_TOL
from .decompositions import (
    DEFAULT_RECON_TOL,
    JsvdStatus,
    attempt_jordan_svd,
    naive_dc_svd,
    penrose_check,
    pinv,
    _verified_polar,
)
from .errors import PROFILES, NoPseudoinverse, TessarineError
from .pairfile import PairFormatError, _blocks_as_json, load_pair, pair_to_obj

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_EXISTS = 3
EXIT_UNKNOWN = 4


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("input", help="matrix-pair JSON file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="equality/rank tolerance (default 1e-9)")
    p.add_argument("--recon-tol", type=float, default=DEFAULT_RECON_TOL,
                   help="reconstruction acceptance tolerance (default 1e-7)")
    p.add_argument("--cluster-gap", type=float, default=DEFAULT_CLUSTER_GAP,
                   help="relative eigenvalue clustering gap (default 1e-6)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tessarine",
        description="Double-complex matrix decompositions and existence checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("check", help="existence report for a pair"))
    _add_common(sub.add_parser("pinv", help="Moore-Penrose pseudoinverse"))
    _add_common(sub.add_parser("jsvd", help="Jordan SVD factors"))
    _add_common(sub.add_parser("svd", help="naive diagonal SVD factors"))
    _add_common(sub.add_parser("polar", help="polar decomposition factors"))

    ex = sub.add_parser("explore", help="randomized scan of the open problems")
    ex.add_argument("--trials", type=int, default=100)
    ex.add_argument("--profile", default="dense,ranks",
                    help=f"comma-separated profiles from {PROFILES}")
    ex.add_argument("--n", type=int, default=5, help="max matrix dimension")
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--out", default="explore.ndjson",
                    help="NDJSON record stream path")
    ex.add_argument("--tol", type=float, default=DEFAULT_TOL)
    ex.add_argument("--cluster-gap", type=float, default=DEFAULT_CLUSTER_GAP)
    return parser


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _tolerances(args) -> dict:
    return {
        "tol": args.tol,
        "recon_tol": args.recon_tol,
        "cluster_gap": args.cluster_gap,
    }


def _check(m, args) -> tuple[int, dict]:
    _, report = attempt_jordan_svd(m, **_tolerances(args))
    return EXIT_OK, report.as_dict()


def _refusal(report) -> tuple[int, dict]:
    """Exit code and body for a pair the existence flow built no factors for."""
    proven = report.jsvd_status is JsvdStatus.NOT_EXISTS
    return (EXIT_NOT_EXISTS if proven else EXIT_UNKNOWN,
            {"error": report.reason, **report.as_dict()})


def _jsvd(m, args) -> tuple[int, dict]:
    jsvd, report = attempt_jordan_svd(m, **_tolerances(args))
    if jsvd is None:
        return _refusal(report)
    return EXIT_OK, {
        "residual": jsvd.residual,
        "j_blocks": _blocks_as_json(jsvd.blocks),
        "U": pair_to_obj(jsvd.u),
        "S": pair_to_obj(jsvd.s),
        "V": pair_to_obj(jsvd.v),
        **report.as_dict(),
    }


def _polar(m, args) -> tuple[int, dict]:
    jsvd, report = attempt_jordan_svd(m, **_tolerances(args))
    if jsvd is None:
        return _refusal(report)
    pd, residual = _verified_polar(jsvd, m, args.recon_tol)
    return EXIT_OK, {
        "residual": residual,
        "unitary_factor": pair_to_obj(pd.unitary_factor),
        "hermitian_factor": pair_to_obj(pd.hermitian_factor),
    }


def _pinv(m, args) -> tuple[int, dict]:
    k = pinv(m, **_tolerances(args))
    return EXIT_OK, {
        "penrose_axioms": list(penrose_check(m, k, args.recon_tol)),
        "residual": (m @ k @ m - m).norm_inf(),
        "pinv": pair_to_obj(k),
    }


def _svd(m, args) -> tuple[int, dict]:
    u, s, v = naive_dc_svd(m, **_tolerances(args))
    return EXIT_OK, {
        "residual": (u @ s @ v.star() - m).norm_inf(),
        "U": pair_to_obj(u),
        "S": pair_to_obj(s),
        "V": pair_to_obj(v),
    }


_PAIR_COMMANDS = {
    "check": _check,
    "pinv": _pinv,
    "jsvd": _jsvd,
    "svd": _svd,
    "polar": _polar,
}


def cmd_pair(args) -> int:
    """Load the pair, run one command on it and print one JSON document,
    headed by the command and its tolerances, on success and on failure."""
    m = load_pair(args.input)
    try:
        code, body = _PAIR_COMMANDS[args.command](m, args)
    except NoPseudoinverse as ex:
        code, body = EXIT_NOT_EXISTS, {"error": str(ex)}
    except TessarineError as ex:
        code, body = EXIT_UNKNOWN, {"error": f"{type(ex).__name__}: {ex}"}
    _emit({"command": args.command, "tolerances": _tolerances(args), **body})
    return code


def cmd_explore(args) -> int:
    # only this command runs the explorer: a pair command does not load it
    from .explorer import _check_scan_args, conjecture_scan

    profiles = tuple(p.strip() for p in args.profile.split(",") if p.strip())
    try:
        # reject bad arguments before --out is opened (and truncated)
        _check_scan_args(args.trials, profiles, args.n)
        with open(args.out, "w", encoding="utf-8") as fh:
            def sink(rec):
                fh.write(json.dumps(rec.as_dict()))
                fh.write("\n")

            _, summary = conjecture_scan(
                trials=args.trials,
                profiles=profiles,
                n_max=args.n,
                seed=args.seed,
                tol=args.tol,
                cluster_gap=args.cluster_gap,
                sink=sink,
            )
    except TessarineError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    _emit({"command": "explore", "out": args.out, "seed": args.seed,
           **summary.as_dict()})
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = cmd_explore if args.command == "explore" else cmd_pair
    try:
        return command(args)
    except (PairFormatError, OSError) as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
