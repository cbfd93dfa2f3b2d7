"""Command-line front end: every sweep and height query, reproducibly.

Exit codes: 0 success, 1 usage error, 2 computation error, 3 regression
baseline mismatch (--baseline).  Sweep subcommands accept --config FILE with
a JSON object {"kind", "parameters", "seed"} (or a previously emitted JSON
result, whose embedded config block is reused); a file of another kind is a
usage error, and explicit flags override file values.  CSV schemas per
subcommand are listed in --help epilogs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .arith import EPS_SLACK, PrimeSet, hgcd, prime_to_S_part, weil_height
from .elliptic import canonical_height, naive_height
from .elliptic import eds as _eds_op
from .experiments import (
    SPECS,
    SweepConfig,
    SweepKind,
    _as_int_list,
    _curve_of,
    _point_of,
    format_real,
    render_csv,
    render_json,
    run,
)
from .gcd_height import VojtaParams, vojta_rhs
from .mulgrp import divisibility_check

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


# ----------------------------------------------------------------------------
# flag value parsers
# ----------------------------------------------------------------------------

def _rational(text: str) -> str:
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational {text!r}")
    return text


def _int_csv(text: str) -> list[int]:
    if text.strip() == "":
        return []
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")


def _curve_arg(text: str) -> list[int]:
    vals = _int_csv(text)
    if len(vals) != 5:
        raise argparse.ArgumentTypeError(
            f"curve needs 5 comma-separated integers a1,a2,a3,a4,a6, got {text!r}"
        )
    return vals


def _point_arg(text: str) -> list[str]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"point needs two comma-separated rationals x,y, got {text!r}"
        )
    return [_rational(p) for p in parts]


def _jobs(text: str) -> int:
    try:
        n = int(text)
    except ValueError:  # the wording argparse gives for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {n}")
    return n


# ----------------------------------------------------------------------------
# per-kind subcommands: one table builds the parser, the merge and the check
# ----------------------------------------------------------------------------

# cmd -> (sweep kind, help, flags, flags it cannot run without).  A flag is
# (flag, parameter key, type, default, help): a tuple key sets each parameter
# it names, type ``list`` makes a repeatable string flag, and the default
# fills a parameter that neither the flag nor the config file sets.
_CURVE = ("--curve", "curve", _curve_arg, None, None)
_PRIMES = ("--primes", "primes", _int_csv, None, None)
_EPS = ("--eps", "eps", float, None, None)
_SUBCOMMANDS = {
    "gcdpow": (SweepKind.BCZ, "gcd(a^n-1, b^n-1) against 2^(eps*n)", [
        ("--a", "a", int, None, None),
        ("--b", "b", int, None, None),
        ("--nmax", "n_max", int, None, None),
        ("--eps", "eps", float, 0.5, None),
        ("--C", "C", float, 0.0, None),
    ], ["--a", "--b", "--nmax"]),
    "trichotomy": (SweepKind.CZ_TRICHOTOMY,
                   "classify S-unit pairs up to --nmax in magnitude", [
        _PRIMES,
        ("--nmax", "bound", int, None, "bound on |alpha|, |beta|"),
        _EPS,
    ], ["--primes", "--nmax", "--eps"]),
    "returns": (SweepKind.AR_RETURNS,
                "indices where gcd(a^n-1,b^n-1) returns to its n=1 value", [
        ("--a", "a", int, None, None),
        ("--b", "b", int, None, None),
        ("--nmax", "n_max", int, None, None),
    ], ["--a", "--b", "--nmax"]),
    "eds": (None, "denominator sequence D_nP for n = 1..nmax", [
        _CURVE,
        ("--point", "point", _point_arg, None, None),
        ("--nmax", "n_max", int, None, None),
        ("--ignore-primes", "ignore_primes", _int_csv, [],
         "strip these primes before the divisibility report"),
    ], ["--curve", "--point", "--nmax"]),
    "edsgcd": (SweepKind.EDS_GCD, "gcd(D_mP, D_nQ) grid with bound verdicts", [
        _CURVE,
        ("--point", "p", _point_arg, None, "base point P"),
        ("--point2", "q", _point_arg, None, "base point Q (default: P)"),
        ("--nmax", ("m_max", "n_max"), int, None, "grid bound for both m and n"),
        _EPS,
        ("--C", "C", float, 0.0, None),
    ], ["--curve", "--point", "--nmax", "--eps"]),
    "mixed": (SweepKind.MIXED_CHECK,
              "gcd(D_nP, b-1) against C*max(D,b)^eps over S-units b", [
        _CURVE,
        ("--point", "point", _point_arg, None, None),
        _PRIMES,
        ("--nmax", "n_max", int, None, "largest multiple of the point"),
        ("--bbound", "b_bound", int, 100, "S-unit magnitude bound (default 100)"),
        _EPS,
        ("--C", "C", float, 1.0, None),
    ], ["--curve", "--point", "--primes", "--nmax", "--eps"]),
    "pncheck": (SweepKind.PN_CHECK, "projective blowup bound over primitive points", [
        ("--poly", "polys", list, ["X1-X0", "X2-X0"],
         "homogeneous form like 'X1-X0' (repeatable; default: X1-X0 and X2-X0)"),
        ("--codim", "codim_r", int, 2, "asserted codimension r (default 2)"),
        _PRIMES,
        ("--nmax", "bound", int, None, "coordinate magnitude bound"),
        _EPS,
        ("--delta", "delta", float, 1.0, None),
        ("--C", "C", float, 0.0, None),
        ("--sample", "sample", int, None,
         "randomly subsample to this many points (uses --seed)"),
    ], ["--primes", "--nmax", "--eps"]),
}
_EDS_COLUMNS = ("n", "d")


# ----------------------------------------------------------------------------
# parser construction
# ----------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser, jobs: bool = True) -> None:
    sp.add_argument("--out", help="write output to this path instead of stdout")
    sp.add_argument("--format", choices=("csv", "json"), default=None,
                    help="output format (default csv for sweeps)")
    sp.add_argument("--config", help="JSON config file; flags override its values")
    sp.add_argument("--baseline",
                    help="compare output against this file; exit 3 on mismatch")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed for any randomized sampling")
    if jobs:
        sp.add_argument("--jobs", type=_jobs, default=1,
                        help="parallel worker count (output is identical)")


def _build_parser() -> _Parser:
    p = _Parser(prog="gcdheights",
                description="gcd heights, divisibility sequences, and "
                            "inequality sweeps over exact arithmetic")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    for cmd, (kind, help_, flags, _) in _SUBCOMMANDS.items():
        columns = SPECS[kind].columns if kind else _EDS_COLUMNS
        sp = sub.add_parser(cmd, help=help_,
                            epilog="CSV columns: " + ",".join(columns))
        for flag, _, typ, _, flag_help in flags:
            if typ is list:
                sp.add_argument(flag, action="append", help=flag_help)
            else:
                sp.add_argument(flag, type=typ, help=flag_help)
        _add_common(sp, jobs=kind is not None)

    sp = sub.add_parser("sweep", help="run any sweep kind from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out")
    sp.add_argument("--format", choices=("csv", "json"), default=None)
    sp.add_argument("--baseline")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--jobs", type=_jobs, default=1)

    sp = sub.add_parser("heights",
                        help="weil/hgcd heights of rationals, point heights on a curve")
    sp.add_argument("--x", type=_rational, help="rational, e.g. 5/12")
    sp.add_argument("--y", type=_rational, help="second rational for hgcd")
    sp.add_argument("--curve", type=_curve_arg)
    sp.add_argument("--point", type=_point_arg)
    sp.add_argument("--tol", type=float, default=1e-4,
                    help="canonical height tolerance (default 1e-4)")
    sp.add_argument("--out")
    sp.add_argument("--baseline")

    sp = sub.add_parser("vojta-check",
                        help="evaluate one eps*hA + hcount/(r-1+delta*eps) + C bound")
    sp.add_argument("--lhs", type=float, required=True,
                    help="left-hand side (a gcd height, in log space)")
    sp.add_argument("--ha", type=float, required=True, help="ample height hA")
    sp.add_argument("--hcount", type=float, default=0.0, help="counting term")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--delta", type=float, default=1.0)
    sp.add_argument("--C", type=float, default=0.0)
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--out")
    sp.add_argument("--baseline")

    return p


# ----------------------------------------------------------------------------
# config-file merging
# ----------------------------------------------------------------------------

def _load_config_file(path: str, kind: str | None = None) -> tuple[str, dict, int]:
    """Read a config object (or an emitted result) as (kind, parameters, seed).

    ``kind`` is the kind of the subcommand reading the file: a file naming
    another kind is rejected, one naming none is taken as that kind.  With
    ``kind`` None (the sweep subcommand) the file must name its kind.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and isinstance(doc.get("config"), dict):
        doc = doc["config"]  # re-ingest an emitted result
    if not isinstance(doc, dict):
        raise _Usage(f"config file {path} is not a JSON object")
    if "kind" not in doc:
        if kind is None:
            raise _Usage(f"config file {path} has no 'kind'")
    elif kind is not None and doc["kind"] != kind:
        raise _Usage(f"config file {path} is a {doc['kind']} config, not {kind}")
    params = dict(doc.get("parameters", {}))
    return doc.get("kind", kind), params, int(doc.get("seed", 0))


def _effective(args) -> tuple[dict, int]:
    """Merge config-file parameters with explicit flags (flags win), fill the
    table defaults, and reject a run that lacks a required parameter."""
    kind, _, flags, needs = _SUBCOMMANDS[args.cmd]
    params: dict = {}
    seed = 0
    if args.config:
        _, params, seed = _load_config_file(args.config, kind.value if kind else "EDS")
    keys = {}
    for flag, key, _, default, _ in flags:
        keys[flag] = key if isinstance(key, tuple) else (key,)
        v = getattr(args, flag.lstrip("-").replace("-", "_"))
        for k in keys[flag]:
            if v is not None:
                params[k] = v
            elif k not in params and default is not None:
                params[k] = default
    if any(params.get(k) is None for flag in needs for k in keys[flag]):
        raise _Usage(f"{args.cmd} needs {', '.join(needs[:-1])} and {needs[-1]}")
    if args.seed is not None:
        seed = args.seed
    return params, seed


# ----------------------------------------------------------------------------
# subcommand handlers (each returns the output text)
# ----------------------------------------------------------------------------

def _run_sweep(kind: SweepKind, params: dict, seed: int, args) -> str:
    cfg = SweepConfig(kind=kind, parameters=params, seed=seed)
    result = run(cfg, jobs=args.jobs)
    fmt = args.format or "csv"
    return render_csv(result) if fmt == "csv" else render_json(result)


def _cmd_kind(args) -> str:
    params, seed = _effective(args)
    return _run_sweep(_SUBCOMMANDS[args.cmd][0], params, seed, args)


def _cmd_eds(args) -> str:
    params, _ = _effective(args)
    c = _curve_of(params)
    p = _point_of(c, params["point"])
    ignore = _as_int_list(params["ignore_primes"], "ignore_primes")
    S = PrimeSet(tuple(ignore))
    seq = _eds_op(c, p, int(params["n_max"]))
    report = divisibility_check([prime_to_S_part(t, S) for t in seq.terms])
    fmt = args.format or "csv"
    if fmt == "csv":
        lines = [",".join(_EDS_COLUMNS)] + [f"{i+1},{d}" for i, d in enumerate(seq.terms)]
        return "\n".join(lines) + "\n"
    doc = {
        "version": __version__,
        "config": {"kind": "EDS", "parameters": params, "seed": 0},
        "terms": list(seq.terms),
        "divisibility_ok": report.ok,
        "counterexample": list(report.counterexample) if report.counterexample else None,
        "ignored_primes": ignore,
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _cmd_sweep(args) -> str:
    kind, params, seed = _load_config_file(args.config)
    try:
        sweep_kind = SweepKind(kind)
    except ValueError:
        raise _Usage(f"config file {args.config} has unknown kind {kind!r}") from None
    if args.seed is not None:
        seed = args.seed
    return _run_sweep(sweep_kind, params, seed, args)


def _cmd_heights(args) -> str:
    doc: dict = {"version": __version__}
    if args.x is None and args.point is None:
        raise _Usage("heights needs --x (and optionally --y), or --curve with --point")
    if args.y is not None and args.x is None:
        raise _Usage("--y needs --x")
    if args.x is not None:
        x = Fraction(args.x)
        w = weil_height(x)
        doc["x"] = str(x)
        doc["weil"] = {"value": float(format_real(w.value)), "witness": w.exact_arg}
        if args.y is not None:
            y = Fraction(args.y)
            g = hgcd(x, y)
            doc["y"] = str(y)
            doc["hgcd"] = {"value": float(format_real(g.value)), "witness": g.exact_arg}
    if args.point is not None:
        if args.curve is None:
            raise _Usage("--point needs --curve")
        c = _curve_of({"curve": args.curve})
        p = _point_of(c, args.point)
        nh = naive_height(p)
        doc["naive_height"] = {
            "value": float(format_real(nh.value)),
            "witness": nh.exact_arg,
        }
        doc["canonical_height"] = float(format_real(canonical_height(c, p, args.tol)))
        doc["tol"] = args.tol
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _cmd_vojta_check(args) -> str:
    p = VojtaParams(epsilon=args.eps, delta=args.delta, C=args.C, r=args.r)
    rhs = vojta_rhs(args.ha, args.hcount, p)
    holds = args.lhs <= rhs + EPS_SLACK
    doc = {
        "version": __version__,
        "lhs": float(format_real(args.lhs)),
        "rhs": float(format_real(rhs)),
        "holds": holds,
        "components": {
            "height_term": float(format_real(p.epsilon * args.ha)),
            "counting_term": float(
                format_real(args.hcount / (p.r - 1 + p.delta * p.epsilon))
            ),
            "constant": float(format_real(p.C)),
        },
        "params": {"epsilon": p.epsilon, "delta": p.delta, "C": p.C, "r": p.r},
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


class _Usage(Exception):
    pass


_HANDLERS = {
    "eds": _cmd_eds,
    "sweep": _cmd_sweep,
    "heights": _cmd_heights,
    "vojta-check": _cmd_vojta_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        output = _HANDLERS.get(args.cmd, _cmd_kind)(args)
    except _Usage as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except (ValueError, ZeroDivisionError, OSError, OverflowError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    baseline = getattr(args, "baseline", None)
    if baseline:
        try:
            with open(baseline, "r", encoding="utf-8", newline="") as fh:
                expected = fh.read()
        except OSError as e:
            sys.stderr.write(f"error: {e}\n")
            return 2
        if expected != output:
            sys.stderr.write(f"baseline mismatch against {baseline}\n")
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
