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
from .elliptic import Curve, Point, canonical_height, naive_height, on_curve
from .elliptic import eds as _eds_op
from .experiments import (
    SPECS,
    SweepConfig,
    SweepKind,
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


def _columns_epilog(kind: SweepKind) -> str:
    return "CSV columns: " + ",".join(SPECS[kind].columns)


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
        sp.add_argument("--jobs", type=int, default=1,
                        help="parallel worker count (output is identical)")


def _build_parser() -> _Parser:
    p = _Parser(prog="gcdheights",
                description="gcd heights, divisibility sequences, and "
                            "inequality sweeps over exact arithmetic")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("gcdpow", help="gcd(a^n-1, b^n-1) against 2^(eps*n)",
                        epilog=_columns_epilog(SweepKind.BCZ))
    sp.add_argument("--a", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--nmax", type=int)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--C", type=float)
    _add_common(sp)

    sp = sub.add_parser("trichotomy",
                        help="classify S-unit pairs up to --nmax in magnitude",
                        epilog=_columns_epilog(SweepKind.CZ_TRICHOTOMY))
    sp.add_argument("--primes", type=_int_csv)
    sp.add_argument("--nmax", type=int, help="bound on |alpha|, |beta|")
    sp.add_argument("--eps", type=float)
    _add_common(sp)

    sp = sub.add_parser("returns",
                        help="indices where gcd(a^n-1,b^n-1) returns to its n=1 value",
                        epilog=_columns_epilog(SweepKind.AR_RETURNS))
    sp.add_argument("--a", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--nmax", type=int)
    _add_common(sp)

    sp = sub.add_parser("eds", help="denominator sequence D_nP for n = 1..nmax",
                        epilog="CSV columns: n,d")
    sp.add_argument("--curve", type=_curve_arg)
    sp.add_argument("--point", type=_point_arg)
    sp.add_argument("--nmax", type=int)
    sp.add_argument("--ignore-primes", type=_int_csv, default=[],
                    help="strip these primes before the divisibility report")
    _add_common(sp, jobs=False)

    sp = sub.add_parser("edsgcd", help="gcd(D_mP, D_nQ) grid with bound verdicts",
                        epilog=_columns_epilog(SweepKind.EDS_GCD))
    sp.add_argument("--curve", type=_curve_arg)
    sp.add_argument("--point", type=_point_arg, help="base point P")
    sp.add_argument("--point2", type=_point_arg, help="base point Q (default: P)")
    sp.add_argument("--nmax", type=int, help="grid bound for both m and n")
    sp.add_argument("--eps", type=float)
    sp.add_argument("--C", type=float)
    _add_common(sp)

    sp = sub.add_parser("mixed",
                        help="gcd(D_nP, b-1) against C*max(D,b)^eps over S-units b",
                        epilog=_columns_epilog(SweepKind.MIXED_CHECK))
    sp.add_argument("--curve", type=_curve_arg)
    sp.add_argument("--point", type=_point_arg)
    sp.add_argument("--primes", type=_int_csv)
    sp.add_argument("--nmax", type=int, help="largest multiple of the point")
    sp.add_argument("--bbound", type=int, help="S-unit magnitude bound (default 100)")
    sp.add_argument("--eps", type=float)
    sp.add_argument("--C", type=float)
    _add_common(sp)

    sp = sub.add_parser("pncheck",
                        help="projective blowup bound over primitive points",
                        epilog=_columns_epilog(SweepKind.PN_CHECK))
    sp.add_argument("--poly", action="append",
                    help="homogeneous form like 'X1-X0' (repeatable; "
                         "default: X1-X0 and X2-X0)")
    sp.add_argument("--codim", type=int, help="asserted codimension r (default 2)")
    sp.add_argument("--primes", type=_int_csv)
    sp.add_argument("--nmax", type=int, help="coordinate magnitude bound")
    sp.add_argument("--eps", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--C", type=float)
    sp.add_argument("--sample", type=int,
                    help="randomly subsample to this many points (uses --seed)")
    _add_common(sp)

    sp = sub.add_parser("sweep", help="run any sweep kind from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out")
    sp.add_argument("--format", choices=("csv", "json"), default=None)
    sp.add_argument("--baseline")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--jobs", type=int, default=1)

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


def _effective(
    args, kind: str, mapping: list[tuple[str, str, object]]
) -> tuple[dict, int]:
    """Merge config-file parameters with explicit flags (flags win)."""
    params: dict = {}
    seed = 0
    if getattr(args, "config", None):
        _, params, seed = _load_config_file(args.config, kind)
    for attr, key, default in mapping:
        v = getattr(args, attr, None)
        if v is not None:
            params[key] = v
        elif key not in params and default is not None:
            params[key] = default
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    return params, seed


def _missing(params: dict, *keys: str) -> list[str]:
    return [k for k in keys if params.get(k) is None]


# ----------------------------------------------------------------------------
# subcommand handlers (each returns the output text)
# ----------------------------------------------------------------------------

def _run_sweep(kind: SweepKind, params: dict, seed: int, args) -> str:
    cfg = SweepConfig(kind=kind, parameters=params, seed=seed)
    result = run(cfg, jobs=getattr(args, "jobs", 1) or 1)
    fmt = args.format or "csv"
    return render_csv(result) if fmt == "csv" else render_json(result)


def _cmd_gcdpow(args) -> str:
    params, seed = _effective(args, SweepKind.BCZ.value, [
        ("a", "a", None), ("b", "b", None), ("nmax", "n_max", None),
        ("eps", "eps", 0.5), ("C", "C", 0.0),
    ])
    if _missing(params, "a", "b", "n_max"):
        raise _Usage("gcdpow needs --a, --b and --nmax")
    return _run_sweep(SweepKind.BCZ, params, seed, args)


def _cmd_trichotomy(args) -> str:
    params, seed = _effective(args, SweepKind.CZ_TRICHOTOMY.value, [
        ("primes", "primes", None), ("nmax", "bound", None), ("eps", "eps", None),
    ])
    bad = _missing(params, "primes", "bound", "eps")
    if bad:
        raise _Usage("trichotomy needs --primes, --nmax and --eps")
    return _run_sweep(SweepKind.CZ_TRICHOTOMY, params, seed, args)


def _cmd_returns(args) -> str:
    params, seed = _effective(args, SweepKind.AR_RETURNS.value, [
        ("a", "a", None), ("b", "b", None), ("nmax", "n_max", None),
    ])
    if _missing(params, "a", "b", "n_max"):
        raise _Usage("returns needs --a, --b and --nmax")
    return _run_sweep(SweepKind.AR_RETURNS, params, seed, args)


def _cmd_eds(args) -> str:
    params, _ = _effective(args, "EDS", [
        ("curve", "curve", None), ("point", "point", None), ("nmax", "n_max", None),
        ("ignore_primes", "ignore_primes", []),
    ])
    if _missing(params, "curve", "point", "n_max"):
        raise _Usage("eds needs --curve, --point and --nmax")
    c = Curve(*[int(t) for t in params["curve"]])
    x, y = (Fraction(str(t)) for t in params["point"])
    p = Point(x, y)
    if not on_curve(c, p):
        raise ValueError("point is not on the curve")
    ignore = [int(t) for t in params.get("ignore_primes", [])]
    S = PrimeSet(tuple(ignore))
    seq = _eds_op(c, p, int(params["n_max"]))
    report = divisibility_check([prime_to_S_part(t, S) for t in seq.terms])
    fmt = args.format or "csv"
    if fmt == "csv":
        lines = ["n,d"] + [f"{i+1},{d}" for i, d in enumerate(seq.terms)]
        return "\n".join(lines) + "\n"
    doc = {
        "version": __version__,
        "config": {"kind": "EDS", "parameters": params, "seed": 0},
        "terms": list(seq.terms),
        "divisibility_ok": report.ok,
        "counterexample": list(report.counterexample) if report.counterexample else None,
        "ignored_primes": ignore,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _cmd_edsgcd(args) -> str:
    params, seed = _effective(args, SweepKind.EDS_GCD.value, [
        ("curve", "curve", None), ("point", "p", None), ("point2", "q", None),
        ("nmax", "nmax", None), ("eps", "eps", None), ("C", "C", 0.0),
    ])
    if _missing(params, "curve", "p", "eps") or (
        params.get("nmax") is None
        and _missing(params, "m_max", "n_max")
    ):
        raise _Usage("edsgcd needs --curve, --point, --nmax and --eps")
    if params.get("nmax") is not None:
        params.setdefault("m_max", params["nmax"])
        params.setdefault("n_max", params["nmax"])
        del params["nmax"]
    return _run_sweep(SweepKind.EDS_GCD, params, seed, args)


def _cmd_mixed(args) -> str:
    params, seed = _effective(args, SweepKind.MIXED_CHECK.value, [
        ("curve", "curve", None), ("point", "point", None),
        ("primes", "primes", None), ("nmax", "n_max", None),
        ("bbound", "b_bound", 100), ("eps", "eps", None), ("C", "C", 1.0),
    ])
    if _missing(params, "curve", "point", "primes", "n_max", "eps"):
        raise _Usage("mixed needs --curve, --point, --primes, --nmax and --eps")
    return _run_sweep(SweepKind.MIXED_CHECK, params, seed, args)


def _cmd_pncheck(args) -> str:
    params, seed = _effective(args, SweepKind.PN_CHECK.value, [
        ("poly", "polys", ["X1-X0", "X2-X0"]), ("codim", "codim_r", 2),
        ("primes", "primes", None), ("nmax", "bound", None),
        ("eps", "eps", None), ("delta", "delta", 1.0), ("C", "C", 0.0),
        ("sample", "sample", None),
    ])
    if _missing(params, "primes", "bound", "eps"):
        raise _Usage("pncheck needs --primes, --nmax and --eps")
    return _run_sweep(SweepKind.PN_CHECK, params, seed, args)


def _cmd_sweep(args) -> str:
    kind, params, seed = _load_config_file(args.config)
    if args.seed is not None:
        seed = args.seed
    return _run_sweep(SweepKind(kind), params, seed, args)


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
        c = Curve(*args.curve)
        p = Point(*(Fraction(t) for t in args.point))
        if not on_curve(c, p):
            raise ValueError("point is not on the curve")
        nh = naive_height(p)
        doc["naive_height"] = {
            "value": float(format_real(nh.value)),
            "witness": nh.exact_arg,
        }
        doc["canonical_height"] = float(format_real(canonical_height(c, p, args.tol)))
        doc["tol"] = args.tol
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class _Usage(Exception):
    pass


_HANDLERS = {
    "gcdpow": _cmd_gcdpow,
    "trichotomy": _cmd_trichotomy,
    "returns": _cmd_returns,
    "eds": _cmd_eds,
    "edsgcd": _cmd_edsgcd,
    "mixed": _cmd_mixed,
    "pncheck": _cmd_pncheck,
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
        output = _HANDLERS[args.cmd](args)
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
