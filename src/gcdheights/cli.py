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
import warnings
from fractions import Fraction
from functools import cache

from . import __version__
from .arith import PrimeSet, hgcd, prime_to_S_part, weil_height
from .elliptic import Curve, canonical_height, naive_height
from .elliptic import eds as _eds_op
from .experiments import (
    SPECS,
    SweepConfig,
    SweepKind,
    _checked,
    _csv_blocks,
    _curve,
    _ints,
    _json_blocks,
    _json_text,
    _on_curve,
    _point,
    _size,
    run,
)
from .gcd_height import VojtaParams, bound
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

# cmd -> (sweep kind, help, flags).  A flag is (flag, key[, help[, default]]):
# a tuple key sets each parameter it names, and a default is one only the CLI
# gives.  The rest comes from the key's entry in the kind's ``params``
# (``_EDS_PARAMS`` for eds): the argparse type from its check's return
# annotation, the default, and, where it has none, that a run needs the flag.
_CURVE, _PRIMES, _EPS = ("--curve", "curve"), ("--primes", "primes"), ("--eps", "eps")
_C, _A_B_N = ("--C", "C"), [("--a", "a"), ("--b", "b"), ("--nmax", "n_max")]
_SUBCOMMANDS = {
    "gcdpow": (SweepKind.BCZ, "gcd(a^n-1, b^n-1) against 2^(eps*n)",
               [*_A_B_N, ("--eps", "eps", None, 0.5), _C]),
    "trichotomy": (SweepKind.CZ_TRICHOTOMY,
                   "classify S-unit pairs up to --nmax in magnitude",
                   [_PRIMES, ("--nmax", "bound", "bound on |alpha|, |beta|"), _EPS]),
    "returns": (SweepKind.AR_RETURNS,
                "indices where gcd(a^n-1,b^n-1) returns to its n=1 value", _A_B_N),
    "eds": (None, "denominator sequence D_nP for n = 1..nmax", [
        _CURVE, ("--point", "point"), ("--nmax", "n_max"),
        ("--ignore-primes", "ignore_primes",
         "strip these primes before the divisibility report")]),
    "edsgcd": (SweepKind.EDS_GCD, "gcd(D_mP, D_nQ) grid with bound verdicts", [
        _CURVE, ("--point", "p", "base point P"),
        ("--point2", "q", "base point Q (default: P)"),
        ("--nmax", ("m_max", "n_max"), "grid bound for both m and n"), _EPS, _C]),
    "mixed": (SweepKind.MIXED_CHECK,
              "gcd(D_nP, b-1) against C*max(D,b)^eps over S-units b", [
        _CURVE, ("--point", "point"), _PRIMES,
        ("--nmax", "n_max", "largest multiple of the point"),
        ("--bbound", "b_bound", "S-unit magnitude bound (default 100)"), _EPS, _C]),
    "pncheck": (SweepKind.PN_CHECK, "projective blowup bound over primitive points", [
        ("--poly", "polys",
         "homogeneous form like 'X1-X0' (repeatable; default: X1-X0 and X2-X0)",
         ["X1-X0", "X2-X0"]),
        ("--codim", "codim_r", "codimension r of V (default: the rank of linear forms)"),
        _PRIMES, ("--nmax", "bound", "coordinate magnitude bound"), _EPS, ("--delta", "delta"),
        _C, ("--sample", "sample",
             "randomly subsample to this many points (uses --seed)")]),
}
# eds is not a sweep kind: this table checks its config, in this order
_EDS_PARAMS = (("curve", _curve), ("point", _point), ("ignore_primes", _ints, []),
               ("n_max", _size))
_EDS_COLUMNS = ("n", "d")
# argparse type by check return annotation, which experiments keeps as source
# text (it postpones annotations); ``list`` makes a repeatable string flag
_ARG_TYPES = {"int": int, "float": float, "tuple[int, ...]": _int_csv,
              "Curve": _curve_arg, "Point": _point_arg, "PolySystem": list}


def _flag(table: tuple, flag: str, key, help_: str | None = None, *default) -> tuple:
    """A flag as (flag, keys, argparse type, help, default): the default is a
    list of one value, or of none when a run needs the flag."""
    keys = key if isinstance(key, tuple) else (key,)
    check, *table_default = next(e[1:] for e in table if e[0] == keys[0])
    typ = _ARG_TYPES[check.__annotations__["return"]]
    return flag, keys, typ, help_, [*default] or table_default


# cmd -> its flags, derived once
_FLAGS = {cmd: [_flag(SPECS[kind].params if kind else _EDS_PARAMS, *f) for f in flags]
          for cmd, (kind, _, flags) in _SUBCOMMANDS.items()}


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
                        help="most worker processes, also capped by the usable "
                             "CPUs; a sweep cheaper than starting a pool runs "
                             "serially (output is identical)")


@cache  # one parser per process; parsing keeps no state in it
def _build_parser() -> _Parser:
    p = _Parser(prog="gcdheights",
                description="gcd heights, divisibility sequences, and "
                            "inequality sweeps over exact arithmetic")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    for cmd, (kind, help_, _) in _SUBCOMMANDS.items():
        columns = SPECS[kind].columns if kind else _EDS_COLUMNS
        sp = sub.add_parser(cmd, help=help_,
                            epilog="CSV columns: " + ",".join(columns))
        for flag, _, typ, flag_help, _ in _FLAGS[cmd]:
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
                    help="certified error bound of the canonical height; one below what "
                         "double precision can certify for the point (about 1e-12 "
                         "on small curves) warns 'not certified' (default 1e-4)")
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
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise _Usage(f"config file {path} is not valid JSON: {e}") from None
    if isinstance(doc, dict) and isinstance(doc.get("config"), dict):
        doc = doc["config"]  # re-ingest an emitted result
    if not isinstance(doc, dict):
        raise _Usage(f"config file {path} is not a JSON object")
    if "kind" not in doc:
        if kind is None:
            raise _Usage(f"config file {path} has no 'kind'")
    elif kind is not None and doc["kind"] != kind:
        raise _Usage(f"config file {path} is a {doc['kind']} config, not {kind}")
    params, seed = doc.get("parameters", {}), doc.get("seed", 0)
    if not isinstance(params, dict):
        raise _Usage(f"config file {path} has 'parameters' that are not a JSON object")
    if type(seed) is not int:
        raise _Usage(f"config file {path} has a 'seed' that is not an integer")
    return doc.get("kind", kind), dict(params), seed


def _effective(args) -> tuple[dict, int]:
    """The file's parameters merged with the flags (flags win), defaults
    filled, a missing required one rejected; and the file's seed."""
    kind, flags = _SUBCOMMANDS[args.cmd][0], _FLAGS[args.cmd]
    _, params, seed = (_load_config_file(args.config, kind.value if kind else "EDS")
                       if args.config else (None, {}, 0))
    for flag, keys, _, _, default in flags:
        v = getattr(args, flag.lstrip("-").replace("-", "_"))
        for k in keys:
            if v is not None:
                params[k] = v
            elif k not in params and default and default[0] is not None:
                params[k] = default[0]
    needs = [(flag, keys) for flag, keys, *_, default in flags if not default]
    if any(params.get(k) is None for _, keys in needs for k in keys):
        *most, last = (flag for flag, _ in needs)
        raise _Usage(f"{args.cmd} needs {', '.join(most)} and {last}")
    return params, seed


# ----------------------------------------------------------------------------
# subcommand handlers (each returns the output text as a list of blocks, all
# of them rendered before any is written)
# ----------------------------------------------------------------------------

def _run_sweep(kind: SweepKind, params: dict, seed: int, args) -> list[str]:
    """Run a sweep, the ``--seed`` flag overriding ``seed``, and render it."""
    if args.seed is not None:
        seed = args.seed
    cfg = SweepConfig(kind=kind, parameters=params, seed=seed)
    result = run(cfg, jobs=args.jobs)
    if args.format == "json":
        return _json_blocks(result)
    spec = SPECS[kind]
    return _csv_blocks(spec.columns, result.records, spec.Row.types, len(spec.index))


def _cmd_kind(args) -> list[str]:
    params, seed = _effective(args)
    return _run_sweep(_SUBCOMMANDS[args.cmd][0], params, seed, args)


def _cmd_eds(args) -> list[str]:
    params, _ = _effective(args)
    cfg = _checked("EDS", params, _EDS_PARAMS)
    p = _on_curve(cfg["curve"], cfg["point"], "point")
    S = PrimeSet(cfg["ignore_primes"])
    terms = _eds_op(cfg["curve"], p, cfg["n_max"])
    if args.format != "json":  # only the JSON document prints the report
        return _csv_blocks(_EDS_COLUMNS, [*enumerate(terms, 1)], ({int}, {int}), 2)
    report = divisibility_check([prime_to_S_part(t, S) for t in terms])
    doc = {
        "version": __version__,
        "config": {"kind": "EDS", "parameters": params, "seed": 0},
        "divisibility_ok": report.ok,
        "counterexample": report.counterexample,
        "ignored_primes": cfg["ignore_primes"],
        "terms": terms,
    }
    return [_json_text(doc) + "\n"]


def _cmd_sweep(args) -> list[str]:
    kind, params, seed = _load_config_file(args.config)
    try:
        sweep_kind = SweepKind(kind)
    except ValueError:
        raise _Usage(f"config file {args.config} has unknown kind {kind!r}") from None
    return _run_sweep(sweep_kind, params, seed, args)


def _cmd_heights(args) -> list[str]:
    doc: dict = {"version": __version__}
    if args.x is None and args.point is None:
        raise _Usage("heights needs --x (and optionally --y), or --curve with --point")
    if args.y is not None and args.x is None:
        raise _Usage("--y needs --x")
    if args.x is not None:
        x = Fraction(args.x)
        w = weil_height(x)
        doc["x"] = str(x)
        doc["weil"] = {"value": w.value, "witness": w.exact_arg}
        if args.y is not None:
            y = Fraction(args.y)
            g = hgcd(x, y)
            doc["y"] = str(y)
            doc["hgcd"] = {"value": g.value, "witness": g.exact_arg}
    if args.point is not None:
        if args.curve is None:
            raise _Usage("--point needs --curve")
        c = Curve(*args.curve)
        p = _on_curve(c, _point("point", args.point), "point")
        nh = naive_height(p)
        doc["naive_height"] = {"value": nh.value, "witness": nh.exact_arg}
        doc["canonical_height"] = canonical_height(c, p, args.tol)
        doc["tol"] = args.tol
    return [_json_text(doc) + "\n"]


def _cmd_vojta_check(args) -> list[str]:
    p = VojtaParams(epsilon=args.eps, delta=args.delta, C=args.C, r=args.r)
    _, _, rhs, holds = bound(args.lhs, args.ha, p.epsilon, p.C, args.hcount, p.weight)
    doc = {
        "version": __version__,
        "lhs": args.lhs,
        "rhs": rhs,
        "holds": holds,
        "components": {"height_term": p.epsilon * args.ha, "constant": p.C,
                       "counting_term": args.hcount / p.weight},
        "params": {"epsilon": p.epsilon, "delta": p.delta, "C": p.C, "r": p.r},
    }
    return [_json_text(doc) + "\n"]


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
    out_path, baseline = getattr(args, "out", None), getattr(args, "baseline", None)
    try:
        with warnings.catch_warnings():  # each library warning as one line
            warnings.showwarning = lambda msg, *_: sys.stderr.write(f"warning: {msg}\n")
            output = _HANDLERS.get(args.cmd, _cmd_kind)(args)
        # block by block, so that neither the whole document nor its encoded
        # copy is ever formed
        if out_path:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(output)
        else:
            sys.stdout.writelines(output)
        if baseline:  # as bytes, so a baseline that is not UTF-8 just differs
            with open(baseline, "rb") as fh:
                same = all(fh.read(len(b)) == b for b in map(str.encode, output)) and not fh.read(1)
    except _Usage as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except (ArithmeticError, ValueError, OSError) as e:  # as ``_eval`` makes error rows
        sys.stderr.write(f"error: {e}\n")
        return 2
    if baseline and not same:
        sys.stderr.write(f"baseline mismatch against {baseline}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
