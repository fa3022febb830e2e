"""Command-line surface: zeros, s, pcf, check, report.

Every command writes byte-stable output: floats are rounded to 12
significant digits before serialization and dict keys are emitted in fixed
order, so identical inputs reproduce identical files.  Expected failures
print a one-line message and exit nonzero (1 usage, 2 validation, coverage
or out of memory); stack traces are reserved for genuine bugs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .errors import (AccuracyError, CoverageError, DomainError,
                     MissedZerosError, ZerosParseError)
from .kernels import CheckReport, check_identity
from .paircorr import lemma5_check, lemma6_check, pcf_curve
from .primes import build_prime_table
from .s_of_t import SEvaluator, s_exact, s_explicit
from .theorem import full_report, lemma_8_9_10_eval
from .zeros import ZeroSet, export_zeros, find_zeros, import_zeros

# kernel identities first, then the pair sums, then the conditional ones
_IDENTITIES = ("w_partition", "lemma3", "lemma4", "lemma7", "lemma11",
               "lemma5", "lemma6", "lemma8", "lemma9", "lemma10")


class _UsageError(Exception):
    pass


class _ValidationError(Exception):
    pass


def _round12(x: float) -> float:
    if isinstance(x, float):
        if math.isfinite(x):
            return float(f"{x:.12g}")
    return x


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _round12(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, float):
        return _round12(obj)
    return obj


def _write_json(path: str, obj) -> None:
    text = json.dumps(_jsonable(obj), indent=2) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _check_report_obj(rep: CheckReport) -> dict:
    # CheckReport's fields are in the JSON key order; only name is renamed
    obj = dataclasses.asdict(rep)
    return {"identity" if k == "name" else k: v for k, v in obj.items()}


def _moment_report_obj(rep) -> dict:
    bd = rep.breakdown
    return {
        "T": rep.T,
        "x": rep.x,
        "beta": rep.beta,
        "lhs": rep.lhs_integral,
        "rhs_theorem": {
            "loglog": bd.loglog_term,
            "f_tail": bd.f_tail_term,
            "euler": bd.euler_term,
            "prime_sum": bd.prime_sum_term,
        },
        "rhs_goldston": bd.rhs_goldston,
        "f_tail_source": rep.f_tail_source,
        "discrepancy_abs": rep.discrepancy_abs,
        "discrepancy_rel": rep.discrepancy_rel,
        "notes": list(rep.notes),
    }


def _write_curve_csv(path: str, curve) -> None:
    lines = ["alpha,F"]
    for a, v in zip(curve.alpha_grid, curve.values):
        lines.append(f"{a:.12g},{v:.12g}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_zeros(path: str) -> ZeroSet:
    try:
        with open(path, encoding="ascii") as fh:
            return import_zeros(fh.read())
    except FileNotFoundError:
        raise _UsageError(f"zeros file not found: {path}")
    except ZerosParseError as exc:
        raise _ValidationError(f"{path}: {exc}")


def _refuse_beyond_memory(count: float, what: str) -> None:
    """Refuse, as out of memory (exit 2), ``count`` 8-byte entries that no
    address space holds, where NumPy would raise ValueError; NaN too."""
    if not count < sys.maxsize / 8:
        raise MemoryError(f"cannot hold {count:.3g} {what}")


def _threads(args) -> int:
    """Worker threads: ``--threads`` clamped to [1, cores], else all cores."""
    cores = os.cpu_count() or 1
    if args.threads is not None:
        return min(max(1, args.threads), cores)
    return cores


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_zeros(args) -> int:
    if args.import_path:
        zs = _load_zeros(args.import_path)
        if args.validate and not zs.claimed_complete:
            raise _ValidationError(
                f"{args.import_path}: ordinate count disagrees with "
                "Turing's count of zeros (set incomplete?)")
        print(f"{len(zs)} ordinates up to {zs.t_max:.12g}"
              f" (complete={zs.claimed_complete})")
        if args.out:
            with open(args.out, "w", encoding="ascii", newline="\n") as fh:
                fh.write(export_zeros(zs))
        return 0
    if args.t_max is None:
        raise _UsageError("zeros needs --t-max or --import")
    zs = find_zeros(args.t_max, threads=_threads(args))
    text = export_zeros(zs)
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {len(zs)} ordinates to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_s(args) -> int:
    if not args.step > 0:
        raise _UsageError("--step must be positive")
    lo, hi = ((args.t, args.t) if args.t is not None
              else (args.t_min, args.t_max))
    if lo is None or hi is None:
        raise _UsageError("s needs --t or both --t-min/--t-max")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _UsageError("t must be finite")
    if lo > hi:
        raise _UsageError("--t-min must not exceed --t-max")
    zs = _load_zeros(args.zeros)
    if not hi <= zs.t_max:      # before any point is built
        raise _ValidationError(f"zeros file does not cover t = {hi:.12g}")
    rows = (hi - lo) / args.step
    _refuse_beyond_memory(rows, "rows")
    points = lo + np.arange(math.floor(rows) + 1) * args.step
    if args.method == "exact":
        vals = s_exact(points, SEvaluator(zs, None))
    else:
        if not 4.0 <= args.x < math.inf:
            raise _UsageError("--x must be finite and at least 4")
        _refuse_beyond_memory(args.x, "sieve entries")
        table = build_prime_table(max(64, int(args.x) + 1))
        vals = s_explicit(points, args.x, SEvaluator(zs, table))[0]
    text = "t,S\n" + "".join(f"{t:.12g},{v:.12g}\n" for t, v
                             in zip(points.tolist(), vals.tolist()))
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_pcf(args) -> int:
    zs = _load_zeros(args.zeros)
    curve = pcf_curve(zs, args.t, args.alpha_max, args.step)
    _write_curve_csv(args.out, curve)
    print(f"wrote {len(curve.alpha_grid)} samples to {args.out}")
    return 0


def _check(args) -> CheckReport:
    """The report of ``--identity``.  T defaults to min(200, top of the
    zeros) for lemma5/6, to the top (or 1000 with model F) for lemma8-10."""
    name = args.identity
    if name not in _IDENTITIES:
        raise _UsageError(f"unknown identity {name!r}; known: "
                          + ", ".join(_IDENTITIES))
    if name in _IDENTITIES[:5]:
        return check_identity(name, args.tol)
    if args.f_source == "model" and name in ("lemma8", "lemma9", "lemma10"):
        if name == "lemma10":
            raise _UsageError("lemma10 requires --zeros and empirical F "
                              "(R is a sum over zeros)")
        T = args.t if args.t is not None else 1000.0
        return lemma_8_9_10_eval(None, T, args.beta, "model")[name]
    if not args.zeros:
        raise _UsageError(f"{name} requires --zeros")
    zs = _load_zeros(args.zeros)
    if name in ("lemma5", "lemma6"):
        T = args.t if args.t is not None else min(200.0, zs.t_max)
        check = lemma5_check if name == "lemma5" else lemma6_check
        tol = {} if args.tol is None else {"tol": args.tol}
        return check(zs, T, args.beta, **tol)
    T = args.t if args.t is not None else zs.t_max
    return lemma_8_9_10_eval(zs, T, args.beta)[name]


def _cmd_check(args) -> int:
    rep = _check(args)
    obj = _check_report_obj(rep)
    if args.out:
        _write_json(args.out, obj)
    print(json.dumps(_jsonable(obj), indent=2))
    return 2 if rep.assertable and not rep.passed else 0


def _cmd_report(args) -> int:
    zs = _load_zeros(args.zeros)
    rep = full_report(args.t, args.x, zs, alpha_max=args.alpha_max,
                      alpha_step=args.step, f_tail_source=args.f_tail,
                      tail_model=args.tail_model)
    _write_json(args.out, _moment_report_obj(rep))
    if args.pcf_out:
        _write_curve_csv(args.pcf_out, rep.curve)
    print(f"report written to {args.out}"
          + (f", curve to {args.pcf_out}" if args.pcf_out else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="szeta",
        description="Desk-scale toolkit for the second moment of S(t): "
                    "zeta zeros, pair correlation, explicit-formula "
                    "identities and the assembled moment comparison.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--threads", type=int, default=None,
                   help="cap on worker threads (unset: all cores)")
    sub = p.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    z = sub.add_parser("zeros", formatter_class=fmt,
                       help="compute or import/validate zero ordinates")
    z.add_argument("--t-max", type=float, default=None,
                   help="compute all ordinates up to this height")
    z.add_argument("--import", dest="import_path", default=None,
                   help="read ordinates from a zeros text file")
    z.add_argument("--validate", action="store_true",
                   help="fail (exit 2) if the imported set looks incomplete")
    z.add_argument("--out", default=None, help="output zeros file")
    z.set_defaults(fn=_cmd_zeros)

    s = sub.add_parser("s", formatter_class=fmt,
                       help="evaluate S(t) to CSV 't,S'")
    s.add_argument("--zeros", required=True, help="zeros text file")
    s.add_argument("--t", type=float, default=None, help="single point")
    s.add_argument("--t-min", type=float, default=None, help="range start")
    s.add_argument("--t-max", type=float, default=None, help="range end")
    s.add_argument("--step", type=float, default=0.1, help="range step")
    s.add_argument("--method", choices=("exact", "explicit"),
                   default="exact", help="evaluation route")
    s.add_argument("--x", type=float, default=100.0,
                   help="prime cutoff for the explicit route")
    s.add_argument("--out", default=None, help="output CSV (default stdout)")
    s.set_defaults(fn=_cmd_s)

    c = sub.add_parser("pcf", formatter_class=fmt,
                       help="pair correlation curve to CSV 'alpha,F'")
    c.add_argument("--zeros", required=True, help="zeros text file")
    c.add_argument("--t", type=float, required=True, help="height T")
    c.add_argument("--alpha-max", type=float, default=4.0,
                   help="last grid alpha")
    c.add_argument("--step", type=float, default=0.02, help="grid step")
    c.add_argument("--out", default="pcf.csv", help="output CSV")
    c.set_defaults(fn=_cmd_pcf)

    k = sub.add_parser("check", formatter_class=fmt,
                       help="run a named identity check")
    k.add_argument("--identity", required=True,
                   help="one of: " + ", ".join(_IDENTITIES))
    k.add_argument("--tol", type=float, default=None,
                   help="override the identity's pass tolerance")
    k.add_argument("--zeros", default=None,
                   help="zeros file (pair-sum identities)")
    k.add_argument("--t", type=float, default=None, help="height T")
    k.add_argument("--beta", type=float, default=0.5,
                   help="beta = log x / log T")
    k.add_argument("--f-source", choices=("empirical", "model"),
                   default="empirical",
                   help="F source for the conditional identities")
    k.add_argument("--out", default=None, help="write JSON report here")
    k.set_defaults(fn=_cmd_check)

    r = sub.add_parser("report", formatter_class=fmt,
                       help="full second-moment report (JSON + curve CSV)")
    r.add_argument("--t", type=float, required=True, help="height T")
    r.add_argument("--x", type=float, required=True,
                   help="prime cutoff x = T^beta, beta < 1/2")
    r.add_argument("--zeros", required=True, help="zeros text file")
    r.add_argument("--alpha-max", type=float, default=4.0,
                   help="pair correlation grid end")
    r.add_argument("--step", type=float, default=0.025,
                   help="pair correlation grid step")
    r.add_argument("--f-tail", choices=("empirical", "model"),
                   default="empirical", help="F-tail source")
    r.add_argument("--tail-model", choices=("constant_one", "last_value"),
                   default="constant_one",
                   help="F beyond the curve for the tail integral")
    r.add_argument("--out", default="report.json", help="report JSON path")
    r.add_argument("--pcf-out", default=None,
                   help="also write the F curve CSV here")
    r.set_defaults(fn=_cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except (_ValidationError, CoverageError, MissedZerosError,
            ZerosParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AccuracyError as exc:
        print(f"error: quadrature accuracy: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
