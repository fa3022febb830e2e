"""Command-line surface: zeros, s, pcf, check, report.

Every command writes byte-stable output: floats are rounded to 12
significant digits before serialization and dict keys are emitted in fixed
order, so identical inputs reproduce identical files.  Expected failures
are the library's error types, mapped to exit codes by one table
(``_EXITS``): each prints a one-line message and exits nonzero (1 usage or
a path that cannot be read or written, 2 validation, coverage, a zeros text
that does not parse or is not ASCII, or out of memory); stack traces are
reserved for genuine bugs.  Output paths are checked before any work and
left as they were until the work succeeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import (AccuracyError, CoverageError, DomainError,
                     MissedZerosError, ZerosParseError, refuse_beyond_memory)
from .kernels import CheckReport, check_identity
from .paircorr import lemma5_check, lemma6_check, pcf_curve
from .primes import build_prime_table
from .s_of_t import SEvaluator, s_exact, s_explicit
from .theorem import full_report, lemma_8_9_10_eval
from .zeros import ZeroSet, export_zeros, find_zeros, import_zeros

# kernel identities first, then the pair sums, then the conditional ones
_IDENTITIES = ("w_partition", "lemma3", "lemma4", "lemma7", "lemma11",
               "lemma5", "lemma6", "lemma8", "lemma9", "lemma10")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):     # numpy scalars
        return _jsonable(obj.item())
    if isinstance(obj, float) and math.isfinite(obj):
        return float(f"{obj:.12g}")
    return obj


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2) + "\n"


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout if it is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _probe_writable(path: str | None) -> None:
    """Raise the OSError that writing the file ``path`` would, before any
    work: open it for appending, which truncates nothing, and remove it
    again if it did not exist."""
    if path is None:
        return
    existed = os.path.lexists(path)
    with open(path, "a", encoding="ascii"):
        pass
    if not existed:
        os.remove(path)


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


def _curve_csv(curve) -> str:
    return "alpha,F\n" + "".join(f"{a:.12g},{v:.12g}\n" for a, v
                                  in zip(curve.alpha_grid, curve.values))


def _load_zeros(path: str) -> ZeroSet:
    """The zero set in the text file ``path``, the CLI's one reader: a text
    that is not ASCII or does not parse raises ZerosParseError naming it,
    ordinates no zero set holds (NaN, inf) a DomainError naming it."""
    with open(path, encoding="ascii") as fh:
        try:
            return import_zeros(fh.read())
        except (UnicodeDecodeError, ZerosParseError) as exc:
            raise ZerosParseError(f"{path}: {exc}",
                                  getattr(exc, "line_number", None)) from exc
        except DomainError as exc:
            raise DomainError(f"{path}: {exc}") from exc


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_zeros(args) -> int:
    if args.import_path:
        zs = _load_zeros(args.import_path)
        if args.validate and not zs.claimed_complete:
            raise MissedZerosError(
                f"{args.import_path}: ordinate count disagrees with "
                "Turing's count of zeros (set incomplete?)")
        print(f"{len(zs)} ordinates up to {zs.t_max:.12g}"
              f" (complete={zs.claimed_complete})")
        if args.out:
            _write(args.out, export_zeros(zs))
        return 0
    if args.t_max is None:
        raise DomainError("zeros needs --t-max or --import")
    zs = find_zeros(args.t_max, threads=args.threads)
    _write(args.out, export_zeros(zs))
    if args.out:
        print(f"wrote {len(zs)} ordinates to {args.out}")
    return 0


def _cmd_s(args) -> int:
    if not 0.0 < args.step < math.inf:
        raise DomainError(f"--step must be positive and finite: {args.step}")
    if args.t is not None and (args.t_min, args.t_max) != (None, None):
        raise DomainError("s takes --t or --t-min/--t-max, not both")
    lo, hi = ((args.t, args.t) if args.t is not None
              else (args.t_min, args.t_max))
    if lo is None or hi is None:
        raise DomainError("s needs --t or both --t-min/--t-max")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("t must be finite")
    if lo > hi:
        raise DomainError("--t-min must not exceed --t-max")
    zs = _load_zeros(args.zeros)
    zs.check_cover(hi)      # before any point is built
    rows = (hi - lo) / args.step
    refuse_beyond_memory(rows, "rows")
    points = lo + np.arange(math.floor(rows) + 1) * args.step
    if args.method == "exact":
        vals = s_exact(points, SEvaluator(zs, None))
    else:
        if not 4.0 <= args.x < math.inf:
            raise DomainError("--x must be finite and at least 4")
        refuse_beyond_memory(args.x, "sieve entries")
        table = build_prime_table(max(64, int(args.x) + 1))
        vals = s_explicit(points, args.x, SEvaluator(zs, table))[0]
    body = "".join(f"{t:.12g},{v:.12g}\n" for t, v
                   in zip(points.tolist(), vals.tolist()))
    _write(args.out, "t,S\n" + body)
    return 0


def _cmd_pcf(args) -> int:
    zs = _load_zeros(args.zeros)
    curve = pcf_curve(zs, args.t, args.alpha_max, args.step)
    _write(args.out, _curve_csv(curve))
    print(f"wrote {len(curve.alpha_grid)} samples to {args.out}")
    return 0


def _check(args) -> CheckReport:
    """The report of ``--identity``.  T defaults to min(200, top of the
    zeros) for lemma5/6, else to the top of the zeros (1000 without)."""
    name = args.identity
    if name in _IDENTITIES[:5]:
        return check_identity(name)
    zs = _load_zeros(args.zeros) if args.zeros else None
    if name in ("lemma5", "lemma6"):
        if zs is None:
            raise DomainError(f"{name} requires --zeros")
        T = args.t if args.t is not None else min(200.0, zs.t_max)
        check = lemma5_check if name == "lemma5" else lemma6_check
        return check(zs, T, args.beta)
    T = args.t if args.t is not None else (1000.0 if zs is None
                                           else zs.t_max)
    reps = lemma_8_9_10_eval(zs, T, args.beta, args.f_source)
    if name not in reps:
        raise DomainError(f"{name} requires --zeros and empirical F "
                          "(R is a sum over zeros)")
    return reps[name]


def _cmd_check(args) -> int:
    rep = _check(args)
    text = _json_text(_check_report_obj(rep))
    if args.out:
        _write(args.out, text)
    _write(None, text)
    return 2 if rep.assertable and not rep.passed else 0


def _cmd_report(args) -> int:
    zs = _load_zeros(args.zeros)
    rep = full_report(args.t, args.x, zs, f_tail_source=args.f_tail)
    _write(args.out, _json_text(_moment_report_obj(rep)))
    if args.pcf_out:
        _write(args.pcf_out, _curve_csv(rep.curve))
    print(f"report written to {args.out}"
          + (f", curve to {args.pcf_out}" if args.pcf_out else ""))
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser, and subparsers, whose help lists defaults and which refuse
    through ``_EXITS``: one line."""

    def __init__(self, **kwargs):
        super().__init__(
            formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

    def error(self, message):
        raise DomainError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it
    was, so every ``main`` call reads its arguments with the same one."""
    p = _Parser(
        prog="szeta",
        description="Desk-scale toolkit for the second moment of S(t): "
                    "zeta zeros, pair correlation, explicit-formula "
                    "identities and the assembled moment comparison.")
    p.add_argument("--threads", type=int, default=None,
                   help="cap on worker threads (unset: all cores)")
    sub = p.add_subparsers(dest="command", required=True)

    z = sub.add_parser("zeros",
                       help="compute or import/validate zero ordinates")
    z.add_argument("--t-max", type=float, default=None,
                   help="compute all ordinates up to this height")
    z.add_argument("--import", dest="import_path", default=None,
                   help="read ordinates from a zeros text file")
    z.add_argument("--validate", action="store_true",
                   help="fail (exit 2) if the imported set looks incomplete")
    z.add_argument("--out", default=None, help="output zeros file")
    z.set_defaults(fn=_cmd_zeros)

    s = sub.add_parser("s", help="evaluate S(t) to CSV 't,S'")
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

    c = sub.add_parser("pcf",
                       help="pair correlation curve to CSV 'alpha,F'")
    c.add_argument("--zeros", required=True, help="zeros text file")
    c.add_argument("--t", type=float, required=True, help="height T")
    c.add_argument("--alpha-max", type=float, default=4.0,
                   help="last grid alpha")
    c.add_argument("--step", type=float, default=0.02, help="grid step")
    c.add_argument("--out", default="pcf.csv", help="output CSV")
    c.set_defaults(fn=_cmd_pcf)

    k = sub.add_parser("check", help="run a named identity check")
    k.add_argument("--identity", required=True, choices=_IDENTITIES,
                   help="identity to check")
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

    r = sub.add_parser("report",
                       help="full second-moment report (JSON + curve CSV)")
    r.add_argument("--t", type=float, required=True, help="height T")
    r.add_argument("--x", type=float, required=True,
                   help="prime cutoff x = T^beta, beta < 1/2")
    r.add_argument("--zeros", required=True, help="zeros text file")
    r.add_argument("--f-tail", choices=("empirical", "model"),
                   default="empirical", help="F-tail source")
    r.add_argument("--out", default="report.json", help="report JSON path")
    r.add_argument("--pcf-out", default=None,
                   help="also write the F curve CSV here")
    r.set_defaults(fn=_cmd_report)
    return p


# Expected failures as (error types, exit code, message prefix); the first
# row that matches wins, so CoverageError comes before DomainError, its base
_EXITS = (
    ((CoverageError, MissedZerosError, ZerosParseError), 2, ""),
    ((DomainError, OSError), 1, ""),
    ((AccuracyError,), 2, "quadrature accuracy: "),
    ((MemoryError,), 2, "out of memory: "),
)
_EXPECTED = tuple(t for types, _, _ in _EXITS for t in types)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # every output file is checked before any work
        for path in (args.out, getattr(args, "pcf_out", None)):
            _probe_writable(path)
        return args.fn(args)
    except SystemExit:      # argparse exits only once --help has printed
        return 0
    except _EXPECTED as exc:
        code, prefix = next((code, prefix) for types, code, prefix in _EXITS
                            if isinstance(exc, types))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
