"""The three workloads: their operations and the correctness gate of each.

An operation is ``(name, run, check)``.  ``run()`` is timed; ``check(out)``
is not, and returns ``None`` when the output is correct or a one-line reason
when it is not.  Inputs are fixed; the seed picks only the S(t) sample
points (and, in ``run.py``, the reference spot-check indices).
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
REFERENCE = os.path.join(DATA, "zeros_t10010.txt")
REFERENCE_SHA256 = \
    "a91fe9b79bfdf59e4adec668d7cecdcc049b31efdd046f12597c5d8f5684e88f"
REFERENCE_COUNT = 10154

ZEROS_T_MAX = 10010.0
ZEROS_THREADS = 2
# max |gamma - reference| accepted from `szeta zeros`: just above the seed's
# worst error, 1.18e-7 (254 ordinates are off by more than 1e-8), so any loss
# of accuracy fails; the measured value is reported as zeros.max_abs_err.
ZEROS_TOL = 2e-7

# T = 2500 keeps the report's layer mix of T = 5000 (mostly pair sums) at a
# fifth of the time, so a run takes the median of several repetitions
REPORT_T, REPORT_X, REPORT_PREFIX = 2500.0, 20.0, 2510.0
REL_TOL = 1e-8            # outputs recorded at the seed commit

ID_T, ID_BETA, ID_X, ID_PREFIX = 500.0, 0.5, 20.0, 512.0
S_X = 100.0               # prime cutoff of the explicit S(t) route
S_POINTS = 450
S_TOL = 0.15
KERNEL_IDENTITIES = ("w_partition", "lemma3", "lemma4", "lemma7", "lemma11")
CLI_S_RANGE = (100.0, 110.0, 0.5)

# operations that fail at the seed commit, with the exception each raises;
# any other failure makes the run incorrect
KNOWN_FAILURES = {
    # make_sinh_table is used at cli.py:178 but never imported
    "cli s --method explicit": "NameError",
}

# values measured by the checks, reported with the traced per-layer metrics
MEASURED = {}
# which workload's checks measure each of them; it reads 0 on the others
MEASURED_BY = {
    "zeros.max_abs_err": "zeros_T10k",
    "s_of_t.explicit_max_abs_err": "identities_T500",
}


def known_failure(op: dict) -> bool:
    exc = KNOWN_FAILURES.get(op["name"])
    return (exc is not None and op["kind"] == "raised"
            and op["error"].startswith(exc + ":"))


def read_ordinates(path: str) -> np.ndarray:
    """Plain parser of the zeros text format, independent of szeta."""
    with open(path, encoding="ascii") as fh:
        return np.array([float(ln) for ln in fh
                         if ln.strip() and not ln.startswith("#")])


def write_prefix(ordinates: np.ndarray, t_cut: float, path: str) -> None:
    body = "\n".join(repr(float(g)) for g in ordinates[ordinates <= t_cut])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# reference ordinates up to {t_cut:g}\n{body}\n")


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


_NUM = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _compare(got, want, where="") -> str | None:
    """First difference between two JSON values, floats to REL_TOL; numbers
    inside strings (the report notes) are compared the same way."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return f"{where}: keys differ"
        for k in want:
            bad = _compare(got[k], want[k], f"{where}.{k}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            bad = _compare(g, w, f"{where}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(want, str):
        # a note: same text, and its numbers to REL_TOL of the note's
        # largest one (a printed residual is a difference of large terms)
        if not isinstance(got, str) or _NUM.sub("#", got) != _NUM.sub("#", want):
            return f"{where}: text differs"
        pairs = [(float(g), float(w)) for g, w in
                 zip(_NUM.findall(got), _NUM.findall(want))]
        scale = max((abs(w) for _, w in pairs), default=0.0)
        for g, w in pairs:
            if abs(g - w) > REL_TOL * scale:
                return f"{where}: {g!r} != {w!r}"
        return None
    if isinstance(want, bool) or want is None:
        return None if got == want else f"{where}: {got!r} != {want!r}"
    if not isinstance(got, (int, float)) or not _close(float(got), float(want)):
        return f"{where}: {got!r} != {want!r}"
    return None


def _read_csv(path: str) -> list:
    with open(path, encoding="ascii") as fh:
        next(fh)
        return [[float(v) for v in ln.split(",")] for ln in fh if ln.strip()]


def _expected() -> dict:
    with open(os.path.join(DATA, "expected.json"), encoding="ascii") as fh:
        return json.load(fh)


def _cli(argv) -> int:
    from szeta.cli import main
    return main(argv)


# ----------------------------------------------------------------------
# zeros_T10k
# ----------------------------------------------------------------------

def zeros_ops(work: str, seed: int, ref: np.ndarray):
    out = os.path.join(work, "zeros.txt")

    def run():
        return _cli(["--threads", str(ZEROS_THREADS), "zeros", "--t-max",
                     repr(ZEROS_T_MAX), "--out", out])

    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        got = read_ordinates(out)
        if len(got) != len(ref):
            return f"{len(got)} ordinates, reference has {len(ref)}"
        worst = float(np.max(np.abs(got - ref)))
        MEASURED["zeros.max_abs_err"] = worst
        if worst > ZEROS_TOL:
            return f"max |gamma - reference| = {worst:.3e} > {ZEROS_TOL:g}"
        return None

    return [("cli zeros --t-max 10010", run, check)]


# ----------------------------------------------------------------------
# report_T2500
# ----------------------------------------------------------------------

def report_ops(work: str, seed: int, ref: np.ndarray):
    zeros = os.path.join(work, "zeros_2510.txt")
    write_prefix(ref, REPORT_PREFIX, zeros)
    rep = os.path.join(work, "report.json")
    curve = os.path.join(work, "pcf.csv")

    def run():
        return _cli(["report", "--t", repr(REPORT_T), "--x", repr(REPORT_X),
                     "--zeros", zeros, "--out", rep, "--pcf-out", curve])

    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        with open(rep, encoding="ascii") as fh:
            got = json.load(fh)
        with open(os.path.join(DATA, "report_T2500.json"),
                  encoding="ascii") as fh:
            want = json.load(fh)
        bad = _compare(got, want, "report")
        if bad:
            return bad
        got_c = _read_csv(curve)
        want_c = _read_csv(os.path.join(DATA, "pcf_T2500.csv"))
        return _compare(got_c, want_c, "pcf.csv")

    return [("cli report --t 2500 --x 20", run, check)]


# ----------------------------------------------------------------------
# identities_T500
# ----------------------------------------------------------------------

def sample_points(seed: int) -> np.ndarray:
    """Seeded S(t) sample points, uniform on [20, ID_T]."""
    return np.random.default_rng(seed).uniform(20.0, ID_T, S_POINTS)


def identities_ops(work: str, seed: int, ref: np.ndarray):
    import szeta.kernels as kernels
    import szeta.paircorr as paircorr
    import szeta.primes as primes
    import szeta.s_of_t as s_of_t
    import szeta.theorem as theorem
    import szeta.zeros as zeros_mod

    path = os.path.join(work, "zeros_512.txt")
    write_prefix(ref, ID_PREFIX, path)
    points = sample_points(seed)
    st = {}

    def load():
        with open(path, encoding="ascii") as fh:
            zs = zeros_mod.import_zeros(fh.read())
        table = primes.build_prime_table(1000)
        st["zs"] = zs
        st["ev"] = s_of_t.SEvaluator(zeros=zs, prime_table=table)
        return zs

    def check_load(zs):
        if len(zs) != int(np.sum(ref <= ID_PREFIX)) or not zs.claimed_complete:
            return f"{len(zs)} ordinates, complete={zs.claimed_complete}"
        return None

    ops = [("import_zeros prefix 512", load, check_load)]

    for name in KERNEL_IDENTITIES:
        def run(name=name):
            return kernels.check_identity(name)

        def check(rep):
            if rep.assertable and not rep.passed:
                return (f"{rep.name}: discrepancy {rep.discrepancy_rel:.3e}"
                        f" > tolerance {rep.tolerance:g}")
            return None
        ops.append((f"check_identity {name}", run, check))

    def lemma5():
        return paircorr.lemma5_check(st["zs"], ID_T, ID_BETA)

    def check_lemma5(rep):
        if not rep.discrepancy_rel < 1e-4:
            return f"lemma5 discrepancy {rep.discrepancy_rel:.3e} >= 1e-4"
        return None

    def lemma6():
        return paircorr.lemma6_eval(st["zs"], ID_T, ID_BETA)

    def check_lemma6(dec):
        parts = dec.term_main + dec.term_F_beta - dec.term_k2_integral
        rel = abs(dec.r_total - parts) / max(abs(dec.r_total), abs(parts))
        if not rel < 1e-6:
            return f"lemma6 regroup discrepancy {rel:.3e} >= 1e-6"
        if dec.r_total_direct is None or not math.isfinite(dec.r_total_direct):
            return "lemma6 direct time integral missing"
        return None

    def lemma8910():
        return theorem.lemma_8_9_10_eval(st["zs"], ID_T, ID_BETA)

    def check_lemma8910(reps):
        if sorted(reps) != ["lemma10", "lemma8", "lemma9"]:
            return f"lemma_8_9_10_eval returned {sorted(reps)}"
        for name, rep in reps.items():
            if not (math.isfinite(rep.lhs) and math.isfinite(rep.rhs)):
                return f"{name}: non-finite sides"
        return None

    ops += [("lemma5_check T=500", lemma5, check_lemma5),
            ("lemma6_eval T=500 (direct)", lemma6, check_lemma6),
            ("lemma_8_9_10_eval T=500", lemma8910, check_lemma8910)]

    def recorded(key):
        def check(val):
            if isinstance(val, tuple):
                val = list(val)
            return _compare(val, _expected()[key], key)
        return check

    ops += [
        ("second_moment T=500",
         lambda: s_of_t.second_moment(ID_T, st["ev"]), recorded("second_moment")),
        ("s_mean T=500",
         lambda: s_of_t.s_mean(ID_T, st["ev"]), recorded("s_mean")),
        ("g_and_h_direct T=500",
         lambda: _gh(s_of_t.g_and_h_direct(ID_T, ID_X, st["ev"])),
         recorded("g_and_h_direct")),
    ]

    def s_routes(table):
        ev = st["ev"]
        return [(s_of_t.s_explicit(float(t), S_X, ev, table=table)[0],
                 s_of_t.s_exact(float(t), ev)) for t in points]

    def check_s(pairs):
        worst = max(abs(a - b) for a, b in pairs)
        MEASURED["s_of_t.explicit_max_abs_err"] = worst
        if not worst < S_TOL:
            return f"max |S_explicit - S_exact| = {worst:.3f} >= {S_TOL}"
        return None

    ops += [
        (f"s_explicit vs s_exact, {S_POINTS} points, sinh table",
         lambda: s_routes(s_of_t.make_sinh_table()), check_s),
        (f"s_explicit vs s_exact, {S_POINTS} points, per-zero quadrature",
         lambda: s_routes(None), check_s),
    ]

    csv = os.path.join(work, "s_explicit.csv")
    lo, hi, step = CLI_S_RANGE

    def cli_s():
        return _cli(["s", "--zeros", path, "--t-min", repr(lo), "--t-max",
                     repr(hi), "--step", repr(step), "--method", "explicit",
                     "--x", repr(S_X), "--out", csv])

    def check_cli_s(rc):
        if rc != 0:
            return f"exit code {rc}"
        rows = _read_csv(csv)
        if len(rows) != int(math.floor((hi - lo) / step)) + 1:
            return f"{len(rows)} rows"
        table = s_of_t.make_sinh_table()
        want = [[t, s_of_t.s_explicit(t, S_X, st["ev"], table=table)[0]]
                for t, _ in rows]
        return _compare(rows, want, "s.csv")

    ops.append(("cli s --method explicit", cli_s, check_cli_s))
    return ops


def _gh(res):
    return [res.g, res.h, res.g_sum_formula, res.h_sum_formula]


WORKLOADS = {
    "zeros_T10k": zeros_ops,
    "report_T2500": report_ops,
    "identities_T500": identities_ops,
}
