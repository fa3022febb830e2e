"""One repetition of one workload, in a fresh process.

``run.py`` starts this file once per repetition, so every repetition pays
the lazy tables and caches a fresh ``szeta`` process pays, as a CLI call
does.  Only the ``run`` half of each operation is timed; checks are not.

    python3 perfbench/worker.py --setup
    python3 perfbench/worker.py --calibrate
    python3 perfbench/worker.py --workload NAME --seed N --work DIR --out FILE
                                [--trace] [--serial]
    python3 perfbench/worker.py --record     # rewrite perfbench/data/ outputs

Run from the repository root; ``run.py`` sets PYTHONPATH=src.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

CALIBRATION_PASSES = 2


def setup_probe() -> None:
    """Import szeta and pay for the first-use tables through public calls:
    the Riemann-Siegel correction fit, the khat grid tables, the prime sieve
    behind the prime constants and the sinh-integral spline."""
    import numpy as np
    from szeta.kernels import khat_many
    from szeta.primes import prime_power_double_sum
    from szeta.s_of_t import make_sinh_table
    from szeta.zeros import riemann_siegel_Z

    riemann_siegel_Z(np.array([600.0]))
    khat_many(np.array([1.0]))
    prime_power_double_sum(lambda m: 1.0 / m - 1.0 / m ** 2)
    make_sinh_table()


def calibrate() -> float:
    """Seconds one fixed loop takes at the machine's current speed.

    The loop mixes what the workloads do: wide complex NumPy arithmetic on
    a 2M-element array (the pair sums' chunks), transcendentals on a
    cache-sized array, and small NumPy calls from a Python loop (the
    quadrature).  It uses no szeta code, so a change to the package cannot
    move it.  One untimed pass first, so the timed one pays no first-use
    costs.  Runs in a process of its own, so it leaves no trace in a
    repetition's peak RSS and no state of the package can slow it."""
    import numpy as np

    wide = np.linspace(0.0, 1.0, 2_000_000)
    mid = np.linspace(0.0, 50.0, 200_000)
    small = np.arange(40, dtype=float)

    def loop() -> float:
        acc = 0.0
        rot = np.exp(0.3j * wide)
        acc += float(np.sum((rot * rot).real * wide))
        acc += float(np.sum(np.cos(2.0 * wide)))
        for k in range(20):
            acc += float(np.sum(np.cos(mid * (1 + k)) * np.exp(-0.01 * mid)))
        for k in range(12000):
            acc += float(np.sum(small * 0.5)) + (k % 7) * 1.5
        for k in range(120000):
            acc += (k * k) % 13
        return acc

    loop()
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_PASSES):
        loop()
    return time.perf_counter() - t0


def run_ops(ops) -> list:
    results = []
    for name, run, check in ops:
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:
            seconds = time.perf_counter() - t0
            tb = traceback.extract_tb(exc.__traceback__)[-1]
            results.append({"name": name, "seconds": seconds, "kind": "raised",
                            "error": f"{type(exc).__name__}: {exc} "
                                     f"({os.path.basename(tb.filename)}:"
                                     f"{tb.lineno})"})
            continue
        seconds = time.perf_counter() - t0
        bad = check(out)
        results.append({"name": name, "seconds": seconds,
                        "kind": "wrong" if bad else "ok", "error": bad})
    return results


def serial_zeros() -> None:
    from szeta.zeros import find_zeros
    find_zeros(workloads.ZEROS_T_MAX, threads=1)


def record() -> None:
    """Record the seed commit's outputs that the gates compare against."""
    ref = workloads.read_ordinates(workloads.REFERENCE)
    work = tempfile.mkdtemp(prefix="record-", dir=".")
    try:
        for name, run, _ in workloads.report_ops(work, 0, ref):
            if run() != 0:
                raise RuntimeError(f"{name} failed")
        shutil.copy(os.path.join(work, "report.json"),
                    os.path.join(workloads.DATA, "report_T2500.json"))
        shutil.copy(os.path.join(work, "pcf.csv"),
                    os.path.join(workloads.DATA, "pcf_T2500.csv"))
        ops = workloads.identities_ops(work, 0, ref)
        values = {}
        for name, run, _ in ops:
            if name == "import_zeros prefix 512":
                run()
            key = name.split()[0]
            if key in ("second_moment", "s_mean", "g_and_h_direct"):
                values[key] = run()
        with open(os.path.join(workloads.DATA, "expected.json"), "w",
                  encoding="ascii") as fh:
            json.dump(values, fh, indent=2)
            fh.write("\n")
    finally:
        shutil.rmtree(work)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--setup", action="store_true")
    p.add_argument("--calibrate", action="store_true",
                   help="print the seconds the calibration loop takes")
    p.add_argument("--record", action="store_true")
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--work")
    p.add_argument("--out")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--serial", action="store_true",
                   help="run find_zeros with threads=1 instead of the ops")
    args = p.parse_args()
    if args.setup:
        setup_probe()
        return 0
    if args.record:
        record()
        return 0
    if args.calibrate:
        print(repr(calibrate()))
        return 0

    import szeta.cli  # noqa: F401  (the CLI is not imported by szeta itself)
    tracer = None
    if args.trace:
        import spans as tr
        tracer = tr.Tracer()
        tr.install(tracer)
    if args.serial:
        ops = [("find_zeros threads=1", serial_zeros, lambda _: None)]
    else:
        ref = workloads.read_ordinates(workloads.REFERENCE)
        ops = workloads.WORKLOADS[args.workload](args.work, args.seed, ref)
    results = run_ops(ops)
    out = {
        # a failed operation's time is left out: a crash must not read as
        # a speed-up
        "wall_s": sum(r["seconds"] for r in results if r["kind"] == "ok"),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": results,
        "measured": workloads.MEASURED,
    }
    if tracer is not None:
        spans = tracer.spans()
        out["per_layer"] = tr.per_layer(spans, tracer.counts,
                                        tracer.worst_err)
        out["per_layer"].update(workloads.MEASURED)
        for key, owner in workloads.MEASURED_BY.items():
            if owner != args.workload:
                out["per_layer"][key] = 0.0
        out["per_layer"]["trace.overhead_s"] = tr.overhead_s(
            len(spans), tracer.integrand_calls)
        out["spans"] = spans
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
