"""szeta benchmark: one workload, one seed, one line of JSON at the end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  See perfbench/README.md for the workloads,
the metrics and what each should move.

``--trace 0`` measures the end-to-end metrics: repetitions of the workload,
each in a fresh process (perfbench/worker.py), until the next one would end
more than ``--seconds`` after the first began; ``wall_s`` and
``peak_rss_mb`` are medians over them.  ``setup_s`` is the median over
SETUP_PROBES fresh processes that import szeta and build its first-use
tables.  The shared machine's speed drifts by tens of percent over minutes,
so a fixed calibration loop (``worker.calibrate``) is timed in its own
process before and after every repetition, and ``wall_s`` and ``setup_s``
are scaled to the speed at which that loop takes REFERENCE_CAL_S.
``--trace 1`` runs the workload once traced and reports the per-layer
metrics and the tracing overhead.  Every operation's output is
checked, and ``correct`` is false if any operation fails other than the
known seed failures in ``workloads.KNOWN_FAILURES``; the reference zeros
file is checked by hash and at seeded indices against mpmath.zetazero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 9
# the calibration loop's time (worker.calibrate) at this machine's median
# speed; wall_s and setup_s are scaled by REFERENCE_CAL_S / measured
REFERENCE_CAL_S = 0.48
CALIBRATION_PROCS = 2                       # the machine's cores
SPOT_CHECKS = 2
SPOT_TOL = 1e-8
CHILD_TIMEOUT = 170.0
BLAS_THREADS = "1"
WORKER = os.path.join("perfbench", "worker.py")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SZETA_THREADS", None)          # it would override --threads
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args, env, deadline) -> float:
    """Run one worker to completion; returns its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, WORKER] + args, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.time()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return time.perf_counter() - t0


def calibration(env, deadline) -> float:
    """Seconds the fixed calibration loop takes now: the mean over one fresh
    process per core, run at once, so both cores' speeds count."""
    procs = [subprocess.Popen([sys.executable, WORKER, "--calibrate"],
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(CALIBRATION_PROCS)]
    secs = []
    try:
        for proc in procs:
            out, err = proc.communicate(
                timeout=max(1.0, deadline - time.time()))
            if proc.returncode != 0:
                raise RuntimeError(f"calibration exited {proc.returncode}:"
                                   f"\n{err[-2000:]}")
            secs.append(float(out.split()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return statistics.fmean(secs)


def worker_rep(workload, seed, work, env, deadline, tag, extra=()):
    out = os.path.join(work, f"{tag}.json")
    spawn(["--workload", workload, "--seed", str(seed), "--work", work,
           "--out", out, *extra], env, deadline)
    with open(out, encoding="ascii") as fh:
        return json.load(fh)


def spot_check(seed: int, ref) -> list:
    """Reference ordinates at seeded indices vs mpmath.zetazero."""
    import random
    import mpmath
    rng = random.Random(seed)
    bad = []
    for i in rng.sample(range(len(ref)), SPOT_CHECKS):
        want = float(mpmath.zetazero(i + 1).imag)
        if abs(float(ref[i]) - want) > SPOT_TOL:
            bad.append(f"reference ordinate #{i + 1} = {ref[i]!r}, "
                       f"mpmath.zetazero gives {want!r}")
    return bad


def provenance(ref_sha: str) -> dict:
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    src = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join("src", "szeta"))):
        if name.endswith(".py"):
            with open(os.path.join("src", "szeta", name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    cpu = ram = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
        with open("/proc/meminfo", encoding="ascii") as fh:
            ram = fh.readline().split(":", 1)[1].strip()
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "ram": ram,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {"szeta --threads": workloads.ZEROS_THREADS,
                    "OPENBLAS/OMP/MKL_NUM_THREADS": BLAS_THREADS},
        "git_commit": commit or "unknown (not a git checkout)",
        "src_sha256": src.hexdigest(),
        "reference_sha256": ref_sha,
    }


def load_spec() -> dict:
    with open("BENCHMARK.json", encoding="ascii") as fh:
        return json.load(fh)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    start = time.time()
    deadline = start + CHILD_TIMEOUT
    if not os.path.isfile(os.path.join("src", "szeta", "__init__.py")):
        print("error: run from a szeta checkout root (src/szeta missing)",
              file=sys.stderr)
        return 2
    spec = load_spec()
    with open(workloads.REFERENCE, "rb") as fh:
        ref_sha = hashlib.sha256(fh.read()).hexdigest()
    ref = workloads.read_ordinates(workloads.REFERENCE)
    problems = []
    if ref_sha != workloads.REFERENCE_SHA256 or \
            len(ref) != workloads.REFERENCE_COUNT:
        problems.append(f"reference file hash {ref_sha} or count {len(ref)} "
                        "differs from the recorded one")

    env = child_env()
    work = os.path.join(os.path.abspath(".perfbench_work"),
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        reps, cals = [], []
        if args.trace:
            setup = []
            traced = worker_rep(args.workload, args.seed, work, env, deadline,
                                "traced", ["--trace"])
            reps.append(traced)
            serial = None
            if args.workload == "zeros_T10k":
                serial = worker_rep(args.workload, args.seed, work, env,
                                    deadline, "serial", ["--trace", "--serial"])
        else:
            # half the set-up probes before the repetitions and half after,
            # so their median spans the machine's drift over the whole run
            before = (SETUP_PROBES + 1) // 2
            setup = [spawn(["--setup"], env, deadline) for _ in range(before)]
            stop = time.time() + args.seconds
            cals.append(calibration(env, deadline))
            while True:
                t0 = time.time()
                rep = worker_rep(args.workload, args.seed, work, env,
                                 deadline, f"rep{len(reps)}")
                cals.append(calibration(env, deadline))
                # the machine's speed over the repetition: the mean of the
                # calibrations just before and just after it
                rep["speed"] = REFERENCE_CAL_S / (0.5 * (cals[-2] + cals[-1]))
                reps.append(rep)
                if time.time() + (time.time() - t0) > stop:
                    break
            setup += [spawn(["--setup"], env, deadline)
                      for _ in range(SETUP_PROBES - before)]
        problems += spot_check(args.seed, ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for rep in reps for op in rep["ops"]]
    attempted = len(ops)
    failed = [op for op in ops if op["kind"] != "ok"]
    unexpected = [op for op in failed if not workloads.known_failure(op)]
    raw_wall = statistics.median(r["wall_s"] for r in reps)
    if args.trace:
        wall = raw_wall
    else:
        wall = statistics.median(r["wall_s"] * r["speed"] for r in reps)
        raw_setup = statistics.median(setup)
        # probes before the repetitions at the first calibration's speed,
        # those after at the last one's
        setup_s = statistics.median(
            [s * REFERENCE_CAL_S / cals[0] for s in setup[:before]]
            + [s * REFERENCE_CAL_S / cals[-1] for s in setup[before:]])
    rss_mb = statistics.median(r["rss_kb"] for r in reps) / 1024.0

    names = sorted({op["name"] for op in ops}, key=[o["name"] for o in ops].index)
    for name in names:
        secs = [op["seconds"] for op in ops if op["name"] == name]
        errs = {op["error"] for op in ops if op["name"] == name and op["error"]}
        print(f"  {name:<58s} {statistics.median(secs):9.3f} s  "
              f"x{len(secs)}" + ("  FAILED: " + "; ".join(sorted(errs))
                                 if errs else ""))
    for msg in problems:
        print(f"  CHECK FAILED: {msg}")
    print("provenance: " + json.dumps(provenance(ref_sha), sort_keys=True))
    for op in unexpected:
        print(f"  UNEXPECTED FAILURE: {op['name']}: {op['error']}")
    print(f"summary: workload={args.workload} seed={args.seed} "
          f"repetitions={len(reps)} traced={bool(args.trace)} "
          f"wall_s={wall:.4f} s (unscaled {raw_wall:.4f} s)"
          + (f" setup_s={setup_s:.4f} s (unscaled "
             f"{raw_setup:.4f} s) calibration={statistics.median(cals):.4f} s"
             if setup else "")
          + f" peak_rss_mb={rss_mb:.1f} MB fail_ratio={len(failed)}/"
          f"{attempted}={len(failed) / attempted:.4f}")

    if args.trace:
        layer = dict(traced["per_layer"])
        if serial is not None:
            ser = serial["per_layer"]["zeros.find_zeros.busy_s"]
            par = layer["zeros.find_zeros.busy_s"]
            layer["zeros.find_zeros.serial_s"] = ser
            layer["zeros.thread_efficiency"] = \
                ser / (workloads.ZEROS_THREADS * par)
        else:       # no zero scan runs on this workload
            layer["zeros.find_zeros.serial_s"] = 0.0
            layer["zeros.thread_efficiency"] = 0.0
        wanted = spec["per_layer"]
    else:
        layer = {"wall_s": wall, "setup_s": setup_s,
                 "peak_rss_mb": rss_mb}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in layer]
    if missing:
        print("error: the run produced no value for " + ", ".join(missing),
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(layer[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    os.makedirs(".perfbench_out", exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "metrics": metrics, "ops": ops,
              "problems": problems, "setup_runs_s": setup,
              "calibrations_s": cals,
              "spans": traced["spans"] if args.trace else None,
              "repetitions": [{k: r.get(k) for k in ("wall_s", "rss_kb",
                                                     "speed")}
                              for r in reps]}
    with open(os.path.join(".perfbench_out", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not unexpected and not problems,
                      "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
