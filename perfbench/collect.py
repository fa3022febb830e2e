"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workloads zeros_T10k,report_T2500 \
        --seeds 1-10 [--trace-seed 1] [--out perfbench/BASELINE.json]

Run from the repository root.  For each workload, runs ``run.py`` once per
seed with ``--trace 0`` and prints, per end-to-end metric, the median, the
quartiles (``statistics.quantiles(n=4)``) and their distance as a share of
the median, next to the metric's bound in BENCHMARK.json.  With
``--trace-seed`` it adds one traced run per workload.  With ``--out`` it
writes all of it as JSON, together with one run's provenance line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:"
                         f"\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    prov = next(ln for ln in lines if ln.startswith("provenance: "))
    return json.loads(lines[-1]), json.loads(prov.split(": ", 1)[1])


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--out", default=None)
    args = p.parse_args()
    with open("BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        values, runs = {}, []
        for seed in seeds(args.seeds):
            t0 = time.time()
            res, prov = run(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "seconds": time.time() - t0,
                         "correct": res["correct"],
                         "attempted": res["attempted"],
                         "failed": res["failed"]})
            print(f"{workload} seed {seed}: {time.time() - t0:.1f} s, "
                  f"correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.4f}"
                      for k, v in res["metrics"].items()), flush=True)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        stats = {}
        for k, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            stats[k] = {"median": med, "q1": q1, "q3": q3,
                        "spread": (q3 - q1) / med, "bound": bounds[k],
                        "values": vals}
            print(f"  {k:12s} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"spread {(q3 - q1) / med:.4f}  bound {bounds[k]}")
        entry = {"end_to_end": stats, "runs": runs}
        if args.trace_seed is not None:
            res, _ = run(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in res["metrics"].items()}
        summary["workloads"][workload] = entry
        summary["provenance"] = prov
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
