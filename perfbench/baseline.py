#!/usr/bin/env python3
"""Measures the benchmark's baseline: median and quartiles per metric.

    python3 perfbench/baseline.py

Runs run.py once per (workload, seed) for every workload of BENCHMARK.json,
with the seeds SEEDS and its run_seconds, untraced, then one traced run per
workload at the first seed. For every end-to-end metric it records the
median, the quartiles (statistics.quantiles(n=4)) and the spread,
(q3 - q1) / median, next to the metric's bound; for the per-layer metrics it
records the traced values. Writes perfbench/BASELINE.json. Exits 1 if any
run fails or a spread exceeds its bound.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(301, 311))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit("run failed: %s seed %d trace %d (exit %d)" %
                         (workload, seed, trace, proc.returncode))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    host = os.uname()
    out = {
        "host_cpus": os.cpu_count(),
        "host": "%s %s" % (host.sysname, host.machine),
        "build": "Release (perfbench/CMakeLists.txt), benchmark-grade",
        "run_seconds": bench["run_seconds"],
        "runs": len(SEEDS),
        "seeds": SEEDS,
        "measured": time.strftime("%Y-%m-%d"),
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in out["seeds"]:
            result = run(workload, seed, bench["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d done" % (workload, seed), flush=True)
        summary = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": round(spread, 4),
                             "bound": bounds.get(name)}
            if name in bounds and spread > bounds[name]:
                ok = False
            print("  %-22s median %-12.6g spread %.4f (bound %s)" %
                  (name, med, spread, bounds.get(name)), flush=True)
        traced = run(workload, out["seeds"][0], bench["run_seconds"], 1)
        out["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer_seed_%d" % out["seeds"][0]: {
                name: m["value"] for name, m in traced["metrics"].items()},
        }
    with open(os.path.join(HERE, "BASELINE.json"), "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
