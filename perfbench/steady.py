#!/usr/bin/env python3
"""Steadiness check for the serve benchmark.

    python3 perfbench/steady.py [--runs N] [--first-seed S] [--trace 0|1]
                                [--workloads hit,miss,...] [--out FILE]

Runs perfbench/run.py N times per workload, each with its own seed, and
prints for every metric its median, quartiles, spread (the interquartile
distance over the median, as statistics.quantiles(values, n=4) gives the
quartiles) and worst deviation from the median, against the metric's
bound in BENCHMARK.json.  A metric is flagged when its spread exceeds
its bound (setup_s is exempt from the spread check: only its median
is compared) and, for the timed runs, when a reported latency
percentile sits in a gap between latency modes: the latency 2 points
either side of the median (0.2 points either side of p99) differs by
more than GAP_RATIO.  Exit status 1 if anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GAP_RATIO = 1.5
GAP_PROBES = {"latency_p50_ms": (0.48, 0.52), "latency_p99_ms": (0.988, 0.992)}


def one_run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=1000)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed ({out.returncode})")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", help="append every run's result as JSON lines")
    a = ap.parse_args()
    metrics = bench["per_layer" if a.trace else "end_to_end"]
    flagged = []
    for wl in a.workloads.split(","):
        runs = []
        for k in range(a.runs):
            seed = a.first_seed + k
            env, res = one_run(wl, seed, a.seconds, a.trace)
            if not res["correct"]:
                flagged.append(f"{wl} seed {seed}: incorrect ({env.get('mismatches')})")
            runs.append((env, res))
            if a.out:
                with open(a.out, "a") as f:
                    f.write(json.dumps({"workload": wl, "seed": seed, "env": env,
                                        "result": res}) + "\n")
        print(f"\n== {wl}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'worst':>8} {'bound':>6}")
        for m in metrics:
            name = m["name"]
            vals = [r["metrics"][name]["value"] for _, r in runs]
            q1, med, q3, sp = spread(vals)
            worst = max(abs(v - med) for v in vals) / med if med else 0.0
            bound = m.get("bound")
            mark = ""
            if bound is not None and name != "setup_s" and sp > bound:
                mark = "  SPREAD>BOUND"
                flagged.append(f"{wl} {name}: spread {sp:.3f} > bound {bound}")
            elif bound is not None and name != "setup_s" and sp > bound / 3:
                mark = "  spread>bound/3"
            print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.3f} "
                  f"{worst:8.3f} {bound if bound is not None else '-':>6}{mark}")
        if not a.trace:
            for name, (lo, hi) in GAP_PROBES.items():
                for env, _ in runs:
                    prof = {round(p["q"], 4): p["ms"] for p in env["latency_ms"]}
                    if prof[lo] > 0 and prof[hi] / prof[lo] > GAP_RATIO:
                        flagged.append(f"{wl} seed {env['seed']}: {name} in a gap "
                                       f"(q{lo}={prof[lo]:.4g} ms, q{hi}={prof[hi]:.4g} ms)")
    if flagged:
        print("\nFLAGGED:\n  " + "\n  ".join(flagged))
        sys.exit(1)
    print("\nno metric outside its bound")


if __name__ == "__main__":
    main()
