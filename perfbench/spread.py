#!/usr/bin/env python3
"""Check that the benchmark is steady, the way a regression check reads it.

Run from the root of a checkout:

    python3 perfbench/spread.py [--seeds 1-10] [--sets 2] [--workloads a,b]

For each workload, runs the benchmark once per seed (untraced), and
repeats that whole set of seeds --sets times, one set after the other.
For each end-to-end metric it reports, per set, the median of the
per-seed values and their spread, (q3 - q1) / median, as Python's
statistics.quantiles gives the quartiles; and the largest difference
between two sets' medians, as a share of the first set's median.

A spread above a third of the metric's bound in BENCHMARK.json is
flagged. The check fails (exit 1) when a run fails, when a spread other
than setup_s's is above its bound, or when two sets' medians differ by
more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        print(f"{workload} seed {seed}: FAILED\n{out.stdout}{out.stderr}")
        return None
    print(f"{workload} seed {seed}: " + ", ".join(
        f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(xs):
    med = statistics.median(xs)
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return med, (q[2] - q[0]) / abs(med)


def main() -> int:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            print(f"{workload}: set {k + 1} of {args.sets}", flush=True)
            values = {}
            for seed in seeds_of(args.seeds):
                result = run_once(bench, workload, seed)
                if result is None:
                    ok = False
                    continue
                for name, v in result.items():
                    values.setdefault(name, []).append(v)
            sets.append(values)
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [spread(s[name]) for s in sets if s.get(name)]
            if not per_set:
                continue
            meds = [med for med, _ in per_set]
            drift = max(abs(b - a) / abs(a) for a in meds for b in meds)
            flags = []
            for med, sp in per_set:
                if sp > bound and name != "setup_s":
                    flags.append("SPREAD OVER BOUND")
                    ok = False
                elif sp > bound / 3:
                    flags.append("spread above a third of bound")
            if drift > bound:
                flags.append("MEDIANS DIFFER BY MORE THAN BOUND")
                ok = False
            print(f"  {workload:18s} {name:20s} bound {bound:<5} medians "
                  + " ".join(f"{med:.6g}" for med in meds)
                  + "  spreads " + " ".join(f"{sp:.4f}" for _, sp in per_set)
                  + f"  median drift {drift:.4f}"
                  + ("  " + "; ".join(sorted(set(flags))) if flags else ""), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
