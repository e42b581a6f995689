#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs each workload repeatedly (one run per seed, plus a repeat of the
first seed), then prints, for every end-to-end metric, the median, the
quartiles and the interquartile range as a share of the median against
the metric's bound in BENCHMARK.json.

Fails (exit 1) if any run fails, reports an incorrect answer or a failed
operation, if `search_steps` differs between two runs of the same seed,
or if any spread exceeds its metric's bound.

    python3 e2ebench/steady.py                         # seeds 1-10, every workload
    python3 e2ebench/steady.py --workloads wire --runs 5

Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload (at least 2)")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = list(range(1, args.runs + 1))

    ok = True
    for w in names:
        runs = []
        steps_at = {}
        for seed in seeds + seeds[:1]:
            r = run_once(spec, w, seed)
            m = {k: v["value"] for k, v in r["metrics"].items()}
            share = r["failed"] / r["attempted"]
            print(f"{w:6} seed {seed:4}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in sorted(m.items())), flush=True)
            if not r["correct"] or r["failed"]:
                print(f"  FAIL: run not correct or with failed operations (share {share})")
                ok = False
            steps_at.setdefault(seed, set()).add(m["search_steps"])
            runs.append(m)
        for seed, steps in steps_at.items():
            if len(steps) > 1:
                print(f"  FAIL: {w} seed {seed}: search_steps differ between runs: {sorted(steps)}")
                ok = False
        per_seed = runs[: len(seeds)]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [m[name] for m in per_seed]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
            if spread > bound:
                ok = False
            print(f"  {w:6} {name:14} median {med:12.6g} {metric['unit']:6} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} iqr/median {spread:7.4f} bound {bound:5.3f} [{flag}]")
    print("steady: " + ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
