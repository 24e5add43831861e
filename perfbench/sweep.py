"""Run every benchmark workload over a range of seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/results/seed-commit.json

Run from the repository root.  For each workload in ``BENCHMARK.json`` (or
those given with ``--workloads``) and each seed, runs ``run.py`` with tracing
off, then once with tracing on at the first seed, one run at a time.  Writes
every run's stamp and result, and for each end-to-end metric, and for each
uncalibrated time in the stamps, its median, quartiles and spread: the
interquartile range over the median, as ``statistics.quantiles(values, n=4)``
gives the quartiles.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=180).stdout
    lines = out.strip().splitlines()
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def summary(runs: list) -> dict:
    """Each metric's quartiles and spread, and under ``raw`` those of the uncalibrated times."""
    out = {name: spread([r["result"]["metrics"][name]["value"] for r in runs]) for name in runs[0]["result"]["metrics"]}
    out["raw"] = {name: spread([r["stamp"]["raw"][name] for r in runs]) for name in runs[0]["stamp"]["raw"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"), help="e.g. 1-10")
    ap.add_argument("--workloads", nargs="*", help="default: all of BENCHMARK.json")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            runs.append(run(name, seed, bench["run_seconds"], 0))
            print(name, seed, json.dumps(runs[-1]["result"]), file=sys.stderr, flush=True)
        traced = run(name, args.seeds[0], bench["run_seconds"], 1)
        report["workloads"][name] = {"summary": summary(runs), "runs": runs, "traced": traced}
        spreads = {k: round(v["spread"], 4) for k, v in report["workloads"][name]["summary"].items() if k != "raw"}
        print(name, "spreads", spreads, file=sys.stderr, flush=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
