"""Benchmark entry point: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload hopf-3x2-q1 --seed 1 --seconds 5 --trace 0

Run from the repository root; ``wittquant`` is imported from ``src/`` there.
Every measurement runs in a worker process of its own, one at a time: a
closed loop with one caller, single-threaded.

``--trace 0`` measures the end-to-end metrics with tracing off.  It runs the
verdict in fresh workers until ``--seconds`` of verdict time are measured (at
least once), starts ``SETUP_PROBES`` workers that stop after the set-up, half
before the verdicts and half after, and reports medians.  Its times are
scaled to a nominal machine speed by ``calib.Calibrator``.  ``--trace 1``
runs one untraced and one traced verdict and reports the per-layer metrics
of the traced one.

Stdout gets a line ``{"stamp": ...}`` describing the run, with the unscaled
medians under ``raw``, then, as its last line, ``{"correct", "attempted",
"failed", "metrics"}``.  A missing checkout or a worker that fails exits
nonzero without a result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import lookup

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 20
# The whole run must end within 180 s; stop starting verdicts after this.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def git_commit(root: str) -> str | None:
    """The checked-out commit read from ``.git``, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    sha, _, name = line.strip().partition(" ")
                    if name == ref:
                        return sha
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None


def stamp(root: str, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(root),
    }


def worker(root: str, workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one worker process and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the measurement finished")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *flags]
    # fixed string hashing, so every run of a seed does the same work
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(flags)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(flags)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdicts(root: str, args, deadline: float) -> list:
    """Untraced verdicts in fresh workers until ``args.seconds`` are measured."""
    runs: list = []
    while True:
        runs.append(worker(root, args.workload, args.seed, deadline))
        spent = sum(r["raw_verdict_s"] for r in runs)
        if spent >= args.seconds or time.monotonic() + 1.5 * runs[-1]["raw_verdict_s"] > deadline:
            return runs


def setup_runs(root: str, args, deadline: float, count: int) -> list:
    """Results of ``count`` workers that stop after the set-up."""
    return [worker(root, args.workload, args.seed, deadline, "--setup-only") for _ in range(count)]


def count_failed(reference: dict, ops: dict) -> int:
    """Ops that failed, are missing, or whose status differs from the reference verdict's."""
    return sum(
        1
        for op in reference.keys() | ops.keys()
        if ops.get(op) in (None, "fail", "missing") or ops[op] != reference.get(op)
    )


def measure(root: str, args) -> tuple:
    deadline = time.monotonic() + DEADLINE_S
    metrics = {}
    # unscaled medians, printed in the stamp line for reference
    raw = {}
    if args.trace:
        plain = verdicts(root, args, deadline)
        runs = [*plain, worker(root, args.workload, args.seed, deadline, "--trace")]
        traced = runs[-1]
        for name, (value, unit) in traced["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
        overhead = traced["raw_verdict_s"] / statistics.median(r["raw_verdict_s"] for r in plain)
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        # half the set-up probes before the verdicts and half after, so that
        # their median does not hang on the machine's speed at one moment
        half = SETUP_PROBES // 2
        setups = setup_runs(root, args, deadline, half)
        runs = verdicts(root, args, deadline)
        setups += setup_runs(root, args, deadline, SETUP_PROBES - half)
        setups += runs
        metrics["setup_s"] = {"value": statistics.median(r["setup_s"] for r in setups), "unit": "s"}
        raw["setup_s"] = statistics.median(r["raw_setup_s"] for r in setups)
        for name, unit in (("verdict_s", "s"), ("verdict_cpu_s", "s"), ("peak_rss_mb", "MiB")):
            metrics[name] = {"value": statistics.median(r[name] for r in runs), "unit": unit}
        for name in ("verdict_s", "verdict_cpu_s"):
            raw[name] = statistics.median(r[f"raw_{name}"] for r in runs)
    reference = runs[0]["ops"]
    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(count_failed(reference, r["ops"]) for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="verdict time to measure, at least one verdict")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wittquant", "__init__.py")):
        print(f"perfbench: no src/wittquant under {root}; run from the repository root", file=sys.stderr)
        return 2
    try:
        lookup(args.workload)
        result, raw = measure(root, args)
    except (KeyError, BenchError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"stamp": {**stamp(root, args), "raw": raw}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
