"""Run one workload once, in this process, and print what it measured.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Run from the repository root; ``wittquant`` is imported from ``src/`` there.
Prints one JSON object on stdout.  ``run.py`` starts one worker per
measurement, so that every verdict starts cold in a process of its own and
the peak resident memory belongs to that verdict alone.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys

from calib import Calibrator, Stopwatch
from workloads import lookup, score


def import_wittquant(root: str):
    """Import ``wittquant`` from ``<root>/src``, refusing any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import wittquant

    if os.path.dirname(os.path.abspath(wittquant.__file__)) != os.path.join(src, "wittquant"):
        raise ImportError(f"wittquant was imported from {wittquant.__file__}, not from {src}")
    return wittquant


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true", help="wrap the layer boundaries and report spans")
    ap.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    args = ap.parse_args(argv)
    workload = lookup(args.workload)
    root = os.getcwd()

    if args.trace:
        # spans would count the calibration's handler, so a traced worker
        # reports raw times only
        setup = verdict = Stopwatch()
    else:
        setup, verdict = Calibrator(), Calibrator()
    with setup:
        wq = import_wittquant(root)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install(wq)
        state = workload.setup(wq, args.seed)
    out = {"setup_s": setup.scaled_wall_s, "raw_setup_s": setup.raw_wall_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if tracer is not None:
        tracer.reset()
    with verdict:
        reports, comparisons = workload.verdict(wq, state)
    out.update(
        verdict_s=verdict.scaled_wall_s,
        verdict_cpu_s=verdict.scaled_cpu_s,
        raw_verdict_s=verdict.raw_wall_s,
        raw_verdict_cpu_s=verdict.raw_cpu_s,
        # ru_maxrss is in KiB on Linux
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ops=score(workload, reports, comparisons),
    )
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
