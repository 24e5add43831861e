"""Self-test of the benchmark on small shapes, (3,1) and (5,1).

    python3 perfbench/selftest.py

Run from the repository root.  Exits 0 when all of these hold:

- ``BENCHMARK.json`` lists the workloads of ``workloads.py``, and every
  metric it names is emitted with its unit, by
  ``run.py --trace 0`` and ``--trace 1``, and no op fails;
- every span's self time is >= 0 and <= its own duration and the duration of
  the span that opened it, which also encloses it;
- span call counts repeat exactly across two traced runs of the same seed.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

from spans import Tracer
from worker import import_wittquant
from workloads import SMALL_WORKLOADS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SEED)]
    out = subprocess.run(
        [*cmd, "--seconds", "0.2", "--trace", str(trace)], stdout=subprocess.PIPE, text=True, check=True, timeout=170
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_result(workload: str, result: dict, declared: dict, errors: list) -> None:
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{workload}: verdict not correct: {result['attempted']} attempted, {result['failed']} failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        errors.append(f"{workload}: metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(declared.items()))}")


def check_spans(errors: list) -> None:
    """Trace every small workload in this process, keeping each span."""
    wq = import_wittquant(os.getcwd())
    tracer = Tracer(keep_spans=True)
    tracer.install(wq)
    for workload in SMALL_WORKLOADS.values():
        state = workload.setup(wq, SEED)
        tracer.reset()
        workload.verdict(wq, state)
        if not tracer.spans:
            errors.append(f"{workload.name}: no spans recorded")
        for name, start, end, self_ns, parent in tracer.spans:
            if not 0 <= self_ns <= end - start:
                errors.append(f"{workload.name}: {name} self {self_ns} ns outside [0, {end - start}]")
            if parent >= 0:
                _, p_start, p_end, _, _ = tracer.spans[parent]
                if not (p_start <= start and end <= p_end and self_ns <= p_end - p_start):
                    errors.append(f"{workload.name}: {name} not inside its parent span")
        for name, (calls, self_ns, total_ns, _) in tracer.stats.items():
            if not 0 <= self_ns <= total_ns:
                errors.append(f"{workload.name}: {name} self {self_ns} ns outside [0, {total_ns}]")


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors: list = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads differ from workloads.py: {list(WORKLOADS)}")
    for name in SMALL_WORKLOADS:
        check_result(name, run(name, 0), end_to_end, errors)
        first, second = run(name, 1), run(name, 1)
        check_result(name, first, per_layer, errors)
        for metric, m in first["metrics"].items():
            if metric.endswith(".calls") and second["metrics"][metric]["value"] != m["value"]:
                errors.append(f"{name}: {metric} {m['value']} then {second['metrics'][metric]['value']}")
    check_spans(errors)
    for line in errors:
        print(f"FAIL {line}")
    print(f"selftest: {len(SMALL_WORKLOADS)} workloads, {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
