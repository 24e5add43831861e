"""Run a verification sweep programmatically and emit the JSON report.

What it prints is the same on every run: each suite's timing stays in the
report's ``elapsed_ms`` field, past the part of the report shown here.
"""
import json

from wittquant import ModularConfig, run_suites

cfg = ModularConfig(p=3, n=2, eta=(1, 1), q=0, seed=0)
reports = run_suites("twist,hopf,restricted,dims", modular_cfg=cfg)

for rep in reports:
    status = "pass" if rep.passed else "FAIL"
    print(f"{rep.suite:<12} {status:<6} {len(rep.checks)} checks")
    for c in rep.checks:
        if c.status != "pass":
            print(f"  {c.name}: {c.status} {c.counterexample or ''}")

payload = [rep.to_json_dict() for rep in reports]
print()
print(json.dumps(payload[0], indent=2)[:400], "...")
