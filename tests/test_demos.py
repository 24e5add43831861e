"""Every narrative script in ``demos/`` runs to completion without a word on
stderr, and prints the same bytes each time it runs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(path):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = [sys.executable, str(path)]
    outputs = []
    for _ in range(2):
        proc = subprocess.run(run, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
