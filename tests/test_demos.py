"""Every narrative script in ``demos/`` runs to completion without a word on
stderr, and prints the same bytes each time it runs; so does the README's
library quick start, which prints the element its grammar section shows."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env():
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _readme_block(after: str) -> str:
    """The body of the first fenced block in README.md after the text ``after``."""
    text = (ROOT / "README.md").read_text()
    start = text.index("```", text.index(after))
    start = text.index("\n", start) + 1
    return text[start : text.index("```", start)]


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(path):
    run = [sys.executable, str(path)]
    outputs = []
    for _ in range(2):
        proc = subprocess.run(run, capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_readme_quick_start_prints_the_grammar_example():
    code = _readme_block("## Library quick start")
    want = _readme_block("Elements are printed in a lossless plain-text grammar")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == want
