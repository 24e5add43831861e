"""The layer boundaries that the benchmark traces still exist in the package.

``perfbench/spans.py`` lists, by name, the methods and module functions that a
traced benchmark run wraps.  A rename in ``wittquant`` (say of ``build_twist``)
would break the traced runs without failing any other test, so each listed
name is looked up here on its class or module.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_boundaries() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BOUNDARIES


BOUNDARIES = load_boundaries()


@pytest.mark.parametrize(
    "module,cls,methods", BOUNDARIES, ids=[f"{module}.{cls}" if cls else module for module, cls, _ in BOUNDARIES]
)
def test_traced_boundary_exists(module, cls, methods):
    owner = importlib.import_module(f"wittquant.{module}")
    if cls is not None:
        owner = getattr(owner, cls)
    missing = [name for name in methods if not callable(getattr(owner, name, None))]
    assert missing == [], f"wittquant.{module}{'.' + cls if cls else ''} lacks {missing}"
