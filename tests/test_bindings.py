"""Every module binding that the benchmark's tracer wraps still exists.

perfbench/spans.py replaces each (module, attribute) of its BINDINGS with a
timing wrapper, and fails when one is gone; this finds that without running
the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return sorted({(module, attribute) for module, attribute, _, _ in spans.BINDINGS})


@pytest.mark.parametrize("module, attribute", _bindings())
def test_binding_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))
