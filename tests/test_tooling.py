"""The benchmark harness's trace targets name functions that exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, attribute", _targets())
def test_trace_target_resolves(module, attribute):
    # Tracer.install reads every target with getattr, so a deleted name
    # would stop `perfbench/run.py --trace 1` before it measures anything.
    assert hasattr(importlib.import_module(f"heisground.{module}"), attribute)
