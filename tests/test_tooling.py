"""The benchmark harness's trace targets and the modules' `__all__` lists
name things that exist."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import heisground

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


def _modules_with_all():
    names = (m.name for m in pkgutil.iter_modules(heisground.__path__))
    modules = [importlib.import_module(f"heisground.{name}") for name in names]
    return [m for m in modules if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", _modules_with_all(), ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # `from heisground.<module> import *` reads every name in __all__, so a
    # stale entry breaks it.
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
