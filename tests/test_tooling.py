"""The benchmark harness's trace targets and the modules' `__all__` lists
name things that exist, the harness's half-mass check uses the library's
tolerance, what a module exports of its own is documented, and the README's
CLI section names the parser's flags and the CLI's exit codes; the autouse
fixture empties every per-grid cache; the CI workflow runs the tier-1
command."""

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import heisground

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKER = TRACER.with_name("worker.py")


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


def test_worker_half_mass_tolerance_is_the_library_one():
    # The cc-diag worker checks each `dilation_normalize` output against its
    # own copy of the tolerance.  It is read from the source: the worker
    # imports the harness's `inputs` by bare name, so it loads only as a
    # script beside it.
    (workload,) = [node for node in ast.parse(WORKER.read_text()).body
                   if isinstance(node, ast.ClassDef) and node.name == "CcDiagWorkload"]
    (value,) = [node.value for node in workload.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["MASS_TOL"]]
    from heisground import cc_diag

    assert ast.literal_eval(value) == cc_diag._MASS_TOL


def _modules_with_all():
    names = (m.name for m in pkgutil.iter_modules(heisground.__path__))
    modules = [importlib.import_module(f"heisground.{name}") for name in names]
    return [m for m in modules if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", _modules_with_all(), ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # `from heisground.<module> import *` reads every name in __all__, so a
    # stale entry breaks it.
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _undocumented(obj) -> bool:
    doc = obj.__doc__ or ""
    # A dataclass without a docstring gets its signature as __doc__.
    generated = dataclasses.is_dataclass(obj) and doc.startswith(f"{obj.__name__}(")
    return generated or len(doc.split()) < 3


@pytest.mark.parametrize("module", _modules_with_all(), ids=lambda m: m.__name__)
def test_own_public_names_have_docstrings(module):
    # Functions and classes only; a name the module re-exports is documented
    # where it is defined.
    own = [getattr(module, name) for name in module.__all__]
    own = [obj for obj in own if (inspect.isfunction(obj) or inspect.isclass(obj))
           and obj.__module__ == module.__name__]
    assert [obj.__name__ for obj in own if _undocumented(obj)] == []


README = Path(__file__).resolve().parents[1] / "README.md"
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _parser_flags():
    from heisground import cli

    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {flag for sub in subparsers.choices.values() for action in sub._actions
            for flag in action.option_strings if flag.startswith("--")} - {"--help"}


def _readme_cli_section() -> str:
    return README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_section_names_the_parser_flags():
    # A flag deleted from the parser but still documented (or added but not
    # documented) shows up as a difference of the two sets.
    assert set(_FLAG.findall(_readme_cli_section())) - {"--help"} == _parser_flags()


def test_readme_exit_codes_are_the_cli_ones():
    # The integers of the "Exit codes:" sentence, which ends at its first
    # full stop, against the codes `main` returns.
    from heisground import cli

    sentence = _readme_cli_section().split("Exit codes:", 1)[1].split(".", 1)[0]
    documented = {int(n) for n in re.findall(r"\b\d+\b", sentence)}
    assert documented == {cli.EXIT_OK, cli.EXIT_INVARIANT, cli.EXIT_NONCONVERGED,
                          cli.EXIT_USAGE, cli.EXIT_IO}


def test_autouse_fixture_empties_every_per_grid_cache():
    # Every `functools.lru_cache` of grid and cc_diag, and `_window_cache`,
    # is filled here and must be empty after the autouse fixture of
    # conftest.py, so no cache carries state from one test into the next.
    from conftest import fresh_ball_geometry
    from heisground import cc_diag, grid

    lru_caches = {id(obj): obj for module in (grid, cc_diag) for obj in vars(module).values()
                  if callable(getattr(obj, "cache_clear", None))}
    sizes = {"_window_cache": lambda: len(cc_diag._window_cache)}
    sizes.update((cache.__qualname__, lambda c=cache: c.cache_info().currsize)
                 for cache in lru_caches.values())
    assert {"_stencil", "_center_lattice"} <= set(sizes)
    box, mask = grid.build_ball_grid(2.5, 12)
    density = cc_diag.normalize_mass(grid.ScalarField(box, mask.astype(float), mask), 1.0)
    cc_diag.concentration(density, 1.0)
    grid.e_norm_sq(density.field)
    # a cache that these calls leave empty needs a call here that fills it
    assert [name for name, size in sizes.items() if not size()] == []
    fresh_ball_geometry.__wrapped__()
    assert {name: size() for name, size in sizes.items()} == dict.fromkeys(sizes, 0)


ROADMAP = README.with_name("ROADMAP.md")
WORKFLOW = README.parent / ".github" / "workflows" / "tier1.yml"


def test_ci_runs_the_tier_1_command():
    # The command is the one ROADMAP's "Tier-1 verify" line names, so the
    # two cannot drift apart.
    import yaml

    (command,) = re.findall(r"\*\*Tier-1 verify:\*\* `([^`]+)`", ROADMAP.read_text())
    workflow = yaml.safe_load(WORKFLOW.read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    python = [step["with"]["python-version"] for step in steps
              if step.get("uses", "").startswith("actions/setup-python")]
    assert python == ["3.11"]
    assert command in [step.get("run", "").strip() for step in steps]
