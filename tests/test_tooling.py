"""The benchmark harness's trace targets and the modules' `__all__` lists
name things that exist, the harness's half-mass check uses the library's
tolerance, what a module exports of its own is documented, only
`solvers._descend` runs the descent, only `grid` reads the colour order's
layout, no module reads a field's mask nodes in
C order, `grid` writes no offset or colouring outside its stencil,
`calculus_check_suite` takes no maximum by the builtin max,
`dilation_normalize` dilates in one place, pyproject.toml and the package
carry one version, and the README's CLI section names the
parser's flags and the CLI's exit codes; the autouse fixture empties every
per-grid cache; the CI workflow installs the declared dependencies, runs
the installed console script (a self-check and a solve), and runs the
tier-1 command single-threaded, within a time limit."""

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


def test_only_descend_runs_the_descent():
    # `solvers._descend` is the one place that runs `_ray_descent`: both
    # methods read their reports from its run, and `compare_methods` reads
    # both from one.
    tree = ast.parse((Path(heisground.__file__).parent / "solvers.py").read_text())
    callers = [getattr(top, "name", f"line {top.lineno}") for top in tree.body
               for node in ast.walk(top) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "_ray_descent"]
    assert callers == ["_descend"]


def test_dilation_normalize_dilates_in_one_place():
    # Both of `dilation_normalize`'s searches read their fractions from one
    # rule, so `dilate_field` is called once in its source.
    tree = ast.parse((Path(heisground.__file__).parent / "cc_diag.py").read_text())
    (normalize,) = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "dilation_normalize"]
    calls = [f"cc_diag.py:{node.lineno}" for node in ast.walk(normalize)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "dilate_field"]
    assert len(calls) == 1, calls


_LAYOUT = {"node", "split", "rows", "columns", "inv_diag"}


def test_only_grid_reads_the_colour_layout():
    # `grid._ColourOrder` owns the colour order: its sweep and translations
    # are its methods, so no other module reads the fields that lay the
    # order out.  A method call of that name (`str.split`) is no such read.
    source = Path(heisground.__file__).parent
    reads = []
    for path in sorted(source.glob("*.py")):
        if path.stem == "grid":
            continue
        tree = ast.parse(path.read_text())
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        reads += [f"{path.name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in _LAYOUT
                  and id(node) not in called]
    assert reads == []


def test_no_module_reads_the_mask_nodes_in_c_order():
    # The package's vectors are in the colour order, read from and written
    # to a field's box array by `_ColourOrder.colour` and `.box`.  A field's
    # mask nodes in C order (`values[mask]`) are the tests' view only: a
    # package call of an `interior` method would bring back a third layout.
    source = Path(heisground.__file__).parent
    calls = []
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "interior"]
    assert calls == []


def _integer(node) -> bool:
    try:
        return type(ast.literal_eval(node)) is int
    except ValueError:
        return False


def test_grid_writes_no_offset_and_no_colouring_by_hand():
    # B's shape is stated once, as `grid._stencil`'s taps, and the colouring
    # is worked out from them.  So outside `_stencil` grid.py holds no
    # offset (a tuple of three integers) and no colouring rule (a remainder
    # by an integer) that a change of B would leave stale.
    tree = ast.parse((Path(heisground.__file__).parent / "grid.py").read_text())
    (stencil,) = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_stencil"]
    taps = {id(node) for node in ast.walk(stencil)}
    found = [f"grid.py:{node.lineno}" for node in ast.walk(tree) if id(node) not in taps and (
        isinstance(node, ast.Tuple) and len(node.elts) == 3 and all(map(_integer, node.elts))
        or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) and _integer(node.right))]
    assert found == []


def test_calculus_check_takes_each_worst_defect_in_record():
    # `calculus_check_suite`'s `record` takes each check's worst draw with
    # np.max, which keeps a NaN defect, and so fails it; the builtin max
    # passes over a NaN, so no check takes its maximum by it.
    tree = ast.parse((Path(heisground.__file__).parent / "heis_core.py").read_text())
    (suite,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "calculus_check_suite"]
    calls = [f"heis_core.py:{node.lineno}" for node in ast.walk(suite)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "max"]
    assert calls == []


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
    # The operator slot, `grid._last_operator`, is not among them on
    # purpose: it is kept across tests, because consecutive tests of one
    # domain reuse its operator.  A test of the operator's assembly takes
    # the `fresh_operators` fixture, which empties it for that test, so
    # that a patched assembly cannot pass on an operator built before the
    # patch.
    from conftest import fresh_ball_geometry
    from heisground import cc_diag, grid

    lru_caches = {id(obj): obj for module in (grid, cc_diag) for obj in vars(module).values()
                  if callable(getattr(obj, "cache_clear", None))}
    sizes = {"_window_cache": lambda: len(cc_diag._window_cache)}
    sizes.update((cache.__qualname__, lambda c=cache: c.cache_info().currsize)
                 for cache in lru_caches.values())
    box, mask = grid.build_ball_grid(2.5, 12)
    density = cc_diag.normalize_mass(grid.ScalarField(box, mask.astype(float), mask), 1.0)
    cc_diag.concentration(density, 1.0)
    # a cache that these calls leave empty needs a call here that fills it
    assert [name for name, size in sizes.items() if not size()] == []
    fresh_ball_geometry.__wrapped__()
    assert {name: size() for name, size in sizes.items()} == dict.fromkeys(sizes, 0)


ROADMAP = README.with_name("ROADMAP.md")
WORKFLOW = README.parent / ".github" / "workflows" / "tier1.yml"


def test_ci_runs_the_tier_1_command():
    # The command is the one ROADMAP's "Tier-1 verify" line names, so the
    # two cannot drift apart.  It runs on the oldest Python that
    # pyproject.toml's requires-python admits, and on 3.11.
    import yaml

    (command,) = re.findall(r"\*\*Tier-1 verify:\*\* `([^`]+)`", ROADMAP.read_text())
    (floor,) = re.findall(r'^requires-python = ">=([\d.]+)"$',
                          (README.parent / "pyproject.toml").read_text(), re.M)
    workflow = yaml.safe_load(WORKFLOW.read_text())
    (job,) = workflow["jobs"].values()
    python = [step["with"]["python-version"] for step in job["steps"]
              if step.get("uses", "").startswith("actions/setup-python")]
    assert python == ["${{ matrix.python-version }}"]
    assert job["strategy"]["matrix"]["python-version"] == [floor, "3.11"]
    assert command in [step.get("run", "").strip() for step in job["steps"]]


def test_ci_installs_the_declared_dependencies():
    # The test extra of pyproject.toml, so CI resolves its floors (scipy
    # >= 1.12) and keeps no list of its own.
    import yaml

    workflow = yaml.safe_load(WORKFLOW.read_text())
    runs = [step.get("run", "").strip() for job in workflow["jobs"].values()
            for step in job["steps"]]
    assert [run for run in runs if "pip install" in run] == ['python -m pip install ".[test]"']


def test_ci_runs_the_benchmark_self_test_after_tier_1():
    # The self-test checks the solve workloads' outputs, so a descent that
    # breaks a benchmark check fails CI.
    import yaml

    workflow = yaml.safe_load(WORKFLOW.read_text())
    runs = [step.get("run", "").strip() for job in workflow["jobs"].values()
            for step in job["steps"]]
    tier1 = next(i for i, run in enumerate(runs) if "pytest" in run)
    assert runs.index("python3 perfbench/selftest.py") > tier1


def test_ci_runs_the_installed_console_script():
    # The tests import the package from src/, so only this step, after the
    # install, runs the entry point that [project.scripts] declares.
    import yaml

    scripts = (README.parent / "pyproject.toml").read_text().split("[project.scripts]\n", 1)[1]
    (name,) = re.findall(r'^([\w-]+) = "heisground\.cli:main"$', scripts.split("\n[", 1)[0],
                         re.M)
    workflow = yaml.safe_load(WORKFLOW.read_text())
    runs = [step.get("run", "").strip() for job in workflow["jobs"].values()
            for step in job["steps"]]
    install = runs.index('python -m pip install ".[test]"')
    assert runs.index(f"{name} calculus-check > /dev/null") > install
    # A constrained-min solve through `cli.main` finds the install's
    # compiled sparse kernels and loads no scipy package module.
    (kernels,) = [run for run in runs if "heisground.cli.main(['solve'" in run]
    assert runs.index(kernels) > install
    assert kernels.startswith("python -c") and "'--method', 'constrained-min'" in kernels
    assert "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']" in kernels
    # calculus-check loads numpy only, so a solve checks that the install
    # loads the sparse kernels and scipy.sparse.linalg.
    solve = (f"{name} solve --method mountain-pass --radius 2.5 --grid 12 --grad-tol 1e-4"
             " > /dev/null")
    assert runs.index(solve) > install
    # exhaust runs the Morse index of its first ball, and so LOBPCG.
    exhaust = (f'{name} exhaust --radii 1.5,2,2.5 --grid 12 --grad-tol 1e-3'
               ' --out-csv "$RUNNER_TEMP/e.csv" --out-json "$RUNNER_TEMP/e.json"')
    assert runs.index(exhaust) > install
    # classify reads a solved state as a three-field sequence and checks
    # its verdict.
    (classify,) = [run for run in runs if f"{name} classify --inputs" in run]
    assert runs.index(classify) > install
    assert f"{name} solve --method constrained-min" in classify
    assert "== 'compactness'" in classify


def test_one_version_string():
    # Every JSON report carries `heisground.__version__`; pyproject.toml is
    # read by regex, because Python 3.10 has no tomllib.
    (version,) = re.findall(r'^version = "([^"]+)"$',
                            (README.parent / "pyproject.toml").read_text(), re.M)
    assert heisground.__version__ == version


def test_ci_tests_run_single_threaded_within_a_time_limit():
    # The pinned iteration counts were taken with one BLAS thread, and a
    # descent that never stops must end the job, not hold a runner for 6 h.
    import yaml

    workflow = yaml.safe_load(WORKFLOW.read_text())
    for job in workflow["jobs"].values():
        assert 0 < job["timeout-minutes"] <= 20
        for step in job["steps"]:
            if "-m pytest" in step.get("run", "") or "selftest.py" in step.get("run", ""):
                env = step.get("env", {})
                assert (env.get("OPENBLAS_NUM_THREADS"), env.get("OMP_NUM_THREADS")) == ("1", "1")
