"""Spans recorded from outside the program, by wrapping its public functions.

Each target is patched in every `heisground` module namespace that bound
it (`e_norm_sq`, for example, is bound in grid, functionals, solvers and
cc_diag), so calls made through any of those names are recorded.
`grid.ScalarField` is traced through `ScalarField.__post_init__`.  Spans
hold (id, parent id, name, start, end) and stay in memory until the run
ends; one thread runs the program, so spans nest and a stack gives each
span its parent.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) of every traced function, named "<module>.<attribute>".
TARGETS = [
    ("grid", "sublaplacian_values"),
    ("grid", "e_norm_sq"),
    ("grid", "ScalarField"),
    ("grid", "inner"),
    ("grid", "lq_norm"),
    ("functionals", "eval_I"),
    ("functionals", "eval_J"),
    ("functionals", "grad_I"),
    ("functionals", "grad_J"),
    ("functionals", "nehari_scale"),
    ("functionals", "energy_breakdown"),
    ("solvers", "solve_constrained_min"),
    ("solvers", "solve_mountain_pass"),
    ("solvers", "_constraint_mass"),
    ("solvers", "_ray_descent"),
    ("solvers", "_armijo_descent"),
    ("cc_diag", "classify_sequence"),
    ("cc_diag", "concentration"),
    ("cc_diag", "normalize_mass"),
    ("cc_diag", "dilate_field"),
    ("cc_diag", "group_translate_field"),
    ("cc_diag", "dilation_normalize"),
    ("cc_diag", "energy_split"),
    ("hgf", "read_hgf"),
    ("hgf", "write_hgf"),
    ("cli", "main"),
]
NAMES = [f"{mod}.{attr}" for mod, attr in TARGETS]


class Tracer:
    """Installs span-recording wrappers; `uninstall` restores the originals."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end]
        self._stack = []
        self._patched = []  # (namespace object, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else -1, name, clock(), 0.0]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "heisground" or n.startswith("heisground."))]
        for (mod, attr), name in zip(TARGETS, NAMES):
            original = getattr(sys.modules[f"heisground.{mod}"], attr)
            if isinstance(original, type):
                init = original.__post_init__
                self._patch(original, "__post_init__", self._wrap(name, init))
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[4] - s[3]
    return own


def write_spans(path, spans):
    with open(path, "w") as fh:
        fh.write("id\tparent\tname\tstart_s\tend_s\n")
        for s in spans:
            fh.write(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]:.9f}\t{s[4]:.9f}\n")
