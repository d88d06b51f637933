"""Desk-scale acceptance run: nine criteria, one printed line each.

Heavy solves (k = 6, N = 48) are shared session fixtures from conftest;
each criterion prints a [PASS]/[FAIL] line (repeated in the terminal
summary) before asserting.
"""

import time

import numpy as np

from conftest import make_random_smooth_field
from heisground.cc_diag import classify_sequence, dilate_field, energy_split, normalize_mass
from heisground.functionals import eval_J, grad_J
from heisground.grid import ScalarField, build_ball_grid, e_norm, inner, lq_norm, sublaplacian_values
from heisground.heis_core import calculus_check_suite
from heisground.solvers import _Energy, _morse_index, make_domain

RESULTS = []


def _crit(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def test_criterion_1_calculus_suite():
    t0 = time.monotonic()
    checks = calculus_check_suite(seed=0)
    dt = time.monotonic() - t0
    failed = [c["name"] for c in checks if not c["passed"]]
    ok = not failed and dt < 5.0
    _crit(1, ok, f"calculus suite {len(checks)} checks, failed={failed}, {dt:.2f}s")


def test_criterion_2_operator_consistency():
    t0 = time.monotonic()

    def max_err(n):
        grid, mask = build_ball_grid(2.0, n)
        xs, ys, ts = grid.coordinate_arrays()
        a, b = 1.0, 0.25
        f = np.exp(-a * (xs**2 + ys**2) - b * ts**2)
        u = ScalarField(grid, f, mask)
        num = sublaplacian_values(u)
        ana = (
            (-2 * a + 4 * a * a * xs**2)
            + (-2 * a + 4 * a * a * ys**2)
            + 4 * (xs**2 + ys**2) * (-2 * b + 4 * b * b * ts**2)
        ) * f
        deep = np.broadcast_to(grid.gauge_array() < 1.2, num.shape)
        return float(np.abs(num - ana)[deep].max())

    ratio = max_err(16) / max_err(32)
    dt = time.monotonic() - t0
    ok = 3.0 <= ratio <= 5.0 and dt < 30.0
    _crit(2, ok, f"spacing-halving error ratio {ratio:.3f} in [3, 5], {dt:.2f}s")


def test_criterion_3_gradient_check(desk_domain):
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    p, eps = 2.0, 1e-4
    worst = 0.0
    for _ in range(20):
        u = make_random_smooth_field(desk_domain, rng)
        v = make_random_smooth_field(desk_domain, rng)
        g = inner(grad_J(u, p), v)
        jp = eval_J(u.with_values(u.values + eps * v.values), p)
        jm = eval_J(u.with_values(u.values - eps * v.values), p)
        worst = max(worst, abs(g - (jp - jm) / (2 * eps)) / max(1.0, abs(g)))
    dt = time.monotonic() - t0
    ok = worst <= 1e-6 and dt < 30.0
    _crit(3, ok, f"gradient vs central differences, worst rel err {worst:.2e}, {dt:.1f}s")


def test_criterion_4_constrained_min(cm_run, desk_domain):
    rep = cm_run["report"]
    dt = cm_run["seconds"]
    u = rep.field
    interior = u.values[desk_domain.mask]
    bulk = desk_domain.grid.gauge_array() < 0.7 * desk_domain.ball_radius
    id_rel = abs(rep.extra["identity_defect"]) / abs(eval_J(u, 2.0))
    ok = (
        rep.converged
        and rep.extra["constraint_defect"] < 1e-10
        and rep.level > 0.0
        and rep.extra["residual_rel"] < 1e-4
        and interior.min() >= 0.0
        and u.values[bulk & desk_domain.mask].min() > 0.0
        and id_rel < 1e-3
        and dt < 300.0
    )
    _crit(
        4,
        ok,
        f"constrained min: alpha={rep.level:.6f}, constraint defect "
        f"{rep.extra['constraint_defect']:.1e}, residual {rep.extra['residual_rel']:.1e}, "
        f"identity defect {id_rel:.1e} rel, {rep.iterations} iterations, "
        f"{rep.extra['operator_products']} operator products, {dt:.0f}s",
    )


def test_criterion_5_mountain_pass(mp_run, cm_run, desk_domain):
    mp = mp_run["report"]
    cm = cm_run["report"]
    c_k = mp.level
    gn = mp.extra["grad_norm"]
    inner_gu = abs(mp.extra["inner_gu"])
    id_def = abs(mp.extra["identity_defect"])
    gap_methods = abs(eval_J(cm.field, 2.0) - c_k) / c_k
    # A mountain-pass ground state is a saddle of Morse index 1.
    energy = _Energy(desk_domain, 2.0)
    index, eigs, *_ = _morse_index(energy, energy.order.colour(mp.field.values))
    ok = (
        mp.converged
        and c_k > 0.0
        and gn <= 1e-4
        and inner_gu <= 1e-6 * max(1.0, c_k)
        and id_def <= 1e-6 * c_k
        and gap_methods < 1e-2
        and index == 1
    )
    _crit(
        5,
        ok,
        f"mountain pass: c_k={c_k:.6f}, |grad|={gn:.1e}, <g,u>={inner_gu:.1e}, "
        f"identity {id_def:.1e}, method gap {gap_methods:.1e}, "
        f"Morse index {index} (Hessian eigenvalues {np.round(eigs, 3).tolist()}), "
        f"{mp_run['seconds']:.1f}s",
    )


def test_criterion_6_exhaustion(exhaust_run):
    rep = exhaust_run["report"]
    dt = exhaust_run["seconds"]
    levels = [e.level for e in rep.entries]
    maxima = [e.max_value for e in rep.entries]
    xis = [e.xi_gauge for e in rep.entries]
    deltas = [e.decay.delta for e in rep.entries]
    r2s = [e.decay.r_squared for e in rep.entries]
    ok = (
        rep.monotone
        and rep.monotone_slack <= 1e-6
        and all(m >= 0.95 for m in maxima)
        and max(xis) <= 2.0
        and max(xis[2:]) - min(xis[2:]) <= 0.5
        and all(d > 0.0 for d in deltas)
        and all(r > 0.98 for r in r2s)
        and dt < 600.0
    )
    _crit(
        6,
        ok,
        f"exhaustion: c_k={['%.3f' % c for c in levels]}, slack "
        f"{rep.monotone_slack:.1e}, xi<={max(xis):.2f}, min R2={min(r2s):.4f}, {dt:.0f}s",
    )


def test_criterion_7_trichotomy_classifier():
    from heisground.cc_diag import _gauge_dist_sq4
    from heisground.grid import Grid3, full_mask
    from heisground.heis_core import GroupPoint

    k, n = 3.5, 20
    hx = 2.0 * k / n
    nt = int(round(2.0 * k * k / hx))
    grid = Grid3((n, n, nt), (hx, hx, hx), (-k, -k, -k * k))
    mask = full_mask(grid)

    def gbump(cx, cy, ct, w):
        d4 = _gauge_dist_sq4(grid, GroupPoint(cx, cy, ct))
        return np.exp(-np.sqrt(d4 + 1e-300) / w**2)

    q = 3.0
    hits = {"compactness": 0, "vanishing": 0, "dichotomy": 0}
    alpha_worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)

        w = rng.uniform(0.5, 0.7)
        cy, ct = rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5)
        dens = [
            normalize_mass(
                ScalarField(grid, gbump(-1.2 + 0.4 * m, cy, ct, w), mask), q
            )
            for m in range(6)
        ]
        r = classify_sequence(dens, eps=0.05, R_grid=[0.5, 1.0, 2.0])
        hits["compactness"] += r.verdict == "compactness"

        w, rate = rng.uniform(0.4, 0.6), rng.uniform(0.6, 0.8)
        base = ScalarField(grid, gbump(0, 0, 0, w), mask)
        dens = [
            normalize_mass(dilate_field(base, 1.0 / (1.0 + rate * m), q), q)
            for m in range(1, 7)
        ]
        r = classify_sequence(dens, eps=0.05, R_grid=[0.25, 0.5, 1.0])
        hits["vanishing"] += r.verdict == "vanishing"

        w, s0 = rng.uniform(0.4, 0.55), rng.uniform(0.6, 0.9)
        dens = []
        for m in range(6):
            s = s0 + 0.5 * m
            vals = gbump(-s, 0, 0, w) + gbump(s, 0, 0, w)
            dens.append(normalize_mass(ScalarField(grid, vals, mask), q))
        r = classify_sequence(dens, eps=0.1, R_grid=[0.5, 1.0, 2.0])
        good = r.verdict == "dichotomy" and abs(r.split_mass - 0.5) <= 0.1
        hits["dichotomy"] += good
        if good:
            alpha_worst = max(alpha_worst, abs(r.split_mass - 0.5))

    ok = all(v == 10 for v in hits.values())
    _crit(
        7,
        ok,
        f"classifier 10 seeds/family: {hits}, worst |alpha-1/2|={alpha_worst:.3f}",
    )


def test_criterion_8_energy_split(cm_run):
    u = cm_run["report"].field
    defects, annuli = [], []
    for r in np.linspace(1.5, 4.5, 7):
        d, a = energy_split(u, float(r), 2.0)
        defects.append(d)
        annuli.append(a)
    dec_d = all(b < a for a, b in zip(defects, defects[1:]))
    dec_a = all(b < a for a, b in zip(annuli, annuli[1:]))
    ok = dec_d and dec_a
    _crit(
        8,
        ok,
        f"energy split: defect {defects[0]:.2e}->{defects[-1]:.2e}, annulus "
        f"{annuli[0]:.2e}->{annuli[-1]:.2e}, both decreasing",
    )


def test_criterion_9_mountain_pass_rim(desk_domain):
    rng = np.random.default_rng(7)
    p = 2.0
    xs, ys, ts = desk_domain.grid.coordinate_arrays()
    C = 0.0
    fields = []
    for _ in range(100):
        cx, cy = rng.uniform(-2, 2, 2)
        ct = rng.uniform(-6, 6)
        w = rng.uniform(0.5, 1.5)
        a = rng.uniform(0.5, 2.0)
        vals = np.exp(
            -(((xs - cx) ** 2 + (ys - cy) ** 2) ** 2 + a * (ts - ct) ** 2) ** 0.5
            / w**2
        )
        f = ScalarField(desk_domain.grid, vals, desk_domain.mask)
        fields.append(f)
        C = max(C, lq_norm(f, p + 1.0) / e_norm(f))
    # the bound J >= r^2/2 - C^(p+1) r^(p+1)/(p+1) is attained with
    # equality by the field realizing C, so allow rounding slack; probe
    # inside the critical radius where alpha0 > 0
    r_small = 0.9 * C ** (-(p + 1.0) / (p - 1.0))
    alpha0 = 0.5 * r_small**2 - C ** (p + 1.0) * r_small ** (p + 1.0) / (p + 1.0)
    min_j = min(
        eval_J(f.with_values(r_small / e_norm(f) * f.values), p) for f in fields
    )
    ok = alpha0 > 0.0 and min_j >= alpha0 * (1.0 - 1e-10)
    _crit(
        9,
        ok,
        f"rim: C={C:.4f}, r={r_small:.4f}, alpha0={alpha0:.4e}, min J={min_j:.4e}",
    )
