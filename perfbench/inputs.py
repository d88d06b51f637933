"""Seeded inputs of the cc-diag workload, generated in closed form with numpy.

Every field is written as an HGF file before any timing starts.  The
vanishing family is built from the closed form of a dilated gauge bump,
lam^(Q/q) b(delta_lam z) with b(z) = exp(-rho(z)^2 / w^2), so generating it
never calls the `dilate_field` that the workload times.
"""

from __future__ import annotations

import os

import numpy as np

Q_HOM = 4.0  # homogeneous dimension of H^1
Q_EXP = 3.0  # L^q exponent of the densities (p + 1 with p = 2)

# Classifier settings per family, as in the criterion-7 sequences.
FAMILIES = {
    "compactness": {"eps": 0.05, "radii": "0.5,1.0,2.0"},
    "vanishing": {"eps": 0.05, "radii": "0.25,0.5,1.0"},
    "dichotomy": {"eps": 0.1, "radii": "0.5,1.0,2.0"},
}


def box_geometry(k: float, n: int):
    """(shape, spacing, corner) of the criterion-7 box: t spacing = h_x."""
    hx = 2.0 * k / n
    nt = int(round(2.0 * k * k / hx))
    return (n, n, nt), (hx, hx, hx), (-k, -k, -k * k)


def coords(shape, spacing, corner):
    """Broadcastable cell-centre coordinate arrays (x, y, t)."""
    axes = [c + (np.arange(n) + 0.5) * h for n, h, c in zip(shape, spacing, corner)]
    return axes[0][:, None, None], axes[1][None, :, None], axes[2][None, None, :]


def gauge(shape, spacing, corner):
    xs, ys, ts = coords(shape, spacing, corner)
    r2 = xs * xs + ys * ys
    return (r2 * r2 + ts * ts) ** 0.25


def gauge_bump(geom, cx, cy, ct, w):
    """exp(-d(z, c)^2 / w^2) with d the left-invariant gauge distance."""
    xs, ys, ts = coords(*geom)
    dx, dy = xs - cx, ys - cy
    dt = ts - ct - 2.0 * cy * xs + 2.0 * cx * ys
    r2 = dx * dx + dy * dy
    return np.exp(-np.sqrt(r2 * r2 + dt * dt + 1e-300) / w**2)


def dilated_bump(geom, w, lam, q):
    """lam^(Q/q) b(delta_lam z) for the origin-centred bump b of width w."""
    rho = gauge(*geom)
    return lam ** (Q_HOM / q) * np.exp(-((lam * rho) ** 2) / w**2)


def sequence_values(family: str, rng, geom):
    """Six fields of one criterion-7 sequence of the given family."""
    if family == "compactness":
        w = rng.uniform(0.5, 0.7)
        cy, ct = rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5)
        return [gauge_bump(geom, -1.2 + 0.4 * m, cy, ct, w) for m in range(6)]
    if family == "vanishing":
        # The closed form is sharper than criterion 7's interpolated dilation,
        # so the spreading rate is higher: Q(1) of the last field stays
        # below 0.034, under the classifier's eps = 0.05.
        w, rate = rng.uniform(0.4, 0.6), rng.uniform(1.2, 1.6)
        return [dilated_bump(geom, w, 1.0 / (1.0 + rate * m), Q_EXP) for m in range(1, 7)]
    w, s0 = rng.uniform(0.4, 0.55), rng.uniform(0.6, 0.9)
    return [
        gauge_bump(geom, -s, 0.0, 0.0, w) + gauge_bump(geom, s, 0.0, 0.0, w)
        for s in (s0 + 0.5 * m for m in range(6))
    ]


def unit_lq(values, geom, q):
    """Scale values so that int |u|^q = 1 on the grid."""
    vol = float(np.prod(geom[1]))
    return values / (float((np.abs(values) ** q).sum()) * vol) ** (1.0 / q)


def split_field_values(rng, geom, k, n_bumps=5):
    """Signed mixture of gauge bumps, zero outside the gauge ball B_k."""
    vals = np.zeros(geom[0])
    for _ in range(n_bumps):
        cx, cy = rng.uniform(-0.4 * k, 0.4 * k, 2)
        ct = rng.uniform(-0.4 * k * k, 0.4 * k * k)
        w = rng.uniform(0.6, 1.4)
        vals = vals + rng.uniform(-1.0, 1.0) * gauge_bump(geom, cx, cy, ct, w)
    return np.where(gauge(*geom) < k, vals, 0.0)


def write_field(path, values, geom, ball_radius=None):
    from heisground.grid import Grid3, ScalarField
    from heisground.hgf import write_hgf

    grid = Grid3(shape=geom[0], spacing=geom[1], corner=geom[2])
    field = ScalarField(grid, values, np.ones(geom[0], dtype=bool))
    write_hgf(path, field, ball_radius=ball_radius)


def generate_cc(workdir: str, seed: int, cc: dict) -> dict:
    """Write every cc-diag input under workdir; return the manifest.

    The workload seed spawns one sub-seed per triple and one for the
    energy-split field, so each triple is independent of the count.
    """
    geom = box_geometry(cc["box_k"], cc["box_n"])
    children = np.random.SeedSequence(seed).spawn(cc["triples"] + 1)
    triples = []
    for i, child in enumerate(children[:-1]):
        rng = np.random.default_rng(child)
        entry = {}
        for family in FAMILIES:
            paths = []
            for m, vals in enumerate(sequence_values(family, rng, geom)):
                path = os.path.join(workdir, f"t{i}-{family}-{m}.hgf")
                write_field(path, vals, geom)
                paths.append(path)
            entry[family] = paths
        cx, cy, ct = rng.uniform(-0.3, 0.3, 3)
        vals = unit_lq(gauge_bump(geom, cx, cy, ct, rng.uniform(0.8, 1.0)), geom, Q_EXP)
        entry["dilation"] = os.path.join(workdir, f"t{i}-dilation.hgf")
        write_field(entry["dilation"], vals, geom)
        triples.append(entry)
    from heisground.grid import build_ball_grid

    k = cc["split_k"]
    grid, _ = build_ball_grid(k, cc["split_n"])
    split_geom = (grid.shape, grid.spacing, grid.corner)
    split_path = os.path.join(workdir, "split.hgf")
    vals = split_field_values(np.random.default_rng(children[-1]), split_geom, k)
    write_field(split_path, vals, split_geom, ball_radius=k)
    return {"triples": triples, "split": split_path}
