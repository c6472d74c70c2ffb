"""The pruned quality pass against the full-sampling loop it replaced.

`quality_report` samples the inradius only on the cells whose lower bound
reaches the least upper bound of `mesh._ratio_bounds`.  Every field must
equal the report of the loop below, which samples every cell with the same
kernel, and every cell's sampled ratio must lie between its bounds.
"""

import json

import numpy as np
import pytest

from polyvem import (
    build_disk_approx_mesh,
    build_squares_approx_mesh,
    build_structured_mesh,
    build_voronoi_mesh,
)
from polyvem.levelset import circle, ellipse, quarter_disk
from polyvem.mesh import _inradius_ratios, _ratio_bounds, mesh_from_json, quality_report
from polyvem.quadrature import map_batches
from test_mesh import _flat_and_nonstar_mesh


def _cell_quality(cells, mesh):
    """Shortest vertex distance and inradius estimate over diameter, per cell."""
    pts = mesh.vertices[[mesh.cells[c] for c in cells]]
    d2 = np.sum((pts[:, :, None, :] - pts[:, None, :, :]) ** 2, axis=-1)
    diag = np.arange(pts.shape[1])
    d2[:, diag, diag] = np.inf
    return np.column_stack([np.sqrt(np.min(d2, axis=(1, 2))), _inradius_ratios(cells, mesh)])


def reference_quality(mesh) -> tuple:
    """The report with every cell sampled, and each cell's sampled ratio."""
    per_cell = np.array(map_batches([len(loop) for loop in mesh.cells], range(mesh.n_cells),
                                    _cell_quality, mesh))
    h_min, gamma0 = np.min(per_cell, axis=0)
    return {
        "N_P": mesh.n_cells,
        "N_E": mesh.n_edges,
        "N_V": mesh.n_vertices,
        "h": float(np.max(mesh.cell_diameters)),
        "h_mean": float(np.mean(mesh.cell_diameters)),
        "h_min": float(h_min),
        "gamma0_estimate": float(gamma0),
        "max_edges_per_cell": max(len(loop) for loop in mesh.cells),
    }, per_cell[:, 1]


def _json_mesh(verts, cells):
    return mesh_from_json(json.dumps({"vertices": verts, "cells": cells}))


def _hard_cells():
    """One-cell meshes whose bounds are tight or whose shortcuts fail: a comb
    (non-convex, its inradius above 2A/P), a deep U (its centroid in the
    notch, farther from the boundary than any inside candidate) and regular
    polygons (centroid distance = 2A/P = inradius, equal up to rounding)."""
    comb = [[0, 0], [4, 0], [4, 4]]
    for x in np.arange(15, 0, -1) / 4:  # 15 slits from the top side down to y = 3
        comb += [[x + 0.01, 4], [x + 0.01, 3], [x - 0.01, 3], [x - 0.01, 4]]
    comb += [[0, 4]]
    yield "comb", _json_mesh(comb, [list(range(len(comb)))])
    u = [[0, 0], [3, 0], [3, 3], [2.5, 3], [2.5, 0.5], [0.5, 0.5], [0.5, 3], [0, 3]]
    yield "deep-u", _json_mesh(u, [list(range(8))])
    rng = np.random.default_rng(5)
    draws = [("regular", n, rng.uniform(0, 2 * np.pi), 10.0 ** rng.uniform(-3, 1),
              *rng.uniform(-5, 5, 2)) for n in range(3, 13) for _ in range(4)]
    # (vertices, rotation, radius, centre) where the centroid distance rounds
    # above 2A/P, by 8.4e-16 and 2.3e-16 relative
    draws += [("rounding", 8, 1.9372250999301894, 0.11320648163434817, -2.3927527817628356,
               -1.0859592940759146),
              ("rounding", 10, 5.709070363773362, 4.483796434468934, 2.7115562294301787,
               -3.814390444301312)]
    for kind, n, t0, r, cx, cy in draws:
        t = t0 + 2 * np.pi * np.arange(n) / n
        verts = np.column_stack([cx + r * np.cos(t), cy + r * np.sin(t)]).tolist()
        yield f"{kind}-{n}", _json_mesh(verts, [list(range(n))])


def _voronoi_meshes():
    for lloyd in range(4):
        for seed in range(8):
            n = (16, 24, 32, 64, 256)[seed % 5]
            yield f"voronoi({n}, {lloyd}, {seed})", build_voronoi_mesh(None, n, lloyd,
                                                                      rng_seed=seed)


def _squares_meshes():
    """The 160 configurations of the squares generator's oracle test."""
    for name, ls in (("quarter_disk", quarter_disk()), ("circle", circle()),
                     ("offset_circle", circle((0.3, -0.2), 1.0)), ("ellipse", ellipse(1.5, 0.8))):
        for base in (1, 2, 3, 4, 5, 7, 8, 11, 16, 32):
            for steps in range(4):
                try:
                    yield f"squares-{name}({base}, {steps})", build_squares_approx_mesh(
                        ls, base, steps)
                except ValueError:
                    pass


def _other_meshes():
    for name, ls in (("circle", circle()), ("ellipse", ellipse(1.5, 0.8)),
                     ("quarter_disk", quarter_disk())):
        for n in (12, 24, 48, 96):
            yield f"disk-{name}({n})", build_disk_approx_mesh(ls, n, max(1, round(n / 6)))
    for nx, ny in ((1, 1), (2, 2), (2, 5), (7, 3), (16, 16), (64, 64)):
        yield f"structured({nx}, {ny})", build_structured_mesh((-1.0, 0.0, 2.0, 1.0), nx, ny)
    yield "json-flat-nonstar", _flat_and_nonstar_mesh()
    yield from _hard_cells()


FAMILIES = {"voronoi": _voronoi_meshes, "squares": _squares_meshes, "other": _other_meshes}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pruned_quality_report_equals_full_sampling(family):
    count = 0
    for name, mesh in FAMILIES[family]():
        got = quality_report(mesh).as_dict()
        want, ratio = reference_quality(mesh)
        assert got == want, name
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()], name
        # the pruning rests on these bounds; rounding apart, they hold exactly
        lower, upper = _ratio_bounds(mesh)
        assert np.all(lower <= ratio * (1.0 + 1e-12)), name
        assert np.all(ratio <= upper * (1.0 + 1e-12)), name
        count += 1
    assert count >= {"voronoi": 32, "squares": 100, "other": 60}[family]


def test_hard_cells_defeat_the_shortcuts():
    """The comb's sampled inradius exceeds 2A/P and the deep U's centroid
    lies outside it, farther from its boundary than any inside candidate."""
    cells = dict(_hard_cells())
    comb, u = cells["comb"], cells["deep-u"]
    rho = reference_quality(comb)[1][0] * comb.cell_diameters[0]
    assert rho > 2.0 * comb.cell_areas[0] / np.sum(comb.edge_lengths)
    # the centroid sits in the notch [0.5, 2.5] x [0.5, 3], nearest its floor
    x, y = u.cell_centroids[0]
    assert 0.5 < x < 2.5 and 0.5 < y and x - 0.5 > y - 0.5
    assert reference_quality(u)[1][0] * u.cell_diameters[0] < y - 0.5
    assert _ratio_bounds(u)[0][0] == 0.0
    # rounding puts a regular polygon's lower bound above its upper one
    for name in ("rounding-8", "rounding-10"):
        lower, upper = _ratio_bounds(cells[name])
        assert lower[0] > upper[0]
