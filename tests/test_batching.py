"""Batched per-cell kernels: every cell gets bitwise the result of a one-cell
mesh of that cell, whatever batch it was evaluated in."""

import dataclasses

import numpy as np
import pytest

from polyvem.element import (
    GlobalDofMap,
    _build_batches,
    build_all_elements,
    error_integrals,
    interpolate_all,
    load_vectors,
    project_gradients_l2,
)
from polyvem.generators import build_squares_approx_mesh, build_voronoi_mesh
from polyvem.levelset import named_levelset
from polyvem.mesh import build_mesh, cell_quadratures
from polyvem.quadrature import fan_check, polygon_shoelace, triangle_rules, triangulate_polygon
from polyvem.study import PROBLEMS
from conftest import per_cell
from test_mesh import _flat_and_nonstar_mesh

PROBLEM = PROBLEMS["test1-2d"]


def _l_shape_mesh():
    # the L cell is not star shaped about its centroid: ear-clipped rule
    v = np.array([(0, 0), (3, 0), (3, 0.5), (0.5, 0.5), (0.5, 3), (0, 3), (3, 3)], float)
    return build_mesh(v, [[0, 1, 2, 3, 4, 5], [2, 6, 4, 3]])


def _two_l_mesh():
    # two nested L cells 0.5 thick around a square; neither L is star shaped
    # about its centroid, and each is ear-clipped into four triangles
    v = np.array([(0, 0), (3, 0), (3, 0.5), (0.5, 0.5), (0.5, 3), (0, 3),
                  (3, 1), (1, 1), (1, 3), (3, 3)], float)
    return build_mesh(v, [[0, 1, 2, 3, 4, 5], [3, 2, 6, 7, 8, 4], [7, 6, 9, 8]])


MESHES = {
    "voronoi": lambda: build_voronoi_mesh(None, 24, lloyd_iters=0, rng_seed=7),
    "squares": lambda: build_squares_approx_mesh(named_levelset("quarter_disk"), 4, 2),
    "l-shape": _l_shape_mesh,
    "two-l": _two_l_mesh,
}
CASES = (
    [("voronoi", k, stab) for k in (1, 2, 3, 4) for stab in ("d_recipe", "euclidean")]
    + [("squares", k, "d_recipe") for k in (1, 2, 3, 4)]
    + [("l-shape", k, "d_recipe") for k in (1, 2, 3, 4)]
    + [("two-l", k, "d_recipe") for k in (1, 2, 3, 4)]
)


def _fan_miss_mesh():
    # cell 142 of build_voronoi_mesh(None, 4096, lloyd_iters=2, rng_seed=0):
    # convex, but its fan area misses the shoelace area by 1.03e-12 relative
    v = np.array([(0.8563731390736812, 0.6992050310402873), (0.8621289432880821, 0.6939023404560325),
                  (0.8705032553473724, 0.7049390579804364), (0.8702329304737239, 0.7054706935670513),
                  (0.8612083492050111, 0.7090974705753911)])
    return build_mesh(v, [[0, 1, 2, 3, 4]])


def _fan(mesh, cell):
    """`fan_check` of one cell: its doubled fan-triangle areas and whether the
    centroid fan covers it."""
    return fan_check(mesh.vertices[mesh.cells[cell]], mesh.cell_centroids[cell],
                     mesh.cell_areas[cell])


def _one_cell_mesh(mesh, cell):
    loop = mesh.cells[cell]
    boxes = {0: mesh.cell_boxes[cell]} if cell in mesh.cell_boxes else None
    return build_mesh(mesh.vertices[loop], [list(range(len(loop)))], cell_boxes=boxes)


def _arrays(mesh, k, stab) -> dict:
    """Every cell's row of each `CellBatch` field and of the build's test-only
    arrays, keyed (cell, name)."""
    out = {}
    for batch, extra in _build_batches(mesh, k, stab):
        fields = {f.name: getattr(batch, f.name) for f in dataclasses.fields(batch)} | extra
        for name, a in fields.items():
            for j, cell in enumerate(batch.cells):
                out[cell, name] = None if a is None else a[j]
    return out


def _results(mesh, k, stab, u_dofs):
    """Each cell's load, interpolant, projected gradient and error parts for
    the global DOF vector u_dofs, in cell order."""
    table = build_all_elements(mesh, k, stab=stab)
    local = [u_dofs[table.dofmap.batch_dofs(b.cells)] for b in table.batches]
    per_batch = (load_vectors(table, PROBLEM.f), interpolate_all(table, PROBLEM.u),
                 project_gradients_l2(table, local))
    return ([per_cell(table, arrays) for arrays in per_batch]
            + [list(error_integrals(table, local, PROBLEM.u, PROBLEM.grad_u))])


def test_l_shape_takes_the_ear_clip_path():
    assert not _fan(_l_shape_mesh(), 0)[1]


def test_ear_clipped_cells_share_one_stack():
    mesh = _two_l_mesh()
    assert not _fan(mesh, 0)[1] and not _fan(mesh, 1)[1]
    for exactness in (0, 4, 10):
        assert [cells.tolist() for cells, _, _ in cell_quadratures(mesh, exactness)] == [[0, 1], [2]]


def test_failed_triangulation_names_the_cell():
    # a crossing loop, which build_mesh rejects, put in as cell 1
    mesh = _fan_miss_mesh()
    v = np.array([(0, 0), (2, 0), (2, 2), (0, 2), (1, -1), (3, 1)], dtype=float)
    area, centroid = polygon_shoelace(v)
    bad = dataclasses.replace(mesh, vertices=np.vstack([mesh.vertices, v]),
                              cells=mesh.cells + [list(range(5, 11))],
                              cell_centroids=np.vstack([mesh.cell_centroids, centroid]),
                              cell_areas=np.append(mesh.cell_areas, area))
    with pytest.raises(ValueError, match=r"^cell 1: polygon edges cross"):
        cell_quadratures(bad, 4)


@pytest.mark.parametrize("name,k,stab", CASES)
def test_batched_cell_matches_one_cell_mesh(name, k, stab):
    mesh = MESHES[name]()
    assert len({len(loop) for loop in mesh.cells}) > 1  # several batches
    dofmap = GlobalDofMap(mesh, k)
    u_dofs = np.random.default_rng(5).standard_normal(dofmap.n_dofs)
    got = _arrays(mesh, k, stab)
    results = _results(mesh, k, stab, u_dofs)

    for cell in range(mesh.n_cells):
        one_mesh = _one_cell_mesh(mesh, cell)
        want = _arrays(one_mesh, k, stab)
        assert {field for _, field in want} == {field for c, field in got if c == cell}
        for (_, field), a in want.items():
            if field == "cells":
                continue
            b = got[cell, field]
            assert (a is None and b is None) or np.array_equal(a, b), (cell, field)
        local = u_dofs[dofmap.dofs[dofmap.offsets[cell]:dofmap.offsets[cell + 1]]]
        one_u = np.zeros(GlobalDofMap(one_mesh, k).n_dofs)
        one_u[GlobalDofMap(one_mesh, k).dofs] = local
        for what, row, one_row in zip(("load", "interpolant", "gradient", "errors"),
                                      (r[cell] for r in results),
                                      (r[0] for r in _results(one_mesh, k, stab, one_u))):
            assert np.array_equal(row, one_row), (cell, what)


def test_fan_miss_cell_keeps_its_one_cell_rule():
    mesh = _fan_miss_mesh()
    assert not _fan(mesh, 0)[1]
    corners = np.moveaxis(np.array(triangulate_polygon(mesh.vertices[mesh.cells[0]])), 1, 0)
    want_points, want_weights = triangle_rules(*corners, 10)
    ((cells, points, weights),) = cell_quadratures(mesh, 10)
    assert np.array_equal(cells, [0]) and weights.shape == (1, 108)  # three ear triangles
    assert np.array_equal(points, want_points.reshape(1, -1, 2))
    assert np.array_equal(weights, want_weights.reshape(1, -1))


@pytest.mark.parametrize("exactness", [0, 4, 10])
def test_cell_quadratures_stack_the_one_cell_rules(exactness):
    meshes = [m() for m in MESHES.values()] + [_flat_and_nonstar_mesh(), _fan_miss_mesh(),
                                               build_voronoi_mesh(None, 600, rng_seed=1)]
    for mesh in meshes:
        seen = []
        for cells, points, weights in cell_quadratures(mesh, exactness):
            assert 1 <= len(cells) <= 256 and len({len(mesh.cells[c]) for c in cells}) == 1
            assert points.shape == weights.shape + (2,) and weights.shape[0] == len(cells)
            # triangulated cells never share a stack with box cells or with
            # cells whose full fan, without a flat triangle, is their rule
            fans = [(_fan(mesh, c), c in mesh.cell_boxes) for c in cells]
            assert len({box or bool(ok and np.all(t2 > 0.0)) for (t2, ok), box in fans}) == 1
            for c, p, w in zip(cells, points, weights):
                ((_, want_points, want_weights),) = cell_quadratures(_one_cell_mesh(mesh, c),
                                                                      exactness)
                assert np.array_equal(p, want_points[0]) and np.array_equal(w, want_weights[0]), c
            seen.extend(cells.tolist())
        assert sorted(seen) == list(range(mesh.n_cells))
    with pytest.raises(ValueError, match="nonnegative"):
        cell_quadratures(meshes[0], -1)
