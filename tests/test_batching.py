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
from polyvem.mesh import build_mesh
from polyvem.quadrature import fan_check
from polyvem.study import PROBLEMS
from conftest import per_cell

PROBLEM = PROBLEMS["test1-2d"]


def _l_shape_mesh():
    # the L cell is not star shaped about its centroid: ear-clipped rule
    v = np.array([(0, 0), (3, 0), (3, 0.5), (0.5, 0.5), (0.5, 3), (0, 3), (3, 3)], float)
    return build_mesh(v, [[0, 1, 2, 3, 4, 5], [2, 6, 4, 3]])


MESHES = {
    "voronoi": lambda: build_voronoi_mesh(None, 24, lloyd_iters=0, rng_seed=7),
    "squares": lambda: build_squares_approx_mesh(named_levelset("quarter_disk"), 4, 2),
    "l-shape": _l_shape_mesh,
}
CASES = (
    [("voronoi", k, stab) for k in (1, 2, 3, 4) for stab in ("d_recipe", "euclidean")]
    + [("squares", k, "d_recipe") for k in (1, 2, 3, 4)]
    + [("l-shape", k, "d_recipe") for k in (1, 2, 3, 4)]
)


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
    dofmap = GlobalDofMap(mesh, k)
    local = [u_dofs[dofmap.batch_dofs(b.cells)] for b in table.batches]
    per_batch = (load_vectors(table, PROBLEM.f), interpolate_all(table, PROBLEM.u),
                 project_gradients_l2(table, local))
    return ([per_cell(table, arrays) for arrays in per_batch]
            + [list(error_integrals(table, local, PROBLEM.u, PROBLEM.grad_u))])


def test_l_shape_takes_the_ear_clip_path():
    mesh = _l_shape_mesh()
    _, fan_ok = fan_check(mesh.cell_vertices(0), mesh.cell_centroids[0], mesh.cell_areas[0])
    assert not fan_ok


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
