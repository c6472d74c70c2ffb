"""Batched per-cell kernels: every cell gets bitwise the result of a one-cell
mesh of that cell, whatever batch it was evaluated in."""

import dataclasses

import numpy as np
import pytest

from polyvem.element import (
    GlobalDofMap,
    build_all_elements,
    build_element,
    error_integrals,
    interpolate,
    interpolate_all,
    load_vector,
    load_vectors,
    project_gradient_l2,
    project_gradients_l2,
)
from polyvem.generators import build_squares_approx_mesh, build_voronoi_mesh
from polyvem.levelset import named_levelset
from polyvem.mesh import build_mesh
from polyvem.quadrature import fan_check
from polyvem.study import PROBLEMS

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


def _arrays(obj, path="") -> dict:
    """Every array and float reachable through an element's dataclass fields."""
    if isinstance(obj, np.ndarray):
        return {path: obj}
    if isinstance(obj, float):
        return {path: np.array(obj)}
    out = {}
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            out.update(_arrays(getattr(obj, f.name), f"{path}.{f.name}"))
    return out


def test_l_shape_takes_the_ear_clip_path():
    mesh = _l_shape_mesh()
    _, fan_ok = fan_check(mesh.cell_vertices(0), mesh.cell_centroids[0], mesh.cell_areas[0])
    assert not fan_ok


@pytest.mark.parametrize("name,k,stab", CASES)
def test_batched_cell_matches_one_cell_mesh(name, k, stab):
    mesh = MESHES[name]()
    assert len({len(loop) for loop in mesh.cells}) > 1  # several batches
    els = build_all_elements(mesh, k, stab=stab)
    dofmap = GlobalDofMap(mesh, k)
    u_dofs = np.random.default_rng(5).standard_normal(dofmap.n_dofs)
    locs = [u_dofs[dofmap.cell_dofs(c)] for c in range(mesh.n_cells)]
    loads = load_vectors(els, PROBLEM.f)
    interps = interpolate_all(els, PROBLEM.u)
    grads = project_gradients_l2(els, locs)
    errs = error_integrals(els, locs, PROBLEM.u, PROBLEM.grad_u)

    for cell, el in enumerate(els):
        one_mesh = _one_cell_mesh(mesh, cell)
        one = build_element(one_mesh, 0, k, stab=stab)
        got, want = _arrays(el), _arrays(one)
        assert got.keys() == want.keys()
        for path in got:
            assert np.array_equal(got[path], want[path]), (cell, path)
        assert np.array_equal(loads[cell], load_vector(one, PROBLEM.f)), cell
        assert np.array_equal(interps[cell], interpolate(one, PROBLEM.u)), cell
        assert np.array_equal(grads[cell], project_gradient_l2(one, locs[cell])[0]), cell
        one_errs = error_integrals([one], [locs[cell]], PROBLEM.u, PROBLEM.grad_u)
        assert np.array_equal(errs[cell], one_errs[0]), cell
