import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from polyvem import build_structured_mesh
from polyvem.basis import (cell_basis_dim, monomial_exponents, monomial_gradients, monomial_values,
                           scaled_powers)
from polyvem.element import _build_batches, interpolate_all
from polyvem.mesh import cell_quadratures


@pytest.fixture
def unit_square_1():
    return build_structured_mesh((0.0, 0.0, 1.0, 1.0), 1, 1)


@pytest.fixture
def unit_square_2x2():
    return build_structured_mesh((0.0, 0.0, 1.0, 1.0), 2, 2)


def random_polynomial(k: int, rng):
    """Global-coordinate polynomial of total degree k with callable value,
    gradient and source term f = -lap u."""
    exps = [(d - j, j) for d in range(k + 1) for j in range(d + 1)]
    coeffs = rng.standard_normal(len(exps))

    def u(p):
        p = np.atleast_2d(p)
        return sum(c * p[:, 0] ** a * p[:, 1] ** b for c, (a, b) in zip(coeffs, exps))

    def grad(p):
        p = np.atleast_2d(p)
        gx = sum(c * a * p[:, 0] ** (a - 1) * p[:, 1] ** b
                 for c, (a, b) in zip(coeffs, exps) if a > 0)
        gy = sum(c * b * p[:, 0] ** a * p[:, 1] ** (b - 1)
                 for c, (a, b) in zip(coeffs, exps) if b > 0)
        gx = gx if np.ndim(gx) else np.zeros(len(p))
        gy = gy if np.ndim(gy) else np.zeros(len(p))
        return np.column_stack([gx, gy])

    def f(p):
        p = np.atleast_2d(p)
        out = np.zeros(len(p))
        for c, (a, b) in zip(coeffs, exps):
            if a >= 2:
                out -= c * a * (a - 1) * p[:, 0] ** (a - 2) * p[:, 1] ** b
            if b >= 2:
                out -= c * b * (b - 1) * p[:, 0] ** a * p[:, 1] ** (b - 2)
        return out

    return u, grad, f


def cell_basis(k: int, center, diameter, coef=None):
    """The P_k basis of a cell (or a stack of cells): `coef[:, j]` holds the
    raw scaled-monomial coefficients of basis function j (the identity when
    None).  `eval(points)` gives the values and `eval_gradient(points)` the
    x- and y-derivatives, each (..., npts, dim)."""
    coef = np.eye(cell_basis_dim(k)) if coef is None else coef

    def powers(points):
        return scaled_powers(np.atleast_2d(points), center, diameter, k)

    def eval_gradient(points):
        gx, gy = monomial_gradients(*powers(points), k, diameter)
        return gx @ coef, gy @ coef

    return SimpleNamespace(k=k, dim=cell_basis_dim(k), exponents=monomial_exponents(k),
                           center=np.asarray(center, dtype=float), diameter=diameter, coef=coef,
                           eval=lambda points: monomial_values(*powers(points), k) @ coef,
                           eval_gradient=eval_gradient)


def cell_rule(mesh, cell: int, exactness: int) -> tuple:
    """Points (nq, 2) and weights (nq,) of one cell's rule, exact to
    `exactness`, as `cell_quadratures` stacks it."""
    for cells, points, weights in cell_quadratures(mesh, exactness):
        (hit,) = np.nonzero(cells == cell)
        if len(hit):
            return points[hit[0]], weights[hit[0]]
    raise IndexError(f"cell {cell} out of range for {mesh.n_cells} cells")


def cell_elements(mesh, k: int, stab: str = "d_recipe") -> list:
    """Each cell's element in cell order: its row of every `CellBatch` field
    and of the build's test-only arrays, with `n_dofs`, `n_point` and its
    P_k `basis`."""
    out = [None] * mesh.n_cells
    for batch, extra in _build_batches(mesh, k, stab):
        arrays = {f.name: getattr(batch, f.name) for f in dataclasses.fields(batch)} | extra
        for j, cell in enumerate(batch.cells):
            el = SimpleNamespace(**{n: None if a is None else a[j] for n, a in arrays.items()})
            el.n_dofs, el.n_point = len(el.stiffness), len(el.point_coords)
            el.basis = cell_basis(k, el.center, float(el.diameter), el.coef)
            out[cell] = el
    return out


def per_cell(table, per_batch: list) -> list:
    """The rows of one array per batch of `table`, in cell order."""
    out = [None] * len(table.batch_of)
    for batch, rows in zip(table.batches, per_batch):
        for cell, row in zip(batch.cells, rows):
            out[cell] = row
    return out


def interpolant(mesh, table, u) -> np.ndarray:
    """Global DOF vector of the interpolant of u."""
    dm = table.dofmap
    out = np.zeros(dm.n_dofs)
    for batch, vals in zip(table.batches, interpolate_all(table, u)):
        out[dm.batch_dofs(batch.cells)] = vals
    return out
