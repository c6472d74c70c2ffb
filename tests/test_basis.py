import numpy as np
import pytest

from polyvem import build_squares_approx_mesh, build_structured_mesh, build_voronoi_mesh
from polyvem.basis import (
    cell_basis_dim,
    directional_derivative_matrix,
    monomial_exponents,
    monomial_values,
    scaled_powers,
)
from polyvem.element import build_all_elements
from polyvem.levelset import named_levelset
from polyvem.weakbc import MultiplierSpace, edge_workspaces
from polyvem.mesh import build_mesh
from conftest import cell_basis, cell_rule

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def square_basis(k, mode="raw"):
    """The raw basis of the unit square, or the element's orthonormalized one
    (k >= 3), and a rule on the square."""
    b = cell_basis(k, (0.5, 0.5), np.sqrt(2.0))
    if mode == "ortho":
        batch = build_all_elements(build_structured_mesh((0, 0, 1, 1), 1, 1), k).batches[0]
        b = cell_basis(k, batch.center[0], float(batch.diameter[0]), batch.coef[0])
    return b, cell_rule(build_mesh(SQUARE, [[0, 1, 2, 3]]), 0, 2 * k + 2)


def gram_matrix(basis, quad):
    points, weights = quad
    vals = basis.eval(points)
    return vals.T @ (weights[:, None] * vals)


def test_dimensions():
    for k in range(5):
        assert cell_basis_dim(k) == (k + 1) * (k + 2) // 2
        assert len(monomial_exponents(k)) == cell_basis_dim(k)


def test_constant_first_and_centered():
    b, _ = square_basis(3)
    pts = np.array([[0.5, 0.5], [0.9, 0.1]])
    vals = b.eval(pts)
    np.testing.assert_allclose(vals[:, 0], 1.0)
    # m_(1,0) vanishes at the center
    assert abs(vals[0, 1]) <= 1e-15


def test_gradient_chain_rule():
    b, _ = square_basis(2)
    pts = np.array([[0.3, 0.8]])
    gx, gy = b.eval_gradient(pts)
    # d/dx of m_(1,0) = 1/h everywhere
    assert abs(gx[0, 1] - 1.0 / np.sqrt(2.0)) <= 1e-15
    assert abs(gy[0, 1]) <= 1e-15


def test_gram_entry_analytic():
    # <m_(0,0), m_(2,0)> on the unit square with x_K=(1/2,1/2), h=sqrt(2):
    # int ((x-1/2)/sqrt 2)^2 = 1/24
    b, quad = square_basis(2)
    g = gram_matrix(b, quad)
    i20 = b.exponents.index((2, 0))
    assert abs(g[0, i20] - 1.0 / 24.0) <= 1e-13


def test_gram_k0():
    b, quad = square_basis(0)
    g = gram_matrix(b, quad)
    assert g.shape == (1, 1)
    assert abs(g[0, 0] - 1.0) <= 1e-14


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_orthonormalize_gram_identity(k):
    # the element table's cell bases: orthonormal on each batch's own rule
    # for k >= 3, the raw monomials below
    meshes = [build_voronoi_mesh(None, 24, lloyd_iters=1, rng_seed=3),
              build_squares_approx_mesh(named_levelset("quarter_disk"), 4, 1)]
    for mesh in meshes:
        for b in build_all_elements(mesh, k).batches:
            if k < 3:
                assert np.array_equal(b.coef, np.broadcast_to(np.eye(cell_basis_dim(k)), b.coef.shape))
                continue
            vals = monomial_values(*scaled_powers(b.points, b.center, b.diameter, k), k) @ b.coef
            gram = np.swapaxes(vals, 1, 2) @ (b.weights[..., None] * vals)
            assert np.max(np.abs(gram - np.eye(cell_basis_dim(k)))) <= 1e-10


def test_directional_derivative_identity_and_values():
    b, _ = square_basis(2)
    m0 = directional_derivative_matrix(b.k, b.diameter, b.coef, (1.0, 0.0), 0)
    np.testing.assert_allclose(m0, np.eye(b.dim))
    m1 = directional_derivative_matrix(b.k, b.diameter, b.coef, (1.0, 0.0), 1)
    c = np.zeros(b.dim)
    c[b.exponents.index((1, 0))] = 1.0
    dc = m1 @ c
    # derivative of m_(1,0) along x is the constant 1/h
    want = np.zeros(b.dim)
    want[0] = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(dc, want, atol=1e-14)
    # y-derivative of m_(2,0) vanishes
    my = directional_derivative_matrix(b.k, b.diameter, b.coef, (0.0, 1.0), 1)
    c2 = np.zeros(b.dim)
    c2[b.exponents.index((2, 0))] = 1.0
    np.testing.assert_allclose(my @ c2, 0.0, atol=1e-14)


@pytest.mark.parametrize("mode", ["raw", "ortho"])
def test_directional_derivative_composition(mode):
    b, _ = square_basis(4, mode=mode)
    rng = np.random.default_rng(0)
    s = rng.standard_normal(2)
    s /= np.hypot(*s)
    m1 = directional_derivative_matrix(b.k, b.diameter, b.coef, s, 1)
    m2 = directional_derivative_matrix(b.k, b.diameter, b.coef, s, 2)
    m3 = directional_derivative_matrix(b.k, b.diameter, b.coef, s, 3)
    assert np.max(np.abs(m2 - m1 @ m1)) <= 1e-12 * max(1.0, np.max(np.abs(m2)))
    assert np.max(np.abs(m3 - m1 @ m2)) <= 1e-12 * max(1.0, np.max(np.abs(m3)))
    # order above k is the zero map
    m5 = directional_derivative_matrix(b.k, b.diameter, b.coef, s, 5)
    assert np.max(np.abs(m5)) <= 1e-12


def test_directional_derivative_rejects_non_unit():
    b, _ = square_basis(2)
    with pytest.raises(ValueError):
        directional_derivative_matrix(b.k, b.diameter, b.coef, (1.0, 1.0), 1)


def test_directional_derivative_finite_difference():
    b, _ = square_basis(3)
    rng = np.random.default_rng(1)
    c = rng.standard_normal(b.dim)
    s = np.array([0.6, 0.8])
    m1 = directional_derivative_matrix(b.k, b.diameter, b.coef, s, 1)
    p = np.array([[0.4, 0.7]])
    h = 1e-6
    fd = (b.eval(p + h * s) @ c - b.eval(p - h * s) @ c) / (2 * h)
    exact = b.eval(p) @ (m1 @ c)
    assert abs(fd[0] - exact[0]) <= 1e-8


def test_directional_derivative_matrix_stacked():
    # a stack of bases with one direction each gives each basis's matrix
    rng = np.random.default_rng(9)
    bases = [square_basis(3, "ortho")[0], cell_basis(3, (0.2, -0.1), 0.7)]
    ang = rng.uniform(0.0, 2.0 * np.pi, 2)
    sig = np.column_stack([np.cos(ang), np.sin(ang)])
    stacked = cell_basis(3, np.stack([b.center for b in bases]),
                         np.array([b.diameter for b in bases]), np.stack([b.coef for b in bases]))
    for j in (0, 1, 2):
        got = directional_derivative_matrix(stacked.k, stacked.diameter, stacked.coef, sig, j)
        for b, s, m in zip(bases, sig, got):
            assert np.array_equal(m, directional_derivative_matrix(b.k, b.diameter, b.coef, s, j))
    with pytest.raises(ValueError, match="unit"):
        directional_derivative_matrix(3, stacked.diameter, stacked.coef, [[1.0, 0.0], [1.0, 1.0]])


def test_edge_basis_dim_and_scaling():
    # the multiplier basis of each boundary edge: powers of the arclength
    # from the edge midpoint over the edge length
    mesh = build_structured_mesh((0, 0, 2, 2), 1, 1)
    table = edge_workspaces(mesh, build_all_elements(mesh, 3), MultiplierSpace.create(mesh, 3), 8)
    assert table.psi.shape == (4, 5, 4)
    for j, e in enumerate(table.edge):
        a, b = mesh.vertices[mesh.edges[e]]
        s = (table.points[j] - 0.5 * (a + b)) @ (b - a) / 4.0
        assert np.all(np.abs(s) < 0.5)
        np.testing.assert_allclose(table.psi[j], s[:, None] ** np.arange(4), rtol=0, atol=1e-15)
