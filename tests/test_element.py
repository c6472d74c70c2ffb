import numpy as np
import pytest

from polyvem import (
    build_squares_approx_mesh,
    build_structured_mesh,
    build_voronoi_mesh,
)
from polyvem.element import (
    GlobalDofMap,
    _by_cell,
    build_all_elements,
    interpolate_all,
    load_vectors,
    project_gradients_l2,
)
from polyvem.levelset import named_levelset
from conftest import cell_basis, cell_elements, per_cell, random_polynomial

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _interpolants(mesh, k, u, stab="d_recipe"):
    """Each cell's interpolant DOFs of u, in cell order."""
    table = build_all_elements(mesh, k, stab)
    return per_cell(table, interpolate_all(table, u))


def _loads(mesh, k, f):
    table = build_all_elements(mesh, k)
    return per_cell(table, load_vectors(table, f))


def _gradients_of_interpolant(mesh, k, u):
    """Each cell's projected gradient coefficients of the interpolant of u."""
    table = build_all_elements(mesh, k)
    return per_cell(table, project_gradients_l2(table, interpolate_all(table, u)))


def test_dof_counts(unit_square_1):
    for k in (1, 2, 3, 4):
        el = cell_elements(unit_square_1, k)[0]
        assert el.n_dofs == 4 * k + k * (k - 1) // 2


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_projector_fixes_polynomials(unit_square_1, k):
    el = cell_elements(unit_square_1, k)[0]
    err = np.max(np.abs(el.pinabla @ el.dof_of_poly - np.eye(el.basis.dim)))
    assert err <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("stab", ["euclidean", "d_recipe"])
def test_stiffness_kernel_symmetry_psd(unit_square_2x2, k, stab):
    ones = _interpolants(unit_square_2x2, k, lambda p: np.ones(len(p)), stab)
    for cell, el in enumerate(cell_elements(unit_square_2x2, k, stab)):
        assert np.max(np.abs(el.stiffness - el.stiffness.T)) <= 1e-13
        assert np.max(np.abs(el.stiffness @ ones[cell])) <= 1e-10
        ev = np.linalg.eigvalsh(el.stiffness)
        assert ev[0] >= -1e-10
        assert ev[1] > 1e-8  # one-dimensional kernel only


def test_energy_of_x_is_area(unit_square_1):
    el = cell_elements(unit_square_1, 1)[0]
    (dx,) = _interpolants(unit_square_1, 1, lambda p: p[:, 0])
    assert abs(dx @ el.stiffness @ dx - 1.0) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_k_consistency(unit_square_1, k):
    # a_h(phi, p) equals the projected energy pairing for any phi and p in P_k
    el = cell_elements(unit_square_1, k)[0]
    rng = np.random.default_rng(k)
    phi = rng.standard_normal(el.n_dofs)
    for _ in range(3):
        c = rng.standard_normal(el.basis.dim)
        p_dofs = el.dof_of_poly @ c
        lhs = phi @ el.stiffness @ p_dofs
        rhs = (el.pinabla @ phi) @ el.stiff_gram @ c
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_stability_vanishes_on_polynomials(unit_square_1):
    for k in (1, 2, 3, 4):
        el = cell_elements(unit_square_1, k)[0]
        assert np.max(np.abs(el.stability @ el.dof_of_poly)) <= 1e-10


def test_interpolate_constant(unit_square_1):
    el = cell_elements(unit_square_1, 3)[0]
    (dofs,) = _interpolants(unit_square_1, 3, lambda p: np.ones(len(p)))
    np.testing.assert_allclose(dofs[: el.n_point], 1.0, atol=1e-14)
    assert abs(dofs[el.n_point] - 1.0) <= 1e-14  # zeroth moment
    assert np.max(np.abs(dofs[el.n_point + 1:])) <= 1e-14  # centered


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_interpolate_reproduces_polynomials(unit_square_2x2, k):
    rng = np.random.default_rng(5)
    u, _, _ = random_polynomial(k, rng)
    interps = _interpolants(unit_square_2x2, k, u)
    for cell, el in enumerate(cell_elements(unit_square_2x2, k)):
        uh = el.basis.eval(el.points) @ (el.pinabla @ interps[cell])
        assert np.max(np.abs(uh - u(el.points))) <= 1e-10


def test_interpolation_l2_decay_k2():
    # || u - Pi(u_I) ||_0 decays one order faster than the gradient error
    u = lambda p: np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])
    errs = []
    for n in (4, 8, 16):
        mesh = build_structured_mesh((0, 0, 1, 1), n, n)
        total = 0.0
        for el, dofs in zip(cell_elements(mesh, 2), _interpolants(mesh, 2, u)):
            uh = el.basis.eval(el.points) @ (el.pinabla @ dofs)
            total += el.weights @ (uh - u(el.points)) ** 2
        errs.append(np.sqrt(total))
    rates = [np.log(errs[i] / errs[i + 1]) / np.log(2.0) for i in range(2)]
    assert rates[-1] >= 2.8  # h^3


def test_load_zero(unit_square_1):
    (b,) = _loads(unit_square_1, 2, lambda p: np.zeros(len(p)))
    assert np.max(np.abs(b)) == 0.0


def test_load_constant_k1(unit_square_1):
    (b,) = _loads(unit_square_1, 1, lambda p: np.ones(len(p)))
    np.testing.assert_allclose(b, 0.25, atol=1e-14)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_load_constant_moments(k):
    # on any cell the f = 1 functional is exactly area at the first moment
    mesh = build_voronoi_mesh(None, 5, rng_seed=2)
    loads = _loads(mesh, k, lambda p: np.ones(len(p)))
    for el, b in zip(cell_elements(mesh, k), loads):
        mom = b[el.n_point:]
        assert abs(mom[0] - el.area) <= 1e-12
        if len(mom) > 1:
            assert np.max(np.abs(mom[1:])) <= 1e-12
        assert np.max(np.abs(b[: el.n_point])) <= 1e-12


def test_project_gradient_constant(unit_square_1):
    (co,) = _gradients_of_interpolant(unit_square_1, 2, lambda p: np.ones(len(p)))
    assert np.max(np.abs(co)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_project_gradient_polynomials(unit_square_2x2, k):
    rng = np.random.default_rng(9)
    u, grad, _ = random_polynomial(k, rng)
    el = cell_elements(unit_square_2x2, k)[1]
    co = _gradients_of_interpolant(unit_square_2x2, k, u)[1]
    pts = el.points
    vals = cell_basis(k - 1, el.center, el.diameter).eval(pts)
    got = np.column_stack([vals @ co[0], vals @ co[1]])
    assert np.max(np.abs(got - grad(pts))) <= 1e-10


def test_project_gradient_accuracy_vs_quadrature_oracle():
    # interpolant of a smooth field: projected gradient matches the direct
    # L2 projection of the true gradient to O(h^k)
    u = lambda p: np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])
    gu = lambda p: np.column_stack([
        -np.pi * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
        -np.pi * np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
    ])
    mesh = build_structured_mesh((0, 0, 1, 1), 8, 8)
    el = cell_elements(mesh, 2)[27]
    co = _gradients_of_interpolant(mesh, 2, u)[27]
    pts, w = el.points, el.weights
    vals = cell_basis(1, el.center, el.diameter).eval(pts)
    # oracle: project the exact gradient by quadrature
    gram = vals.T @ (w[:, None] * vals)
    co_ex = np.linalg.solve(gram, vals.T @ (w[:, None] * gu(pts)))
    diff = np.sqrt(w @ np.sum((vals @ (co.T - co_ex)) ** 2, axis=1))
    h = el.diameter
    assert diff <= 5.0 * h**2  # O(h^k), k = 2


def test_scaling_invariance():
    # uniform scaling leaves the 2D stiffness unchanged
    m1 = build_structured_mesh((0, 0, 1, 1), 2, 2)
    m2 = build_structured_mesh((0, 0, 100, 100), 2, 2)
    for k in (1, 2, 3):
        e1 = cell_elements(m1, k)[1]
        e2 = cell_elements(m2, k)[1]
        assert np.max(np.abs(e1.stiffness - e2.stiffness)) <= 1e-10 * max(
            1.0, np.max(np.abs(e1.stiffness)))


def test_both_stabilizations_share_consistency(unit_square_1):
    for k in (1, 2, 3):
        ee = cell_elements(unit_square_1, k, stab="euclidean")[0]
        ed = cell_elements(unit_square_1, k, stab="d_recipe")[0]
        assert np.max(np.abs(ee.pinabla - ed.pinabla)) == 0.0
        assert np.max(np.abs(ee.consistency - ed.consistency)) == 0.0
        if k >= 2:
            assert np.max(np.abs(ee.stability - ed.stability)) > 0.0


def test_stability_sandwich_diagnostic():
    # the stabilization energy of the projector-free part stays within a
    # broad band of the consistency-diagonal scale of that part (diagnostic
    # surrogate of the stability sandwich, not a proof of the constants)
    meshes = [build_structured_mesh((0, 0, 1, 1), 2, 2),
              build_voronoi_mesh(None, 9, rng_seed=4)]
    rng = np.random.default_rng(11)
    for mesh in meshes:
        for k in (1, 2, 3, 4):
            el = cell_elements(mesh, k)[0]
            resid = np.eye(el.n_dofs) - el.dof_of_poly @ el.pinabla
            scale = np.diag(el.consistency)
            for _ in range(5):
                v = rng.standard_normal(el.n_dofs)
                vhat = resid @ v
                s = vhat @ el.stability @ vhat
                ref = vhat @ (scale * vhat)
                if ref > 1e-12:
                    assert 1e-3 <= s / ref <= 1e3
            # S positive definite on the complement of the polynomial DOFs
            q, _ = np.linalg.qr(el.dof_of_poly)
            comp = np.eye(el.n_dofs) - q @ q.T
            w = np.linalg.eigvalsh(comp @ el.stability @ comp)
            wmax = np.max(w)
            assert np.min(w) >= -1e-10 * wmax
            assert np.sum(w > 1e-8 * wmax) == el.n_dofs - el.basis.dim


def test_dofmap_shared_edges_consistent():
    # interpolating a global function per cell writes identical values into
    # shared edge/vertex DOFs regardless of traversal orientation
    mesh = build_voronoi_mesh(None, 7, rng_seed=8)
    rng = np.random.default_rng(2)
    u, _, _ = random_polynomial(3, rng)
    k = 3
    dm = GlobalDofMap(mesh, k)
    glob = np.full(dm.n_dofs, np.nan)
    for cell, vals in enumerate(_interpolants(mesh, k, u)):
        idx = dm.dofs[dm.offsets[cell]:dm.offsets[cell + 1]]
        ok = np.isnan(glob[idx]) | (np.abs(glob[idx] - vals) <= 1e-12)
        assert np.all(ok)
        glob[idx] = vals
    assert not np.any(np.isnan(glob))


def _per_cell_dofs(mesh, k, cell):
    """The cell-by-cell numbering the one-pass table replaced (reference)."""
    n_moment = (k - 1) * k // 2
    loop, nv = mesh.cells[cell], len(mesh.cells[cell])
    dofs = list(loop)
    for i, e in enumerate(mesh.cell_edge_ids[cell]):
        base = mesh.n_vertices + e * (k - 1)
        if loop[i] < loop[(i + 1) % nv]:
            dofs += [base + j for j in range(k - 1)]
        else:
            dofs += [base + (k - 2 - j) for j in range(k - 1)]
    base = mesh.n_vertices + mesh.n_edges * (k - 1) + cell * n_moment
    return np.array(dofs + [base + m for m in range(n_moment)], dtype=int)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_dofmap_matches_per_cell_numbering(k):
    meshes = [build_voronoi_mesh(None, 40, rng_seed=3),
              build_squares_approx_mesh(named_levelset("quarter_disk"), 8, 2)]
    for mesh in meshes:
        dm = GlobalDofMap(mesh, k)
        want = [_per_cell_dofs(mesh, k, c) for c in range(mesh.n_cells)]
        assert dm.n_dofs == mesh.n_vertices + mesh.n_edges * (k - 1) + mesh.n_cells * (k - 1) * k // 2
        assert dm.dofs.dtype == want[0].dtype
        assert np.array_equal(dm.dofs, np.concatenate(want))
        assert np.array_equal(dm.offsets[1:], np.cumsum([len(w) for w in want]))
        sizes = np.diff(dm.offsets)
        for size in np.unique(sizes):
            cells = np.flatnonzero(sizes == size)
            assert np.array_equal(dm.batch_dofs(cells), np.stack([want[c] for c in cells]))


def test_dofmap_table_shared_per_mesh_and_order(unit_square_2x2):
    a, b = GlobalDofMap(unit_square_2x2, 3), GlobalDofMap(unit_square_2x2, 3)
    other = GlobalDofMap(unit_square_2x2, 2)
    cells = np.arange(unit_square_2x2.n_cells)
    assert np.array_equal(a.batch_dofs(cells), b.batch_dofs(cells))
    assert other.batch_dofs(cells).shape[1] < a.batch_dofs(cells).shape[1]
    assert not a.dofs.flags.writeable and not other.dofs.flags.writeable
    with pytest.raises(ValueError):
        a.dofs[0] = -1


def test_build_element_rejects_bad_args(unit_square_1):
    with pytest.raises(ValueError):
        build_all_elements(unit_square_1, 0)
    with pytest.raises(ValueError, match="^k must be an integer >= 1, got 0$"):
        GlobalDofMap(unit_square_1, 0)  # once a bare IndexError
    with pytest.raises(ValueError):
        build_all_elements(unit_square_1, 2, stab="other")


def test_by_cell_names_the_first_failing_cell():
    cells = np.array([3, 7, 9])
    stack = np.stack([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))])
    with pytest.raises(np.linalg.LinAlgError, match=r"^Gram matrix numerically singular on cell 7$"):
        _by_cell(np.linalg.cholesky, cells, "Gram matrix numerically singular", stack)
    with pytest.raises(np.linalg.LinAlgError, match=r"^projector system singular on cell 7$"):
        _by_cell(np.linalg.solve, cells, "projector system singular", stack, np.ones((3, 2, 1)))
    # a stack that factors comes back as the stacked call gives it
    spd = np.stack([np.eye(2), [[4.0, 1.0], [1.0, 3.0]], 2.0 * np.eye(2)])
    assert np.array_equal(_by_cell(np.linalg.cholesky, cells, "", spd), np.linalg.cholesky(spd))
