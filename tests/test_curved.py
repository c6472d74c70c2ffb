import numpy as np
import pytest

from polyvem import build_disk_approx_mesh
from polyvem.basis import directional_derivative_matrix
from polyvem.curved import (
    assemble_bdt_bh,
    assemble_bdt_nitsche,
    correction_data,
    recover_multiplier_curved,
)
from polyvem.element import build_all_elements
from polyvem.levelset import (
    CorrectionConfig,
    boundary_gaps,
    circle,
    delta_many,
    half_plane,
    intersection,
)
from polyvem.linsys import schur_condense_bh, solve
from polyvem.weakbc import (
    MultiplierSpace,
    WeakBcConfig,
    assemble_bh,
    assemble_nitsche,
    edge_workspaces,
)
from conftest import cell_elements


def radial_problem():
    def u(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return np.cos(np.pi * r2 / 4.0)

    def f(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return np.pi * np.sin(np.pi * r2 / 4.0) + (np.pi**2 * r2 / 4.0) * np.cos(np.pi * r2 / 4.0)

    return u, f


def square_levelset():
    return intersection(
        [half_plane((0, 0), (-1, 0)), half_plane((0, 0), (0, -1)),
         half_plane((1, 1), (1, 0)), half_plane((1, 1), (0, 1))],
        "unit_square", interior_point=(0.5, 0.5),
    )


def test_correction_data_kstar0_empty():
    ls = circle()
    mesh = build_disk_approx_mesh(ls, 12, 2)
    els = build_all_elements(mesh, 2)
    mult = MultiplierSpace.create(mesh, 2)
    cfg = WeakBcConfig(method="barbosa_hughes", k=2, alpha=1e-3)
    table = correction_data(mesh, els, mult, ls, cfg,
                            CorrectionConfig(kstar=0, sigma_strategy="edge_normal"))
    assert np.array_equal(table.edge, mesh.boundary_edges)
    assert all(b.correction is None for b in table.batches)


def test_correction_block_oracle_single_edge():
    # block action equals the direct quadrature of gap * d_sigma(p) * psi
    ls = circle()
    mesh = build_disk_approx_mesh(ls, 12, 2)
    k = 2
    els = build_all_elements(mesh, k)
    mult = MultiplierSpace.create(mesh, k)
    cfgb = WeakBcConfig(method="barbosa_hughes", k=k, alpha=1e-3)
    ccfg = CorrectionConfig(kstar=1, sigma_strategy="edge_normal")
    table = correction_data(mesh, els, mult, ls, cfgb, ccfg)
    sigmas, gaps = boundary_gaps(ls, mesh, table.edge, table.points, ccfg)
    rng = np.random.default_rng(4)
    per_cell = cell_elements(mesh, k)
    for batch in table.batches:
        for j, field in list(zip(batch.rows, batch.correction))[:2]:
            el = per_cell[table.cell[j]]
            psi, wq = table.psi[j], table.weights[j]
            block = psi.T @ (wq[:, None] * field)  # multiplier-row coupling
            coeffs = rng.standard_normal(el.basis.dim)
            dofs_p = el.dof_of_poly @ coeffs  # DOFs of a known polynomial p
            got = block @ dofs_p  # integral of (delta d_sigma p) psi_j
            m1 = directional_derivative_matrix(k, el.diameter, el.coef, sigmas[j], 1)
            dp_vals = el.basis.eval(table.points[j]) @ (m1 @ coeffs)
            want = psi.T @ (wq * (gaps[j] * dp_vals))
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_degeneration_to_flat_assemblies():
    # an exactly polygonal level set gives zero gaps: corrected assemblies
    # reproduce the uncorrected ones to roundoff
    from polyvem import build_structured_mesh
    ls = square_levelset()
    mesh = build_structured_mesh((0, 0, 1, 1), 2, 2)
    k = 2
    els = build_all_elements(mesh, k)
    mult = MultiplierSpace.create(mesh, k)
    u, f = radial_problem()
    cfgb = WeakBcConfig(method="barbosa_hughes", k=k, alpha=1e-3)
    cfgn = WeakBcConfig(method="nitsche", k=k, gamma=1e3)
    ccfg = CorrectionConfig(kstar=2, sigma_strategy="edge_normal")

    plain = assemble_bh(mesh, els, mult, cfgb, f, u)
    corr = assemble_bdt_bh(mesh, els, mult, ls, cfgb, ccfg, f, u)
    assert np.max(np.abs((plain.matrix - corr.matrix).toarray())) <= 1e-12
    assert np.max(np.abs(plain.rhs - corr.rhs)) <= 1e-12

    plain_n = assemble_nitsche(mesh, els, cfgn, f, u, mult=mult)
    corr_n = assemble_bdt_nitsche(mesh, els, ls, cfgn, ccfg, f, u, mult=mult)
    assert np.max(np.abs((plain_n.matrix - corr_n.matrix).toarray())) <= 1e-12
    assert np.max(np.abs(plain_n.rhs - corr_n.rhs)) <= 1e-12


def test_corrected_system_nonsymmetric():
    ls = circle()
    mesh = build_disk_approx_mesh(ls, 16, 2)
    k = 2
    els = build_all_elements(mesh, k)
    mult = MultiplierSpace.create(mesh, k)
    u, f = radial_problem()
    cfgb = WeakBcConfig(method="barbosa_hughes", k=k, alpha=1e-3)
    ccfg = CorrectionConfig(kstar=1, sigma_strategy="edge_normal")
    sys_ = assemble_bdt_bh(mesh, els, mult, ls, cfgb, ccfg, f, u)
    assert sys_.check_symmetry() > 0.0


def test_taylor_transfer_consistency_slope():
    # |g(x + d sigma) - sum_j d^j/j! du_j(x)| = O(d^{kstar+1}) on the circle
    ls = circle()
    u, _ = radial_problem()

    def gap_residual(n, kstar):
        mesh = build_disk_approx_mesh(ls, n, 1)
        worst = 0.0
        dmax = 0.0
        for e in mesh.boundary_edges:
            mid = mesh.edge_midpoints[e]
            sig = mesh.edge_normals[e]
            d = delta_many(ls, mid[None, :], sig,
                           scale=mesh.cell_diameters[mesh.edge_cells[e, 0]])[0]
            # Taylor transfer of u from the chord midpoint
            taylor = u(mid[None, :])[0]
            h = 1e-5
            if kstar >= 1:
                du = (u(mid[None, :] + h * sig) - u(mid[None, :] - h * sig))[0] / (2 * h)
                taylor += d * du
            exact = u((mid + d * sig)[None, :])[0]
            worst = max(worst, abs(exact - taylor))
            dmax = max(dmax, d)
        return dmax, worst

    for kstar in (0, 1):
        d1, r1 = gap_residual(16, kstar)
        d2, r2 = gap_residual(32, kstar)
        slope = np.log(r1 / r2) / np.log(d1 / d2)
        assert abs(slope - (kstar + 1)) <= 0.2


@pytest.mark.parametrize("k", [1, 2])
def test_curved_condensation_equivalence(k):
    ls = circle()
    mesh = build_disk_approx_mesh(ls, 16, 3)
    els = build_all_elements(mesh, k)
    mult = MultiplierSpace.create(mesh, k)
    u, f = radial_problem()
    alpha = 1e-3
    cfgb = WeakBcConfig(method="barbosa_hughes", k=k, alpha=alpha)
    cfgn = WeakBcConfig(method="nitsche", k=k, gamma=1.0 / alpha)
    ccfg = CorrectionConfig(kstar=1, sigma_strategy="edge_normal")
    sys_bh = assemble_bdt_bh(mesh, els, mult, ls, cfgb, ccfg, f, u)
    sys_n = assemble_bdt_nitsche(mesh, els, ls, cfgn, ccfg, f, u, mult=mult)
    cond = schur_condense_bh(sys_bh)
    scale = np.max(np.abs(sys_n.matrix.data))
    assert np.max(np.abs((cond.matrix - sys_n.matrix).toarray())) <= 1e-10 * scale
    assert np.max(np.abs(cond.rhs - sys_n.rhs)) <= 1e-10 * max(1.0, np.max(np.abs(sys_n.rhs)))
    xb = solve(sys_bh)
    xn = solve(sys_n)
    nu = sys_n.n
    assert np.max(np.abs(xb[:nu] - xn)) / np.max(np.abs(xn)) <= 1e-8
    lam = recover_multiplier_curved(xn, mesh, els, ls, cfgn, ccfg, u, mult=mult)
    rel = np.max(np.abs(lam - xb[nu:])) / np.max(np.abs(xb[nu:]))
    assert rel <= 1e-6


def test_kstar_capped_by_k():
    ls = circle()
    mesh = build_disk_approx_mesh(ls, 12, 2)
    els = build_all_elements(mesh, 1)
    mult = MultiplierSpace.create(mesh, 1)
    u, f = radial_problem()
    cfgb = WeakBcConfig(method="barbosa_hughes", k=1, alpha=1e-3)
    with pytest.raises(ValueError, match="kstar"):
        assemble_bdt_bh(mesh, els, mult, ls, cfgb,
                        CorrectionConfig(kstar=2, sigma_strategy="edge_normal"), f, u)


def test_shared_workspaces_reused():
    # correction_data accepts an externally built table and shares its arrays
    ls = circle()
    mesh = build_disk_approx_mesh(ls, 12, 2)
    k = 2
    els = build_all_elements(mesh, k)
    mult = MultiplierSpace.create(mesh, k)
    cfgb = WeakBcConfig(method="barbosa_hughes", k=k, alpha=1e-3)
    ccfg = CorrectionConfig(kstar=1, sigma_strategy="edge_normal")
    flat = edge_workspaces(mesh, els, mult, cfgb.resolved_edge_exactness)
    corrected = correction_data(mesh, els, mult, ls, cfgb, ccfg, table=flat)
    for name in ("edge", "cell", "htilde", "points", "weights", "edge_dofs",
                 "trace", "psi", "mass"):
        assert getattr(corrected, name) is getattr(flat, name), name
    assert len(corrected.batches) == len(flat.batches)
    for fb, cb in zip(flat.batches, corrected.batches):
        for name in ("rows", "cell_dofs", "normal_deriv"):
            assert getattr(cb, name) is getattr(fb, name), name
        assert fb.correction is None and cb.correction.shape == fb.normal_deriv.shape
    assert flat.data_points is flat.points and corrected.data_points is not flat.points


@pytest.mark.parametrize("method", ["nitsche", "bh"])
def test_run_study_system_equals_public_wrappers(monkeypatch, method):
    # run_study assembles from shared corrected workspaces; the public
    # wrappers, called without data=, must build the same bits
    import polyvem.study as study_module
    from polyvem.study import PROBLEMS, ProblemSpec, _build_level_mesh, run_study

    spec = ProblemSpec(problem="disk", k=3, mesh="disk", method=method, correction=True,
                       kstar=1, sigma="normal")
    solved, recovered = [], []
    solve_fn, recover_fn = study_module.solve, study_module.recover_multiplier

    def spy_solve(system):
        solved.append(system)
        return solve_fn(system)

    def spy_recover(*args, **kwargs):
        recovered.append(recover_fn(*args, **kwargs))
        return recovered[-1]

    monkeypatch.setattr(study_module, "solve", spy_solve)
    monkeypatch.setattr(study_module, "recover_multiplier", spy_recover)
    assert run_study(spec, 1).levels[0].error is None

    problem = PROBLEMS["disk"]
    mesh, ls = _build_level_mesh(spec, problem, 0)
    els = build_all_elements(mesh, spec.k, stab=spec.stab)
    cfg, ccfg = spec.bc_config(), spec.correction_config("h_squared")
    mult = MultiplierSpace.create(mesh, cfg.resolved_kprime)
    if method == "bh":
        want = assemble_bdt_bh(mesh, els, mult, ls, cfg, ccfg, problem.f, problem.g)
    else:
        want = assemble_bdt_nitsche(mesh, els, ls, cfg, ccfg, problem.f, problem.g, mult=mult)
    (got,) = solved
    assert got.check_symmetry() > 0.0
    a, b = got.matrix.tocsc(), want.matrix.tocsc()
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(got.rhs, want.rhs)
    if method == "nitsche":
        lam = recover_multiplier_curved(solve(want), mesh, els, ls, cfg, ccfg, problem.g,
                                        mult=mult)
        assert np.array_equal(recovered[0], lam)
    else:
        assert not recovered
