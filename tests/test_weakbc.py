import re

import numpy as np
import pytest

from polyvem import build_disk_approx_mesh, build_structured_mesh, build_voronoi_mesh
from polyvem.curved import correction_data
from polyvem.element import GlobalDofMap, build_all_elements, load_vectors
from polyvem.levelset import CorrectionConfig, circle
from polyvem.linsys import TripletBuilder, schur_condense_bh, solve
from polyvem.study import compute_errors, multiplier_error
from polyvem.weakbc import (
    MultiplierSpace,
    WeakBcConfig,
    _scatter_volume,
    assemble_bh,
    assemble_nitsche,
    edge_workspaces,
    recover_multiplier,
)
from conftest import interpolant, per_cell, random_polynomial


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("kprime_off", [0, 1])
def test_bh_patch(unit_square_2x2, k, kprime_off):
    rng = np.random.default_rng(k)
    u, grad, f = random_polynomial(k, rng)
    cfg = WeakBcConfig(method="barbosa_hughes", k=k, kprime=k - kprime_off, alpha=0.001)
    els = build_all_elements(unit_square_2x2, k)
    mult = MultiplierSpace.create(unit_square_2x2, cfg.resolved_kprime)
    sys_ = assemble_bh(unit_square_2x2, els, mult, cfg, f, u)
    x = solve(sys_)
    dm = els.dofmap
    e1, e0 = compute_errors(unit_square_2x2, els, x[:dm.n_dofs], u, grad)
    assert e1 <= 1e-9 and e0 <= 1e-9
    # multiplier equals -grad u . nu in the boundary norm
    lam_err = multiplier_error(unit_square_2x2, els, mult, x[dm.n_dofs:], grad,
                               cfg.resolved_edge_exactness)
    assert lam_err <= 1e-8


def test_bh_linear_patch_explicit(unit_square_2x2):
    # u = x + y with alpha = 0.01: DOFs and multiplier to 1e-9
    u = lambda p: p[:, 0] + p[:, 1]
    cfg = WeakBcConfig(method="barbosa_hughes", k=1, alpha=0.01)
    els = build_all_elements(unit_square_2x2, 1)
    mult = MultiplierSpace.create(unit_square_2x2, 1)
    x = solve(assemble_bh(unit_square_2x2, els, mult, cfg,
                          lambda p: np.zeros(len(p)), u))
    ui = interpolant(unit_square_2x2, els, u)
    dm = els.dofmap
    assert np.max(np.abs(x[:dm.n_dofs] - ui)) <= 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_nitsche_patch(unit_square_2x2, k):
    rng = np.random.default_rng(10 + k)
    u, grad, f = random_polynomial(k, rng)
    cfg = WeakBcConfig(method="nitsche", k=k, gamma=1000.0)
    els = build_all_elements(unit_square_2x2, k)
    uh = solve(assemble_nitsche(unit_square_2x2, els, cfg, f, u))
    e1, e0 = compute_errors(unit_square_2x2, els, uh, u, grad)
    assert e1 <= 1e-8 and e0 <= 1e-8


def test_zero_data_zero_solution(unit_square_2x2):
    zero = lambda p: np.zeros(len(p))
    for method in ("barbosa_hughes", "nitsche"):
        cfg = WeakBcConfig(method=method, k=2, alpha=0.001, gamma=1000.0)
        els = build_all_elements(unit_square_2x2, 2)
        if method == "barbosa_hughes":
            mult = MultiplierSpace.create(unit_square_2x2, 2)
            x = solve(assemble_bh(unit_square_2x2, els, mult, cfg, zero, zero))
        else:
            x = solve(assemble_nitsche(unit_square_2x2, els, cfg, zero, zero))
        assert np.max(np.abs(x)) <= 1e-12


@pytest.mark.parametrize("method", ["barbosa_hughes", "nitsche"])
def test_matrix_symmetry(unit_square_2x2, method):
    u = lambda p: p[:, 0] ** 2 - p[:, 1]
    f = lambda p: -2.0 * np.ones(len(p))
    cfg = WeakBcConfig(method=method, k=2, alpha=0.001, gamma=1000.0)
    els = build_all_elements(unit_square_2x2, 2)
    if method == "barbosa_hughes":
        mult = MultiplierSpace.create(unit_square_2x2, 2)
        sys_ = assemble_bh(unit_square_2x2, els, mult, cfg, f, u)
    else:
        sys_ = assemble_nitsche(unit_square_2x2, els, cfg, f, u)
    assert sys_.check_symmetry() <= 1e-12


def test_multiplier_recovery_signs(unit_square_2x2):
    # u = x: flux -du/dnu is -1 on the right edge, 0 on the bottom edge
    u = lambda p: p[:, 0]
    cfg = WeakBcConfig(method="nitsche", k=1, gamma=100.0)
    els = build_all_elements(unit_square_2x2, 1)
    uh = solve(assemble_nitsche(unit_square_2x2, els, cfg, lambda p: np.zeros(len(p)), u))
    mult = MultiplierSpace.create(unit_square_2x2, 1)
    lam = recover_multiplier(uh, unit_square_2x2, els, cfg, u, mult=mult)
    m = unit_square_2x2
    table = edge_workspaces(m, els, mult, cfg.resolved_edge_exactness)
    vals = table.psi @ lam.reshape(mult.n_edges, -1, 1)  # at each edge's quadrature points
    want = -m.edge_normals[table.edge][:, 0]  # -grad(x).nu = -nu_x
    assert np.max(np.abs(vals[..., 0] - want[:, None])) <= 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bh_nitsche_condensation_equivalence(k):
    mesh = build_voronoi_mesh(None, 12, lloyd_iters=1, rng_seed=6)
    els = build_all_elements(mesh, k)
    alpha = 1e-3
    u = lambda p: np.cos(p[:, 0]) * np.sinh(p[:, 1]) + p[:, 0]
    f = lambda p: np.zeros(len(p))  # harmonic
    cfgb = WeakBcConfig(method="barbosa_hughes", k=k, alpha=alpha)
    cfgn = WeakBcConfig(method="nitsche", k=k, gamma=1.0 / alpha)
    mult = MultiplierSpace.create(mesh, k)
    sys_bh = assemble_bh(mesh, els, mult, cfgb, f, u)
    sys_n = assemble_nitsche(mesh, els, cfgn, f, u, mult=mult)
    cond = schur_condense_bh(sys_bh)
    scale = max(1.0, np.max(np.abs(sys_n.matrix.data)))
    assert np.max(np.abs((cond.matrix - sys_n.matrix).toarray())) <= 1e-10 * scale
    assert np.max(np.abs(cond.rhs - sys_n.rhs)) <= 1e-10 * max(1.0, np.max(np.abs(sys_n.rhs)))
    xb = solve(sys_bh)
    xn = solve(sys_n)
    nu = sys_n.n
    rel = np.max(np.abs(xb[:nu] - xn)) / max(np.max(np.abs(xn)), 1e-30)
    assert rel <= 1e-8
    # recovered multiplier agrees with the saddle solution (the iterative
    # refinement in the solver is what keeps this tight at k = 3, where the
    # saddle condition number reaches 1e14)
    lam = recover_multiplier(xn, mesh, els, cfgn, u, mult=mult)
    rel_l = np.max(np.abs(lam - xb[nu:])) / max(np.max(np.abs(xb[nu:])), 1e-30)
    assert rel_l <= 1e-8


def test_condensation_kprime_lower_differs(unit_square_2x2):
    # with k' = k-1 the condensed system runs but differs from the penalty one
    k = 2
    els = build_all_elements(unit_square_2x2, k)
    u = lambda p: p[:, 0] * p[:, 1]
    f = lambda p: np.zeros(len(p))
    cfgb = WeakBcConfig(method="barbosa_hughes", k=k, kprime=k - 1, alpha=1e-3)
    cfgn = WeakBcConfig(method="nitsche", k=k, gamma=1e3)
    mult = MultiplierSpace.create(unit_square_2x2, k - 1)
    sys_bh = assemble_bh(unit_square_2x2, els, mult, cfgb, f, u)
    cond = schur_condense_bh(sys_bh)
    sys_n = assemble_nitsche(unit_square_2x2, els, cfgn, f, u)
    diff = np.max(np.abs((cond.matrix - sys_n.matrix).toarray()))
    assert diff > 1e-6  # a genuinely different operator
    solve(cond)  # still solvable


def test_boundary_norm_constant_single_edge():
    # the multiplier 1 on one unit edge, 0 elsewhere: norm sqrt(htilde)
    mesh = build_structured_mesh((0, 0, 1, 1), 1, 1)
    cfg = WeakBcConfig(method="nitsche", k=1, gamma=10.0)
    els = build_all_elements(mesh, 1)
    mult = MultiplierSpace.create(mesh, 1)
    e0 = mesh.boundary_edges[0]
    htil = mesh.cell_diameters[mesh.edge_cells[e0, 0]]
    no_flux = lambda p: np.zeros((len(p), 2))
    coeffs = np.zeros(mult.dim)
    coeffs[0] = 1.0  # the constant member of edge 0's basis
    val = multiplier_error(mesh, els, mult, coeffs, no_flux, cfg.resolved_edge_exactness)
    assert abs(val - np.sqrt(htil * 1.0)) <= 1e-12
    assert multiplier_error(mesh, els, mult, np.zeros(mult.dim), no_flux,
                            cfg.resolved_edge_exactness) == 0.0


def test_gamma_monotone_definiteness(unit_square_2x2):
    els = build_all_elements(unit_square_2x2, 1)
    zero = lambda p: np.zeros(len(p))
    mins = []
    for gamma in (10.0, 100.0, 1000.0):
        cfg = WeakBcConfig(method="nitsche", k=1, gamma=gamma)
        a = assemble_nitsche(unit_square_2x2, els, cfg, zero, zero).matrix.toarray()
        n = len(a)
        ones = np.ones(n) / np.sqrt(n)
        p = np.eye(n) - np.outer(ones, ones)
        w = np.linalg.eigvalsh(p @ a @ p)
        mins.append(np.sort(w)[1])  # skip the deflated constant direction
    assert mins[0] <= mins[1] <= mins[2]


def _quiet_config(**kwargs) -> WeakBcConfig:
    # a penalty outside its stable range warns; here it is meant
    with pytest.warns(UserWarning, match="is (small|large)"):
        return WeakBcConfig(**kwargs)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_parameter_regimes_on_coarse_voronoi(k):
    # the paper's well-posedness condition: gamma large enough for Nitsche,
    # alpha small enough for the multiplier method
    mesh = build_voronoi_mesh(None, 16, lloyd_iters=1, rng_seed=3)
    els = build_all_elements(mesh, k)
    zero = lambda p: np.zeros(len(p))

    def smallest(cfg):
        a = assemble_nitsche(mesh, els, cfg, zero, zero).matrix.toarray()
        return np.linalg.eigvalsh(0.5 * (a + a.T))[0]

    assert smallest(WeakBcConfig(method="nitsche", k=k, gamma=1000.0)) > 0.0
    assert smallest(_quiet_config(method="nitsche", k=k, gamma=1.0)) < 0.0

    def inertia(cfg):
        mult = MultiplierSpace.create(mesh, cfg.resolved_kprime)
        a = assemble_bh(mesh, els, mult, cfg, zero, zero).matrix.toarray()
        ev = np.linalg.eigvalsh(a)
        return (int(np.sum(ev > 0.0)), int(np.sum(ev < 0.0))), mult.dim

    n_u = GlobalDofMap(mesh, k).n_dofs
    for kprime in (k, k - 1):
        counts, n_mult = inertia(WeakBcConfig(method="barbosa_hughes", k=k, kprime=kprime,
                                              alpha=1e-3))
        assert counts == (n_u, n_mult), kprime
    counts, _ = inertia(_quiet_config(method="barbosa_hughes", k=k, alpha=1.0))
    assert counts[0] < n_u


def test_mismatched_order_rejected(unit_square_2x2):
    els = build_all_elements(unit_square_2x2, 2)
    cfg = WeakBcConfig(method="nitsche", k=3, gamma=100.0)
    with pytest.raises(ValueError, match="order"):
        assemble_nitsche(unit_square_2x2, els, cfg,
                         lambda p: np.zeros(len(p)), lambda p: np.zeros(len(p)))


CONSUMERS = ["assemble_bh", "assemble_nitsche", "recover_multiplier", "correction_data"]


def _zero(p):
    return np.zeros(len(p))


def _mismatched_calls(mesh, els, mult, table):
    """Each consumer of a level's multiplier space, under k = k' = 2."""
    bh = WeakBcConfig(method="barbosa_hughes", k=2, kprime=2)
    nit = WeakBcConfig(method="nitsche", k=2)
    u = np.zeros(GlobalDofMap(mesh, 2).n_dofs)
    ccfg = CorrectionConfig(kstar=1, sigma_strategy="edge_normal")
    return {
        "assemble_bh": lambda: assemble_bh(mesh, els, mult, bh, _zero, _zero, table=table),
        "assemble_nitsche": lambda: assemble_nitsche(mesh, els, nit, _zero, _zero,
                                                     table=table, mult=mult),
        "recover_multiplier": lambda: recover_multiplier(u, mesh, els, nit, _zero, mult=mult,
                                                         table=table),
        "correction_data": lambda: correction_data(mesh, els, mult, circle(), bh, ccfg,
                                                   table=table),
    }


@pytest.mark.parametrize("given", ["space", "table"])
@pytest.mark.parametrize("name", CONSUMERS)
def test_multiplier_degree_mismatch_rejected(name, given):
    # a degree-1 space under k' = 2 was once assembled as a k' = 1 system,
    # and the Nitsche assembly built a k' = 1 projection of the data
    mesh = build_disk_approx_mesh(circle(), 12, 2)
    els, mult = build_all_elements(mesh, 2), MultiplierSpace.create(mesh, 1)
    table = None
    if given == "table":
        table = edge_workspaces(mesh, els, mult, 6)
    with pytest.raises(ValueError, match="^multipliers have degree 1, config expects k' = 2$"):
        _mismatched_calls(mesh, els, mult, table)[name]()


@pytest.mark.parametrize("wrong", ["degree", "edges"])
@pytest.mark.parametrize("name", CONSUMERS)
def test_space_that_disagrees_with_the_given_table_rejected(name, wrong):
    # a k' = 1 space beside a k' = 2 table once assembled the table's
    # system (154 unknowns on this mesh) without a word
    mesh = build_voronoi_mesh(None, 16, lloyd_iters=2, rng_seed=0)
    els = build_all_elements(mesh, 2)
    table = edge_workspaces(mesh, els, MultiplierSpace.create(mesh, 2), 6)
    n = len(mesh.boundary_edges)
    mult = MultiplierSpace.create(mesh, 1) if wrong == "degree" else MultiplierSpace(2, n + 1)
    with pytest.raises(ValueError, match=re.escape(
            f"multiplier space has k' = {mult.kprime} on {mult.n_edges} edges, "
            f"the edge table k' = 2 on {n} edges")):
        _mismatched_calls(mesh, els, mult, table)[name]()


@pytest.mark.parametrize("name", CONSUMERS)
def test_element_order_mismatch_rejected_by_every_consumer(name):
    mesh = build_disk_approx_mesh(circle(), 12, 2)
    els = build_all_elements(mesh, 3)
    with pytest.raises(ValueError, match="^elements have order 3, config expects k = 2$"):
        _mismatched_calls(mesh, els, MultiplierSpace.create(mesh, 2), None)[name]()


def test_config_validation_and_warnings():
    with pytest.raises(ValueError):
        WeakBcConfig(method="nitsche", k=2, kprime=1)
    with pytest.raises(ValueError):
        WeakBcConfig(method="barbosa_hughes", k=2, kprime=0)
    with pytest.raises(ValueError, match=r"^kprime must be an integer >= 0, got 1.0$"):
        WeakBcConfig(method="barbosa_hughes", k=2, kprime=1.0)  # once a TypeError in assemble_bh
    with pytest.raises(ValueError):
        WeakBcConfig(method="bogus", k=1)
    with pytest.warns(UserWarning):
        WeakBcConfig(method="barbosa_hughes", k=1, alpha=0.5)
    with pytest.warns(UserWarning):
        WeakBcConfig(method="nitsche", k=1, gamma=2.0)


def test_stacked_volume_scatter_equals_shuffled_tiles():
    # one stacked block per batch and every cell's block cut into random
    # square-grid tiles of 1x1 up to n x n, added in a shuffled order, give
    # the same CSC arrays; the loads match a cell-by-cell `rhs[gd] += load`
    rng = np.random.default_rng(8)
    mesh = build_voronoi_mesh(None, 256, rng_seed=8)
    k = 3
    els = build_all_elements(mesh, k)
    dm = els.dofmap
    f = lambda p: np.sin(3.0 * p[:, 0]) * np.cos(2.0 * p[:, 1])
    stacked, rhs = TripletBuilder(dm.n_dofs), np.zeros(dm.n_dofs)
    _scatter_volume(stacked, rhs, els, f)
    assert len(stacked._blocks) == len(els.batches) == len({len(loop) for loop in mesh.cells})

    stiffness = per_cell(els, [b.stiffness for b in els.batches])
    tiles, want = [], np.zeros(dm.n_dofs)
    for cell, load in enumerate(per_cell(els, load_vectors(els, f))):
        gd = dm.dofs[dm.offsets[cell]:dm.offsets[cell + 1]]
        want[gd] += load
        cuts = np.arange(0, len(gd), rng.integers(1, len(gd) + 1))
        for r in np.split(np.arange(len(gd)), cuts[1:]):
            for c in np.split(np.arange(len(gd)), cuts[1:]):
                tiles.append((gd[r], gd[c], stiffness[cell][np.ix_(r, c)]))
    shuffled = TripletBuilder(dm.n_dofs)
    for i in rng.permutation(len(tiles)):
        shuffled.add_block(*tiles[i])

    a, b = stacked.compress(), shuffled.compress()
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(rhs, want)
