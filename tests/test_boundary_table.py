"""The stacked boundary edge table and its consumers against the per-edge
code they replaced.

The reference functions below build one workspace per boundary edge and
assemble, recover and measure edge by edge in Python loops.  Every table
array, both assembled systems (CSC arrays and right side), the recovered
multiplier and the multiplier error must be bitwise equal to them.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from polyvem import build_disk_approx_mesh, build_squares_approx_mesh, build_voronoi_mesh
from polyvem.basis import directional_derivative_matrix
from polyvem.curved import correction_data
from polyvem.element import build_all_elements, lagrange_eval_matrix
from polyvem.levelset import CorrectionConfig, boundary_gaps, circle, quarter_disk
from polyvem.linsys import LinearSystem, TripletBuilder
from polyvem.quadrature import gauss_legendre, gauss_lobatto
from polyvem.study import multiplier_error
from polyvem.weakbc import (
    MultiplierSpace,
    WeakBcConfig,
    _scatter_volume,
    assemble_bh,
    assemble_nitsche,
    edge_workspaces,
    recover_multiplier,
)
from conftest import cell_elements

# ---------------------------------------------------------------- reference


def ref_lagrange(nodes, x):
    """The point-at-a-time Lagrange evaluation."""
    n = len(nodes)
    w = np.ones(n)
    for j in range(n):
        for m in range(n):
            if m != j:
                w[j] /= nodes[j] - nodes[m]
    out = np.zeros((len(x), n))
    for i, xi in enumerate(x):
        diff = xi - nodes
        hit = np.nonzero(np.abs(diff) < 1e-14)[0]
        if len(hit):
            out[i, hit[0]] = 1.0
            continue
        terms = w / diff
        out[i] = terms / np.sum(terms)
    return out


def ref_segment_rule(a, b, exactness):
    x, w = gauss_legendre(max(1, (exactness + 2) // 2))
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid[None, :] + x[:, None] * half[None, :], w * (0.5 * float(np.hypot(*(b - a))))


def ref_psi(a, b, kprime, points):
    """Powers of the arclength from the midpoint over the length."""
    tangent = (b - a) / np.hypot(*(b - a))
    s = ((points - 0.5 * (a + b)) @ tangent) / float(np.hypot(*(b - a)))
    return np.vander(s, kprime + 1, increasing=True) @ np.eye(kprime + 1)


def ref_workspaces(mesh, elements, dofmap, kprime, exactness):
    """elements: each cell's element, in cell order (`conftest.cell_elements`)."""
    k = dofmap.k
    glx, _ = gauss_lobatto(k + 1)
    works = []
    for e in mesh.boundary_edges:
        cell = int(mesh.edge_cells[e, 0])
        el = elements[cell]
        local = mesh.cell_edge_ids[cell].index(int(e))
        nv = len(mesh.cells[cell])
        point_dofs = [local] + [nv + local * (k - 1) + j for j in range(k - 1)] + [(local + 1) % nv]
        a, b = mesh.vertices[mesh.edges[e]]
        points, weights = ref_segment_rule(a, b, exactness)
        loop = mesh.cells[cell]
        va = mesh.vertices[loop[local]]
        vb = mesh.vertices[loop[(local + 1) % len(loop)]]
        length = mesh.edge_lengths[e]  # a numpy scalar, squared by C pow
        t = 2.0 * ((points - 0.5 * (va + vb)) @ (vb - va)) / length**2
        gx, gy = el.basis.eval_gradient(points)
        nrm = mesh.edge_normals[e]
        psi = ref_psi(a, b, kprime, points)
        mass = psi.T @ (weights[:, None] * psi)
        cell_dofs = dofmap.dofs[dofmap.offsets[cell]:dofmap.offsets[cell + 1]]
        works.append(SimpleNamespace(
            edge=int(e), cell=cell, htilde=float(mesh.cell_diameters[cell]),
            points=points, weights=weights, data_points=points, cell_dofs=cell_dofs,
            edge_dofs=cell_dofs[point_dofs],
            trace=ref_lagrange(glx, t), normal_deriv=(nrm[0] * gx + nrm[1] * gy) @ el.pinabla,
            psi=psi, mass=0.5 * (mass + mass.T), correction=None))
    return works


def ref_correct(mesh, elements, works, levelset, ccfg):
    sigmas, gaps = boundary_gaps(levelset, mesh, [w.edge for w in works],
                                 [w.points for w in works], ccfg)
    for w, sigma, ds in zip(works, sigmas, gaps):
        w.data_points = w.points + ds[:, None] * sigma[None, :]
        if ccfg.kstar >= 1:
            el = elements[w.cell]
            m1 = directional_derivative_matrix(el.basis.k, el.diameter, el.coef, sigma, 1)
            evals = el.basis.eval(w.points)
            cur = el.pinabla
            w.correction = np.zeros((len(w.points), el.n_dofs))
            for j in range(1, ccfg.kstar + 1):
                cur = m1 @ cur
                w.correction += (ds**j / math.factorial(j))[:, None] * (evals @ cur)
    return works


def ref_bh(elements, m, works, alpha, f, g):
    nu = elements.dofmap.n_dofs
    builder, rhs = TripletBuilder(nu + m * len(works)), np.zeros(nu + m * len(works))
    _scatter_volume(builder, rhs, elements, f)
    for j, w in enumerate(works):
        lam = nu + j * m + np.arange(m)
        ah, wq = alpha * w.htilde, w.weights
        T = w.psi.T @ (wq[:, None] * w.trace)
        N = w.psi.T @ (wq[:, None] * w.normal_deriv)
        pen = w.normal_deriv.T @ (wq[:, None] * w.normal_deriv)
        builder.add_block(w.cell_dofs, w.cell_dofs, -ah * (0.5 * (pen + pen.T)))
        builder.add_block(lam, w.edge_dofs, T)
        builder.add_block(w.edge_dofs, lam, T.T)
        builder.add_block(lam, w.cell_dofs, -ah * N)
        builder.add_block(w.cell_dofs, lam, -ah * N.T)
        builder.add_block(lam, lam, -ah * w.mass)
        if w.correction is not None:
            builder.add_block(lam, w.cell_dofs, w.psi.T @ (wq[:, None] * w.correction))
        rhs[lam] += w.psi.T @ (wq * np.asarray(g(w.data_points), dtype=float))
    return LinearSystem(builder.compress(), rhs)


def ref_nitsche(elements, works, gamma, f, g):
    nu = elements.dofmap.n_dofs
    builder, rhs = TripletBuilder(nu), np.zeros(nu)
    _scatter_volume(builder, rhs, elements, f)
    for w in works:
        wq, scale = w.weights, gamma / w.htilde
        cross = w.trace.T @ (wq[:, None] * w.normal_deriv)
        muv = w.trace.T @ (wq[:, None] * w.trace)
        builder.add_block(w.edge_dofs, w.cell_dofs, -cross)
        builder.add_block(w.cell_dofs, w.edge_dofs, -cross.T)
        builder.add_block(w.edge_dofs, w.edge_dofs, scale * (0.5 * (muv + muv.T)))
        gh = w.psi @ np.linalg.solve(w.mass, w.psi.T @ (wq * np.asarray(g(w.data_points))))
        rhs[w.edge_dofs] += scale * (w.trace.T @ (wq * gh))
        rhs[w.cell_dofs] -= w.normal_deriv.T @ (wq * gh)
        if w.correction is not None:
            builder.add_block(w.cell_dofs, w.cell_dofs,
                              -(w.normal_deriv.T @ (wq[:, None] * w.correction)))
            builder.add_block(w.edge_dofs, w.cell_dofs,
                              scale * (w.trace.T @ (wq[:, None] * w.correction)))
    return LinearSystem(builder.compress(), rhs)


def ref_recover(u, works, m, gamma, g):
    out = np.zeros((len(works), m))
    for j, w in enumerate(works):
        wq, uloc = w.weights, u[w.cell_dofs]
        resid = w.trace @ u[w.edge_dofs] - np.asarray(g(w.data_points), dtype=float)
        if w.correction is not None:
            resid = resid + w.correction @ uloc
        rhsv = (gamma / w.htilde) * (w.psi.T @ (wq * resid))
        out[j] = np.linalg.solve(w.mass, rhsv - w.psi.T @ (wq * (w.normal_deriv @ uloc)))
    return out.ravel()


def ref_multiplier_error(mesh, works, coeffs, grad):
    blocks, total = coeffs.reshape(len(works), -1), 0.0
    for j, w in enumerate(works):
        vals = w.psi @ blocks[j] - (-(grad(w.points) @ mesh.edge_normals[w.edge]))
        total += w.htilde * float(w.weights @ vals**2)
    return float(np.sqrt(total))


# ---------------------------------------------------------------- cases


def f(p):
    return np.sin(2.0 * p[:, 0]) * np.cos(p[:, 1]) + p[:, 0] * p[:, 1]


def grad(p):
    return np.column_stack([np.cos(3.0 * p[:, 0]) + p[:, 1], p[:, 0] - np.sin(p[:, 1])])


def _case(name):
    """(mesh, level set or None, k, k', kstar or None, sigma strategy)."""
    kind, *args = name.split("-")
    if kind == "voronoi":
        seeds, seed, k, off = map(int, args)
        return build_voronoi_mesh(None, seeds, lloyd_iters=2, rng_seed=seed), None, k, k - off, None, None
    if kind == "squares":
        (k,) = map(int, args)
        ls = quarter_disk()
        return build_squares_approx_mesh(ls, 4, 1), ls, k, k, k, "distance_gradient"
    kstar, sigma = int(args[0]), ("edge_normal", "distance_gradient")[int(args[0]) % 2]
    return build_disk_approx_mesh(circle(), 24, 3), circle(), 3, 3, kstar, sigma


CASES = (["squares-2", "squares-3"]
         + [f"voronoi-48-{k}-{k}-{off}" for k in (1, 2, 3, 4) for off in (0, 1)]
         + ["voronoi-256-7-2-0"]  # an edge length whose array square rounds differently
         + [f"disk-{kstar}" for kstar in range(4)])


def _equal(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("name", CASES)
def test_table_and_consumers_match_per_edge_reference(name):
    mesh, ls, k, kp, kstar, sigma = _case(name)
    els, per_cell = build_all_elements(mesh, k), cell_elements(mesh, k)
    dofmap, mult = els.dofmap, MultiplierSpace.create(mesh, kp)
    bh = WeakBcConfig(method="barbosa_hughes", k=k, kprime=kp, alpha=1e-3)
    nit = WeakBcConfig(method="nitsche", k=k, gamma=1e3)
    table = edge_workspaces(mesh, els, mult, bh.resolved_edge_exactness)
    works = ref_workspaces(mesh, per_cell, dofmap, kp, bh.resolved_edge_exactness)
    if ls is not None:
        ccfg = CorrectionConfig(kstar=kstar, sigma_strategy=sigma)
        table = correction_data(mesh, els, mult, ls, bh, ccfg, table=table)
        works = ref_correct(mesh, per_cell, works, ls, ccfg)

    # the table
    assert _equal(table.edge, mesh.boundary_edges)
    for field in ("cell", "htilde", "points", "weights", "data_points", "edge_dofs",
                  "trace", "psi", "mass"):
        want = np.array([getattr(w, field) for w in works])
        assert _equal(getattr(table, field), want), field
    rows = np.concatenate([b.rows for b in table.batches])
    assert np.array_equal(np.sort(rows), np.arange(len(works)))
    assert (all(b.correction is None for b in table.batches)
            == all(w.correction is None for w in works))
    for b in table.batches:
        for field, got in (("cell_dofs", b.cell_dofs), ("normal_deriv", b.normal_deriv),
                           ("correction", b.correction)):
            if got is not None:
                want = np.stack([getattr(works[j], field) for j in b.rows])
                assert _equal(got, want), field

    # both assemblies, the recovery and the multiplier error
    systems = [(assemble_bh(mesh, els, mult, bh, f, f, table=table),
                ref_bh(els, kp + 1, works, bh.alpha, f, f))]
    if kp == k:
        systems.append((assemble_nitsche(mesh, els, nit, f, f, table=table),
                        ref_nitsche(els, works, nit.gamma, f, f)))
    for got, want in systems:
        for part in ("data", "indices", "indptr"):
            assert _equal(getattr(got.matrix, part), getattr(want.matrix, part)), part
        assert _equal(got.rhs, want.rhs)
    rng = np.random.default_rng(len(name))
    u = rng.standard_normal(dofmap.n_dofs)
    # the recovery checks k' against its config: bh has k' and the same gamma
    assert bh.gamma == nit.gamma
    assert _equal(recover_multiplier(u, mesh, els, bh, f, mult=mult, table=table),
                  ref_recover(u, works, kp + 1, nit.gamma, f))
    lam = rng.standard_normal(mult.dim)
    assert (multiplier_error(mesh, els, mult, lam, grad, bh.resolved_edge_exactness, table)
            == ref_multiplier_error(mesh, works, lam, grad))


@pytest.mark.parametrize("make", [
    lambda: build_voronoi_mesh(None, 1024, lloyd_iters=2, rng_seed=0),
    lambda: build_squares_approx_mesh(quarter_disk(), 16, 2),
    lambda: build_disk_approx_mesh(circle(), 48, 8),
], ids=["voronoi", "squares", "disk"])
def test_edge_batches_are_the_cell_batches_rows(make):
    # the edge batches partition the table, each holds the edges of one
    # CellBatch's cells, and its `cell_dofs` are those cells' DOFs
    mesh, k = make(), 2
    els = build_all_elements(mesh, k)
    table = edge_workspaces(mesh, els, MultiplierSpace.create(mesh, k), 2 * k + 2)
    rows = np.concatenate([b.rows for b in table.batches])
    assert np.array_equal(np.sort(rows), np.arange(len(table.edge)))
    owners = [np.unique(els.batch_of[table.cell[b.rows]]) for b in table.batches]
    assert all(len(owner) == 1 for owner in owners)
    assert len(np.unique(np.concatenate(owners))) == len(owners)
    for b, (owner,) in zip(table.batches, owners):
        cb, r = els.batches[owner], els.row_of[table.cell[b.rows]]
        assert _equal(b.cell_dofs, els.dofmap.batch_dofs(cb.cells[r]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stacked_lagrange_matches_per_point_loop(k):
    # edge Gauss points never land on the Lobatto nodes, so only a direct
    # call reaches the on-node branch
    nodes, _ = gauss_lobatto(k + 1)
    rng = np.random.default_rng(k)
    x = np.concatenate([nodes, rng.uniform(-1.0, 1.0, 17), nodes + 5e-15, nodes + 1e-13])
    x = np.stack([rng.permutation(x), rng.permutation(x)])
    got = lagrange_eval_matrix(nodes, x)
    assert got.shape == x.shape + (k + 1,)
    for row, xs in zip(got, x):
        assert _equal(row, ref_lagrange(nodes, xs))
    assert np.sum(np.all(np.isin(got, (0.0, 1.0)), axis=-1)) == 4 * (k + 1)  # on a node
