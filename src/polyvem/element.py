"""Virtual elements of order k for the Laplacian, a level's cells at a time.

Degrees of freedom: vertex values in loop order, then the k-1 interior
Gauss-Lobatto point values of each edge in loop order, then area-normalized
moments against the scaled monomials of degree <= k-2 (orthonormalized in the
area-weighted product from k = 3, where the raw-monomial duals are too badly
scaled for the diagonal stabilization).

An element carries the energy projector onto P_k (computed from the weak
integration-by-parts identity, with the constant mode fixed by the boundary
mean), the consistency stiffness, and a stabilization acting on the
projector-free part of the degrees of freedom (plain or diagonally weighted
euclidean product).  A level's elements are one `CellTable`: its cells in
batches of one vertex count and quadrature size, every field stacked over a
batch.  Every stacked call makes, cell by cell, the floating-point operations
of a one-cell build, so a cell's data do not depend on its batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import (
    cell_basis_dim,
    monomial_exponents,
    monomial_gradients,
    monomial_values,
    scaled_powers,
)
from .mesh import PolygonalMesh, cell_quadratures, check_number
from .quadrature import gauss_lobatto

__all__ = [
    "CellBatch",
    "CellTable",
    "GlobalDofMap",
    "build_all_elements",
    "error_integrals",
    "interpolate_all",
    "load_vectors",
    "project_gradients_l2",
    "lagrange_eval_matrix",
]

STABILIZATIONS = ("euclidean", "d_recipe")


@dataclass(frozen=True)
class CellBatch:
    """The elements of cells of one vertex count and quadrature size, each
    field stacked along the first axis."""

    cells: np.ndarray          # (nb,) cell ids
    points: np.ndarray         # (nb, nq, 2) quadrature points, exact to degree 2k + 2
    weights: np.ndarray        # (nb, nq)
    point_coords: np.ndarray   # (nb, nv k, 2) vertices, then edge-interior GL nodes
    center: np.ndarray         # (nb, 2) centroids
    diameter: np.ndarray       # (nb,)
    area: np.ndarray           # (nb,)
    coef: np.ndarray           # (nb, dim P_k, dim P_k) cell basis in raw scaled monomials
    pinabla: np.ndarray        # (nb, dim P_k, n_dofs) DOFs -> P_k coefficients
    stiffness: np.ndarray      # (nb, n_dofs, n_dofs) consistency plus stabilization
    boundary_mean: np.ndarray  # (nb, n_dofs) row of |dK|^-1 int_dK phi_i
    moment_coef: np.ndarray | None    # (nb, m, m) moment weights in raw P_{k-2}; None at k = 1
    moment_to_raw: np.ndarray | None  # (nb, m, m) family moments -> raw monomial moments


@dataclass(frozen=True)
class CellTable:
    """A level's elements of order k: one `CellBatch` per run of cells of one
    vertex count and quadrature size, the level's DOF map, and each cell's
    batch and row."""

    k: int
    batches: tuple
    dofmap: GlobalDofMap
    batch_of: np.ndarray = field(init=False, repr=False)  # (n_cells,)
    row_of: np.ndarray = field(init=False, repr=False)    # (n_cells,)

    def __post_init__(self):
        n = sum(len(b.cells) for b in self.batches)
        batch_of, row_of = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        for i, b in enumerate(self.batches):
            batch_of[b.cells], row_of[b.cells] = i, np.arange(len(b.cells))
        object.__setattr__(self, "batch_of", batch_of)
        object.__setattr__(self, "row_of", row_of)


def lagrange_eval_matrix(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix L with L[..., i, j] = ell_j(x[..., i]) for the Lagrange basis on
    `nodes`; a point within 1e-14 of a node gets that node's unit row."""
    nodes = np.asarray(nodes, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(nodes)
    # barycentric weights
    w = np.ones(n)
    for j in range(n):
        for m in range(n):
            if m != j:
                w[j] /= nodes[j] - nodes[m]
    diff = x[..., None] - nodes
    hit = np.abs(diff) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = w / diff
        out = terms / np.sum(terms, axis=-1, keepdims=True)
    on_node = np.any(hit, axis=-1)
    out[on_node] = np.eye(n)[np.argmax(hit[on_node], axis=-1)]
    return out


class GlobalDofMap:
    """Global numbering: mesh vertices, then k-1 DOFs per edge (ordered from
    the lower to the higher vertex index), then moments cell by cell.

    Every cell is numbered at construction, in one pass over the half-edges.
    `dofs` (read-only) lists the cells' DOFs cell after cell, cell c's run
    being dofs[offsets[c]:offsets[c + 1]].
    """

    def __init__(self, mesh: PolygonalMesh, k: int):
        check_number("k", k, 1, integer=True)
        self.k = k
        n_mom = cell_basis_dim(k - 2) if k >= 2 else 0
        nv = np.fromiter(map(len, mesh.cells), dtype=np.int64, count=mesh.n_cells)
        self.offsets = np.concatenate(([0], np.cumsum(nv * k + n_mom)))
        moment_base = mesh.n_vertices + mesh.n_edges * (k - 1)
        self.n_dofs = moment_base + mesh.n_cells * n_mom

        # half-edge i of cell c: its tail's DOF at offsets[c] + i, its edge's
        # k-1 interior DOFs at offsets[c] + nv[c] + i (k-1), running from the
        # edge's lower vertex (edges store it first) to the other one
        cell = np.repeat(np.arange(mesh.n_cells), nv)
        local = np.arange(len(cell)) - (np.cumsum(nv) - nv)[cell]
        tails, edge = np.concatenate(mesh.cells), np.concatenate(mesh.cell_edge_ids)
        forward = (tails == mesh.edges[edge, 0])[:, None]
        j = np.arange(k - 1)
        dofs = np.empty(self.offsets[-1], dtype=np.int64)
        dofs[self.offsets[cell] + local] = tails
        dofs[(self.offsets[cell] + nv[cell] + local * (k - 1))[:, None] + j] = (
            mesh.n_vertices + edge[:, None] * (k - 1) + np.where(forward, j, k - 2 - j))
        dofs[(self.offsets[:-1] + nv * k)[:, None] + np.arange(n_mom)] = (
            moment_base + np.arange(mesh.n_cells * n_mom).reshape(mesh.n_cells, n_mom))
        dofs.setflags(write=False)
        self.dofs = dofs

    def batch_dofs(self, cells: np.ndarray) -> np.ndarray:
        """Global DOFs (nb, n) of cells (nb,) of one DOF count n, in local order."""
        n = self.offsets[cells[0] + 1] - self.offsets[cells[0]]
        return self.dofs[self.offsets[cells, None] + np.arange(n)]


def build_all_elements(mesh: PolygonalMesh, k: int, stab: str = "d_recipe") -> CellTable:
    """The order-k elements of every cell, as one table.

    stab: 'euclidean' (identity on the DOF product) or 'd_recipe' (diagonal
    weights max(diag(K_c), trace(K_c)/n_dofs)).  The cell basis is
    orthonormalized for k >= 3.
    """
    # the map first: built after the cell rules, its temporaries left the
    # heap about 25 MiB larger going into the finest voronoi-k4 LU factor
    dofmap = GlobalDofMap(mesh, k)
    return CellTable(k, tuple(batch for batch, _ in _build_batches(mesh, k, stab)), dofmap)


def _T(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _T(a))


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # stacked matrix-vector products, each the BLAS call of `a[i] @ x[i]`
    return (a @ x[..., None])[..., 0]


def _build_batches(mesh: PolygonalMesh, k: int, stab: str):
    """Each batch of the table, with the arrays of its build that only tests
    read: `consistency`, `stability`, the basis gradient Gram `stiff_gram`
    and `dof_of_poly`, the DOFs of each basis polynomial."""
    if stab not in STABILIZATIONS:
        raise ValueError(f"unknown stabilization {stab!r}")
    return (_build_batch(cells, points, weights, mesh, k, stab)
            for cells, points, weights in cell_quadratures(mesh, 2 * k + 2))


def _by_cell(func, cells: np.ndarray, what: str, *stacks):
    """func(*stacks); when that raises LinAlgError, the error of the first
    cell whose one-cell call raises, named by `what` and the cell."""
    try:
        return func(*stacks)
    except np.linalg.LinAlgError:
        for j, c in enumerate(cells):
            try:
                func(*(s[j] for s in stacks))
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(f"{what} on cell {c}") from exc
        raise


def _build_batch(cells: np.ndarray, points: np.ndarray, weights: np.ndarray,
                 mesh: PolygonalMesh, k: int, stab: str):
    """The batch of cells of one vertex count with quadrature points (nb, nq,
    2) and weights (nb, nq), and its test-only arrays."""
    nb = len(cells)
    verts = mesh.vertices[[mesh.cells[c] for c in cells]]
    nv = verts.shape[1]
    xK, hK, area = mesh.cell_centroids[cells], mesh.cell_diameters[cells], mesh.cell_areas[cells]
    wq = weights[..., None]
    npoly = cell_basis_dim(k)
    eye = np.broadcast_to(np.eye(npoly), (nb, npoly, npoly))

    px, py = scaled_powers(points, xK, hK, k)
    raw_q = monomial_values(px, py, k)
    coef = eye
    if k >= 3:
        vals = raw_q @ eye
        chol = _by_cell(np.linalg.cholesky, cells, "Gram matrix numerically singular",
                        _sym(_T(vals) @ (wq * vals)))
        coef = _T(np.linalg.solve(chol, eye))
    vals_q = raw_q @ coef
    gx, gy = monomial_gradients(px, py, k, hK)
    gx, gy = gx @ coef, gy @ coef
    stiff_gram = _sym(_T(gx) @ (wq * gx) + _T(gy) @ (wq * gy))

    edge_len, edge_nrm, gl_nodes, gl_w = _edge_nodes(verts, k)
    perimeter = np.sum(edge_len, axis=1)
    n_point, n_mom = nv * k, cell_basis_dim(k - 2) if k >= 2 else 0
    n_dofs = n_point + n_mom
    point_coords = np.concatenate([verts, gl_nodes[:, :, 1:-1].reshape(nb, -1, 2)], axis=1)

    # D: DOFs of each basis polynomial.  Moment DOFs weigh against the raw
    # scaled monomials up to k = 2; from k = 3 the raw duals carry energies
    # (near 1e5 at k = 4) that a diagonal stabilization amplifies into
    # stalled rates, so the weight family is orthonormalized in the
    # area-normalized L2 product (its first member stays exactly 1).
    D = np.zeros((nb, n_dofs, npoly))
    D[:, :n_point] = monomial_values(*scaled_powers(point_coords, xK, hK, k), k) @ coef
    B = np.zeros((nb, npoly, n_dofs))  # right sides of the projector system
    fam_coef = moment_to_raw = None
    if k >= 2:
        raw_m = raw_q[..., :n_mom]  # the degree k-2 monomials lead the graded order
        fam_coef = np.broadcast_to(np.eye(n_mom), (nb, n_mom, n_mom))
        if k >= 3:
            raw_vals = raw_m @ fam_coef
            gram_n = _T(raw_vals) @ (wq * raw_vals) / area[:, None, None]
            fam_coef = _T(np.linalg.solve(np.linalg.cholesky(_sym(gram_n)), fam_coef))
        D[:, n_point:] = _T(raw_m @ fam_coef) @ (wq * vals_q) / area[:, None, None]
        moment_to_raw = _T(np.linalg.inv(fam_coef))
        lap = np.zeros((nb, n_mom, npoly))  # raw Laplacian, P_k -> P_{k-2}
        row = {e: i for i, e in enumerate(monomial_exponents(k - 2))}
        h2 = np.array([float(h) ** 2 for h in hK])  # C pow: h * h may round differently
        for j, (a1, a2) in enumerate(monomial_exponents(k)):
            if a1 >= 2:
                lap[:, row[(a1 - 2, a2)], j] += a1 * (a1 - 1) / h2
            if a2 >= 2:
                lap[:, row[(a1, a2 - 2)], j] += a2 * (a2 - 1) / h2
        lap_fam = np.linalg.solve(fam_coef, lap @ coef)
        B[:, :, n_point:] -= area[:, None, None] * _T(lap_fam)

    gpx, gpy = scaled_powers(gl_nodes, xK[:, None], hK[:, None], k)
    ngx, ngy = monomial_gradients(gpx, gpy, k, hK[:, None])
    dn = (edge_nrm[..., 0, None, None] * (ngx @ coef[:, None])
          + edge_nrm[..., 1, None, None] * (ngy @ coef[:, None]))  # (nb, nv, k+1, npoly)
    contrib = np.moveaxis(gl_w[..., None] * dn, -1, 1)
    share = gl_w / perimeter[:, None, None]
    # a vertex takes one term from each adjacent edge; two terms sum alike
    # in either order, so the first k nodes of every edge go in first
    pdofs = _edge_point_dofs(nv, k)
    bmean = np.zeros((nb, n_dofs))
    for part in (slice(0, k), k):
        B[:, :, pdofs[:, part]] += contrib[..., part]
        bmean[:, pdofs[:, part]] += share[..., part]
    B[:, 0, :] = bmean  # row 0 fixes the boundary mean

    G = stiff_gram.copy()
    bvals = (monomial_values(gpx, gpy, k) @ coef[:, None]) * gl_w[..., None]
    G[:, 0, :] = np.sum(bvals.reshape(nb, -1, npoly), axis=1) / perimeter[:, None]
    pinabla = _by_cell(np.linalg.solve, cells, "projector system singular", G, B)

    consistency = _sym(_T(pinabla) @ stiff_gram @ pinabla)
    resid = np.eye(n_dofs) - D @ pinabla
    if stab == "euclidean":
        scale = np.ones((nb, n_dofs))
    else:
        floor = np.trace(consistency, axis1=1, axis2=2) / n_dofs
        scale = np.maximum(np.diagonal(consistency, axis1=1, axis2=2), floor[:, None])
    stability = _sym(_T(resid) @ (scale[..., None] * resid))
    batch = CellBatch(
        cells=cells, points=points, weights=weights, point_coords=point_coords,
        center=xK, diameter=hK, area=area, coef=np.ascontiguousarray(coef), pinabla=pinabla,
        stiffness=consistency + stability, boundary_mean=bmean,
        moment_coef=None if k < 2 else np.ascontiguousarray(fam_coef),
        moment_to_raw=moment_to_raw)
    return batch, dict(consistency=consistency, stability=stability, stiff_gram=stiff_gram,
                       dof_of_poly=D)


def _edge_point_dofs(nv: int, k: int) -> np.ndarray:
    """Local DOFs (nv, k + 1) of the GL values along each edge, in traversal
    order: vertex i, the edge's interior nodes, vertex i + 1."""
    i = np.arange(nv)[:, None]
    return np.concatenate([i, nv + i * (k - 1) + np.arange(k - 1), (i + 1) % nv], axis=1)


def _edge_nodes(verts: np.ndarray, k: int):
    """Edge lengths and outward normals (nb, nv), the k + 1 Gauss-Lobatto
    nodes of every edge (nb, nv, k + 1, 2) and their weights."""
    glx, glw = gauss_lobatto(k + 1)
    ends = np.roll(verts, -1, axis=1)
    d = ends - verts
    edge_len = np.hypot(d[..., 0], d[..., 1])
    edge_nrm = np.stack([d[..., 1], -d[..., 0]], axis=-1) / edge_len[..., None]
    gl_nodes = (0.5 * (verts + ends))[..., None, :] + 0.5 * glx[:, None] * d[..., None, :]
    return edge_len, edge_nrm, gl_nodes, 0.5 * edge_len[..., None] * glw


def _raw(b: CellBatch, degree: int) -> np.ndarray:
    """Raw scaled monomials of the given degree at a batch's quadrature points."""
    return monomial_values(*scaled_powers(b.points, b.center, b.diameter, degree), degree)


def _field(func, b: CellBatch, shape) -> np.ndarray:
    # a pointwise field at the quadrature points of a batch, in one call
    return np.asarray(func(b.points.reshape(-1, 2)), dtype=float).reshape(shape)


def interpolate_all(table: CellTable, u) -> list:
    """DOF vectors (nb, n_dofs) of the interpolant of a scalar field u
    (callable on (n, 2)), one array per batch."""
    return [_interpolate_batch(b, table.k, u) for b in table.batches]


def _interpolate_batch(b: CellBatch, k: int, u) -> np.ndarray:
    nb, n_point = b.point_coords.shape[:2]
    dofs = np.zeros(b.boundary_mean.shape)
    dofs[:, :n_point] = np.asarray(u(b.point_coords.reshape(-1, 2)), dtype=float).reshape(nb, -1)
    if k >= 2:
        fam = _raw(b, k - 2) @ b.moment_coef
        dofs[:, n_point:] = _mv(_T(fam), b.weights * _field(u, b, b.weights.shape)) / b.area[:, None]
    return dofs


def load_vectors(table: CellTable, f) -> list:
    """Computable source functionals approximating v -> int_K f v, one
    (nb, n_dofs) array per batch.

    k = 1: (int_K f) times the boundary mean of v.  k >= 2: the moment
    projection of f tested against v plus an energy-projection correction,

        int_K f Pi-nabla(v) + int_K Pi0_{k-2}(f) (v - Pi-nabla(v)),

    which is exact whenever f has degree <= k - 2 (so polynomial patch
    solutions are reproduced) and whose consistency error pairs one order
    better than the plain moment load, keeping the L2 rate at k + 1 for
    every k.
    """
    return [_load_batch(b, table.k, f) for b in table.batches]


def _load_batch(b: CellBatch, k: int, f) -> np.ndarray:
    wq = b.weights
    fv = _field(f, b, wq.shape)
    if k == 1:
        return (wq[:, None, :] @ fv[:, :, None])[:, 0] * b.boundary_mean
    n_mom = cell_basis_dim(k - 2)
    raw = _raw(b, k)
    raw_vals = raw[..., :n_mom] @ np.eye(n_mom)
    gram = _T(raw_vals) @ (wq[..., None] * raw_vals)
    cf = np.linalg.solve(_sym(gram), _mv(_T(raw_vals), wq * fv)[..., None])[..., 0]
    pf = _mv(raw_vals, cf)  # Pi0_{k-2} f at the quadrature points
    out = _mv(_T(b.pinabla), _mv(_T(raw @ b.coef), wq * (fv - pf)))
    out[:, b.point_coords.shape[1]:] += b.area[:, None] * _mv(_T(b.moment_to_raw), cf)
    return out


def project_gradients_l2(table: CellTable, local: list) -> list:
    """Componentwise L2 projections of the gradient onto P_{k-1}, computable
    from the DOFs by integration by parts: for the local DOF vectors
    local[i] (nb, n_dofs) of batch i, coefficients (nb, 2, dim P_{k-1}) in
    the raw scaled monomials."""
    return [_gradient_batch(b, table.k, u, _raw(b, table.k))[0] for b, u in zip(table.batches, local)]


def _gradient_batch(b: CellBatch, k: int, u: np.ndarray, raw: np.ndarray):
    # coefficients and the raw P_{k-1} monomials at the quadrature points,
    # which lead the graded order of the degree-k table raw
    n_point, n_out = b.point_coords.shape[1], cell_basis_dim(k - 1)
    vals = raw[..., :n_out] @ np.eye(n_out)
    nv, h = n_point // k, b.diameter
    gram = _sym(_T(vals) @ (b.weights[..., None] * vals))

    # moment part: int_K v dc(m_beta), with dc(m_beta) in raw P_{k-2}
    rhs = np.zeros((len(b.cells), 2, n_out))
    if k >= 2:
        mom = _mv(b.moment_to_raw, u[:, n_point:])
        index = {e: i for i, e in enumerate(monomial_exponents(k - 2))}
        for bi, (a1, a2) in enumerate(monomial_exponents(k - 1)):
            if a1 > 0:
                rhs[:, 0, bi] -= b.area * (a1 / h) * mom[:, index[(a1 - 1, a2)]]
            if a2 > 0:
                rhs[:, 1, bi] -= b.area * (a2 / h) * mom[:, index[(a1, a2 - 1)]]

    # boundary part via the GL point values
    _, nrm, nodes, w = _edge_nodes(b.point_coords[:, :nv], k)
    mvals = monomial_values(*scaled_powers(nodes, b.center[:, None], h[:, None], k - 1), k - 1)
    contrib = _mv(_T(mvals @ np.eye(n_out)), w * u[:, _edge_point_dofs(nv, k)])  # (nb, nv, n_out)
    for i in range(nv):
        rhs[:, 0] += nrm[:, i, 0, None] * contrib[:, i]
        rhs[:, 1] += nrm[:, i, 1, None] * contrib[:, i]
    return _T(np.linalg.solve(gram, _T(rhs))), vals


def error_integrals(table: CellTable, local: list, exact_u, exact_grad) -> np.ndarray:
    """Integrals of |grad u - G v|^2, |grad u|^2, |u - P v|^2 and |u|^2 over
    each cell, shape (n_cells, 4) in cell order, for the local DOF vectors
    local[i] (nb, n_dofs) of batch i; G is the L2-projected gradient and P
    the energy projection."""
    k = table.k
    out = np.empty((len(table.batch_of), 4))
    for b, u in zip(table.batches, local):
        raw = _raw(b, k)
        co, vals = _gradient_batch(b, k, u, raw)
        co = np.ascontiguousarray(co)[..., None]
        gh = np.concatenate([vals @ co[:, 0], vals @ co[:, 1]], axis=-1)
        ge = _field(exact_grad, b, gh.shape)
        ue = _field(exact_u, b, b.weights.shape + (1,))
        uh = (raw @ b.coef) @ (b.pinabla @ u[..., None])
        wq = b.weights[:, None, :]
        out[b.cells] = np.concatenate([
            wq @ np.sum((ge - gh) ** 2, axis=-1, keepdims=True),
            wq @ np.sum(ge**2, axis=-1, keepdims=True),
            wq @ (ue - uh) ** 2,
            wq @ ue**2,
        ], axis=-1)[:, 0]
    return out
