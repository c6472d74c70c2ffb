"""Per-cell virtual element of order k for the Laplacian.

Degrees of freedom: vertex values in loop order, then the k-1 interior
Gauss-Lobatto point values of each edge in loop order, then area-normalized
moments against the scaled monomials of degree <= k-2 (orthonormalized in the
area-weighted product at k = 4, where the raw-monomial duals are too badly
scaled for the stabilization tolerances).

The element carries the energy projector onto P_k (computed from the weak
integration-by-parts identity, with the constant mode fixed by the boundary
mean), the consistency stiffness, and a stabilization acting on the
projector-free part of the degrees of freedom (plain or diagonally weighted
euclidean product).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    CellPolyBasis,
    cell_basis_dim,
    monomial_exponents,
    monomial_gradients,
    monomial_values,
    orthonormalize,
    scaled_powers,
)
from .mesh import PolygonalMesh, cell_quadratures
from .quadrature import QuadratureRule, gauss_lobatto, map_batches

__all__ = [
    "DofLayout",
    "LocalVemElement",
    "GlobalDofMap",
    "build_element",
    "build_all_elements",
    "error_integrals",
    "map_element_batches",
    "interpolate",
    "interpolate_all",
    "load_vector",
    "load_vectors",
    "project_gradient_l2",
    "project_gradients_l2",
    "lagrange_eval_matrix",
]

STABILIZATIONS = ("euclidean", "d_recipe")


@dataclass(frozen=True)
class DofLayout:
    """Deterministic per-cell DOF ordering."""

    k: int
    n_vertices: int
    point_coords: np.ndarray  # vertex coords then edge-interior GL nodes
    moment_exponents: list

    @property
    def n_point(self) -> int:
        return self.n_vertices * self.k

    @property
    def n_moment(self) -> int:
        return len(self.moment_exponents)

    @property
    def n_dofs(self) -> int:
        return self.n_point + self.n_moment

    def edge_point_dofs(self, local_edge: int) -> list:
        """Local indices of the k+1 GL values along local edge i, in traversal
        order (vertex i, interior nodes, vertex i+1)."""
        nv, k = self.n_vertices, self.k
        out = [local_edge]
        out += [nv + local_edge * (k - 1) + j for j in range(k - 1)]
        out.append((local_edge + 1) % nv)
        return out


@dataclass(frozen=True)
class LocalVemElement:
    cell: int
    k: int
    layout: DofLayout
    basis: CellPolyBasis
    quad: QuadratureRule
    area: float
    diameter: float
    edge_lengths: np.ndarray
    edge_normals: np.ndarray  # outward, per local edge
    pinabla: np.ndarray       # (dim P_k, n_dofs): DOFs -> P_k coefficients
    dof_of_poly: np.ndarray   # (n_dofs, dim P_k): DOFs of basis polynomials
    stiff_gram: np.ndarray    # grad-grad Gram of the basis
    consistency: np.ndarray   # K_c
    stability: np.ndarray     # S
    stiffness: np.ndarray     # K_c + S
    boundary_mean: np.ndarray   # row of |dK|^-1 int_dK phi_i
    moment_family: CellPolyBasis | None  # weight functions of the moment DOFs
    moment_to_raw: np.ndarray | None     # family moments -> raw monomial moments

    @property
    def n_dofs(self) -> int:
        return self.layout.n_dofs


def lagrange_eval_matrix(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix L with L[i, j] = ell_j(x_i) for the Lagrange basis on `nodes`."""
    nodes = np.asarray(nodes, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(nodes)
    # barycentric weights
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


class GlobalDofMap:
    """Global numbering: mesh vertices, then k-1 DOFs per edge (ordered from
    the lower to the higher vertex index), then moments cell by cell.

    Every cell is numbered at construction, in one pass over the half-edges.
    `dofs` (read-only) lists the cells' DOFs cell after cell, cell c's run
    being dofs[offsets[c]:offsets[c + 1]].
    """

    def __init__(self, mesh: PolygonalMesh, k: int):
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

    def cell_dofs(self, cell: int) -> np.ndarray:
        return self.dofs[self.offsets[cell]:self.offsets[cell + 1]]

    def local_values(self, u: np.ndarray) -> list:
        """Each cell's local DOF values of the global vector u, in cell order."""
        return np.split(u[self.dofs], self.offsets[1:-1])


def build_element(mesh: PolygonalMesh, cell: int, k: int, stab: str = "d_recipe") -> LocalVemElement:
    """Construct the order-k element on one cell (a batch of one).

    stab: 'euclidean' (identity on the DOF product) or 'd_recipe' (diagonal
    weights max(diag(K_c), trace(K_c)/n_dofs)).  The cell basis is
    orthonormalized for k >= 3.
    """
    return _build_elements(mesh, [cell], k, stab)[0]


def build_all_elements(mesh: PolygonalMesh, k: int, stab: str = "d_recipe") -> list:
    """Elements of every cell, indexed by cell."""
    return _build_elements(mesh, range(mesh.n_cells), k, stab)


def map_element_batches(elements: list, items: list, kernel, *args) -> list:
    """`map_batches` over batches of elements of one order and cell shape;
    items[i] goes with elements[i]."""
    keys = [(el.k, el.layout.n_vertices, len(el.quad.weights)) for el in elements]
    return map_batches(keys, items, kernel, *args)


def _T(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _T(a))


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # stacked matrix-vector products, each the BLAS call of `a[i] @ x[i]`
    return (a @ x[..., None])[..., 0]


def _build_elements(mesh: PolygonalMesh, cells, k: int, stab: str) -> list:
    if k < 1:
        raise ValueError("order k must be >= 1")
    if stab not in STABILIZATIONS:
        raise ValueError(f"unknown stabilization {stab!r}")
    cells = list(cells)
    quads = cell_quadratures(mesh, cells, 2 * k + 2)
    keys = [(len(mesh.cells[c]), len(q.weights)) for c, q in zip(cells, quads)]
    return map_batches(keys, list(zip(cells, quads)), _build_batch, mesh, k, stab)


def _build_batch(items: list, mesh: PolygonalMesh, k: int, stab: str) -> list:
    """Elements of cells with one vertex count and quadrature size.

    Every stacked call makes, cell by cell, the floating-point operations of
    a one-cell build in the same order, so an element does not depend on
    the batch it was built in.
    """
    cells, quads = [c for c, _ in items], [q for _, q in items]
    nb = len(cells)
    verts = mesh.vertices[[mesh.cells[c] for c in cells]]
    nv = verts.shape[1]
    xK, hK, area = mesh.cell_centroids[cells], mesh.cell_diameters[cells], mesh.cell_areas[cells]
    wq = np.stack([q.weights for q in quads])[..., None]
    npoly = cell_basis_dim(k)
    eye = np.broadcast_to(np.eye(npoly), (nb, npoly, npoly))

    px, py = scaled_powers(np.stack([q.points for q in quads]), xK, hK, k)
    raw_q = monomial_values(px, py, k)
    coef = eye
    if k >= 3:
        vals = raw_q @ eye
        try:
            chol = np.linalg.cholesky(_sym(_T(vals) @ (wq * vals)))
        except np.linalg.LinAlgError:
            for j, c in enumerate(cells):  # the one-cell call names the cell
                orthonormalize(CellPolyBasis(k, xK[j], float(hK[j]), cell_index=c), quads[j])
            raise
        coef = _T(np.linalg.solve(chol, eye))
    vals_q = raw_q @ coef
    gx, gy = monomial_gradients(px, py, k, hK)
    gx, gy = gx @ coef, gy @ coef
    stiff_gram = _sym(_T(gx) @ (wq * gx) + _T(gy) @ (wq * gy))

    edge_len, edge_nrm, gl_nodes, gl_w = _edge_nodes(verts, k)
    perimeter = np.sum(edge_len, axis=1)
    layout = DofLayout(k, nv, None, monomial_exponents(k - 2) if k >= 2 else [])
    n_point, n_mom, n_dofs = layout.n_point, layout.n_moment, layout.n_dofs
    point_coords = np.concatenate([verts, gl_nodes[:, :, 1:-1].reshape(nb, -1, 2)], axis=1)

    # D: DOFs of each basis polynomial.  Moment DOFs weigh against the raw
    # scaled monomials up to k = 3; at k = 4 the raw duals carry energies
    # near 1e5, which a diagonal stabilization amplifies past the kernel
    # tolerances, so the weight family is orthonormalized in the
    # area-normalized L2 product (its first member stays exactly 1).
    D = np.zeros((nb, n_dofs, npoly))
    D[:, :n_point] = monomial_values(*scaled_powers(point_coords, xK, hK, k), k) @ coef
    B = np.zeros((nb, npoly, n_dofs))  # right sides of the projector system
    fam_coef = moment_to_raw = None
    if k >= 2:
        raw_m = raw_q[..., :n_mom]  # the degree k-2 monomials lead the graded order
        fam_coef = np.broadcast_to(np.eye(n_mom), (nb, n_mom, n_mom))
        if k >= 4:
            raw_vals = raw_m @ fam_coef
            gram_n = _T(raw_vals) @ (wq * raw_vals) / area[:, None, None]
            fam_coef = _T(np.linalg.solve(np.linalg.cholesky(_sym(gram_n)), fam_coef))
        D[:, n_point:] = _T(raw_m @ fam_coef) @ (wq * vals_q) / area[:, None, None]
        moment_to_raw = _T(np.linalg.inv(fam_coef))
        lap = np.zeros((nb, n_mom, npoly))  # raw Laplacian, P_k -> P_{k-2}
        row = {e: i for i, e in enumerate(layout.moment_exponents)}
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
    pdofs = np.array([layout.edge_point_dofs(i) for i in range(nv)])
    bmean = np.zeros((nb, n_dofs))
    for part in (slice(0, k), k):
        B[:, :, pdofs[:, part]] += contrib[..., part]
        bmean[:, pdofs[:, part]] += share[..., part]
    B[:, 0, :] = bmean  # row 0 fixes the boundary mean

    G = stiff_gram.copy()
    bvals = (monomial_values(gpx, gpy, k) @ coef[:, None]) * gl_w[..., None]
    G[:, 0, :] = np.sum(bvals.reshape(nb, -1, npoly), axis=1) / perimeter[:, None]
    try:
        pinabla = np.linalg.solve(G, B)
    except np.linalg.LinAlgError:
        for j, c in enumerate(cells):  # name the first singular cell
            try:
                np.linalg.solve(G[j], B[j])
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(f"projector system singular on cell {c}") from exc
        raise

    consistency = _sym(_T(pinabla) @ stiff_gram @ pinabla)
    resid = np.eye(n_dofs) - D @ pinabla
    if stab == "euclidean":
        weights = np.ones((nb, n_dofs))
    else:
        floor = np.trace(consistency, axis1=1, axis2=2) / n_dofs
        weights = np.maximum(np.diagonal(consistency, axis1=1, axis2=2), floor[:, None])
    stability = _sym(_T(resid) @ (weights[..., None] * resid))
    arrays = dict(edge_lengths=edge_len, edge_normals=edge_nrm, pinabla=pinabla, dof_of_poly=D,
                  stiff_gram=stiff_gram, consistency=consistency, stability=stability,
                  stiffness=consistency + stability, boundary_mean=bmean)

    out = []
    for j, c in enumerate(cells):
        h = float(hK[j])
        out.append(LocalVemElement(
            cell=c, k=k, layout=DofLayout(k, nv, point_coords[j], layout.moment_exponents),
            basis=CellPolyBasis(k, xK[j], h, coef=coef[j], cell_index=c),
            quad=quads[j], area=float(area[j]), diameter=h,
            moment_family=None if k < 2 else CellPolyBasis(k - 2, xK[j], h, coef=fam_coef[j]),
            moment_to_raw=None if k < 2 else moment_to_raw[j],
            **{name: a[j] for name, a in arrays.items()},
        ))
    return out


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


def _tables(els: list, degree: int):
    """Quadrature weights (nb, nq), centers, diameters and the raw scaled
    monomials of the given degree at the quadrature points of a batch."""
    qp = np.stack([el.quad.points for el in els])
    center = np.stack([el.basis.center for el in els])
    h = np.array([el.basis.diameter for el in els])
    raw = monomial_values(*scaled_powers(qp, center, h, degree), degree)
    return np.stack([el.quad.weights for el in els]), center, h, raw


def _field(func, els: list, shape) -> np.ndarray:
    # a pointwise field at the quadrature points of a batch, in one call
    pts = np.concatenate([el.quad.points for el in els])
    return np.asarray(func(pts), dtype=float).reshape(shape)


def interpolate(element: LocalVemElement, u) -> np.ndarray:
    """DOF vector of the interpolant of a scalar field (callable on (n, 2))."""
    return interpolate_all([element], u)[0]


def interpolate_all(elements: list, u) -> list:
    """`interpolate` on each element, evaluated in batches of one cell shape."""
    return map_element_batches(elements, elements, _interpolate_batch, u)


def _interpolate_batch(els: list, u) -> np.ndarray:
    lay = els[0].layout
    pts = np.concatenate([el.layout.point_coords for el in els])
    dofs = np.zeros((len(els), lay.n_dofs))
    dofs[:, :lay.n_point] = np.asarray(u(pts), dtype=float).reshape(len(els), -1)
    if lay.n_moment:
        wq, _, _, raw = _tables(els, els[0].k - 2)
        fam = raw @ np.stack([el.moment_family.coef for el in els])
        area = np.array([el.area for el in els])
        dofs[:, lay.n_point:] = _mv(_T(fam), wq * _field(u, els, wq.shape)) / area[:, None]
    return dofs


def load_vector(element: LocalVemElement, f) -> np.ndarray:
    """Computable source functional approximating v -> int_K f v.

    k = 1: (int_K f) times the boundary mean of v.  k >= 2: the moment
    projection of f tested against v plus an energy-projection correction,

        int_K f Pi-nabla(v) + int_K Pi0_{k-2}(f) (v - Pi-nabla(v)),

    which is exact whenever f has degree <= k - 2 (so polynomial patch
    solutions are reproduced) and whose consistency error pairs one order
    better than the plain moment load, keeping the L2 rate at k + 1 for
    every k.
    """
    return load_vectors([element], f)[0]


def load_vectors(elements: list, f) -> list:
    """`load_vector` of each element, evaluated in batches of one cell shape."""
    return map_element_batches(elements, elements, _load_batch, f)


def _load_batch(els: list, f) -> np.ndarray:
    k, lay = els[0].k, els[0].layout
    wq, _, _, raw = _tables(els, k)
    fv = _field(f, els, wq.shape)
    if k == 1:
        return (wq[:, None, :] @ fv[:, :, None])[:, 0] * np.stack([el.boundary_mean for el in els])
    raw_vals = raw[..., :lay.n_moment] @ np.eye(lay.n_moment)
    gram = _T(raw_vals) @ (wq[..., None] * raw_vals)
    cf = np.linalg.solve(_sym(gram), _mv(_T(raw_vals), wq * fv)[..., None])[..., 0]
    pf = _mv(raw_vals, cf)  # Pi0_{k-2} f at the quadrature points
    poly_vals = raw @ np.stack([el.basis.coef for el in els])
    pinabla = np.stack([el.pinabla for el in els])
    b = _mv(_T(pinabla), _mv(_T(poly_vals), wq * (fv - pf)))
    to_raw_t = np.stack([el.moment_to_raw.T for el in els])
    area = np.array([el.area for el in els])
    b[:, lay.n_point:] += area[:, None] * _mv(to_raw_t, cf)
    return b


def project_gradient_l2(element: LocalVemElement, dofs: np.ndarray) -> tuple[np.ndarray, CellPolyBasis]:
    """Componentwise L2 projection of the gradient onto P_{k-1}.

    Returns (coeffs, basis) with coeffs of shape (2, dim P_{k-1}) in the raw
    scaled-monomial basis; computable from the DOFs by integration by parts.
    """
    coeffs = project_gradients_l2([element], [dofs])[0]
    return coeffs, CellPolyBasis(element.k - 1, element.basis.center, element.basis.diameter)


def project_gradients_l2(elements: list, dofs: list) -> list:
    """`project_gradient_l2` coefficients for each element and its local DOF
    vector, evaluated in batches of one cell shape."""
    return map_element_batches(elements, list(zip(elements, dofs)), _gradient_batch)


def _gradient_batch(items: list) -> np.ndarray:
    els = [el for el, _ in items]
    u = np.stack([np.asarray(dofs, dtype=float) for _, dofs in items])
    k, lay = els[0].k, els[0].layout
    nv, n_out = lay.n_vertices, cell_basis_dim(k - 1)
    eye = np.eye(n_out)
    wq, center, h, raw = _tables(els, k - 1)
    vals = raw @ eye
    gram = _sym(_T(vals) @ (wq[..., None] * vals))

    # moment part: int_K v dc(m_beta), with dc(m_beta) in raw P_{k-2}
    rhs = np.zeros((len(els), 2, n_out))
    if k >= 2:
        mom = _mv(_T(np.stack([el.moment_to_raw.T for el in els])), u[:, lay.n_point:])
        area = np.array([el.area for el in els])
        index = {e: i for i, e in enumerate(lay.moment_exponents)}
        for bi, (a1, a2) in enumerate(monomial_exponents(k - 1)):
            if a1 > 0:
                rhs[:, 0, bi] -= area * (a1 / h) * mom[:, index[(a1 - 1, a2)]]
            if a2 > 0:
                rhs[:, 1, bi] -= area * (a2 / h) * mom[:, index[(a1, a2 - 1)]]

    # boundary part via the GL point values
    _, nrm, nodes, w = _edge_nodes(np.stack([el.layout.point_coords[:nv] for el in els]), k)
    pdofs = np.array([lay.edge_point_dofs(i) for i in range(nv)])
    mvals = monomial_values(*scaled_powers(nodes, center[:, None], h[:, None], k - 1), k - 1) @ eye
    contrib = _mv(_T(mvals), w * u[:, pdofs])  # (nb, nv, n_out)
    for i in range(nv):
        rhs[:, 0] += nrm[:, i, 0, None] * contrib[:, i]
        rhs[:, 1] += nrm[:, i, 1, None] * contrib[:, i]
    return _T(np.linalg.solve(gram, _T(rhs)))


def error_integrals(elements: list, dofs: list, exact_u, exact_grad) -> np.ndarray:
    """Integrals of |grad u - G v|^2, |grad u|^2, |u - P v|^2 and |u|^2 over
    each element for its local DOF vector v, shape (len(elements), 4), with
    G the L2-projected gradient and P the energy projection; evaluated in
    batches of one cell shape."""
    items = list(zip(elements, dofs, project_gradients_l2(elements, dofs)))
    return np.array(map_element_batches(elements, items, _error_batch, exact_u, exact_grad))


def _error_batch(items: list, exact_u, exact_grad) -> np.ndarray:
    els, dofs, coeffs = zip(*items)
    k = els[0].k
    wq, _, _, raw = _tables(els, k)
    vals = raw[..., :cell_basis_dim(k - 1)] @ np.eye(cell_basis_dim(k - 1))
    co = np.stack(coeffs)[..., None]
    gh = np.concatenate([vals @ co[:, 0], vals @ co[:, 1]], axis=-1)
    ge = _field(exact_grad, els, gh.shape)
    ue = _field(exact_u, els, wq.shape + (1,))
    pin_u = np.stack([el.pinabla for el in els]) @ np.stack(dofs)[..., None]
    uh = (raw @ np.stack([el.basis.coef for el in els])) @ pin_u
    wq = wq[:, None, :]
    return np.concatenate([
        wq @ np.sum((ge - gh) ** 2, axis=-1, keepdims=True),
        wq @ np.sum(ge**2, axis=-1, keepdims=True),
        wq @ (ue - uh) ** 2,
        wq @ ue**2,
    ], axis=-1)[:, 0]
