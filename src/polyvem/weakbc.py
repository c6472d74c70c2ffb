"""Weak imposition of Dirichlet data on polygonal domains.

Two equivalent formulations are assembled: the stabilized Lagrange-multiplier
saddle system (symmetric indefinite; multiplier = discontinuous edge
polynomials of degree k' in {k, k-1}, residual penalty weighted by the
adjacent-cell diameter), and the Nitsche system obtained from it by edge-local
static condensation with gamma = 1/alpha when k' = k.

Every edge integral of one assembly uses a single shared quadrature rule, so
the condensation identity holds at roundoff level.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import EdgePolyBasis
from .element import GlobalDofMap, lagrange_eval_matrix, load_vectors, map_element_batches
from .linsys import LinearSystem, SaddlePartition, TripletBuilder
from .mesh import PolygonalMesh
from .quadrature import gauss_lobatto, segment_rule

__all__ = [
    "WeakBcConfig",
    "MultiplierSpace",
    "BoundaryNorms",
    "assemble_bh",
    "assemble_nitsche",
    "recover_multiplier",
    "boundary_norms",
    "edge_workspaces",
]

METHODS = ("barbosa_hughes", "nitsche")


@dataclass(frozen=True)
class WeakBcConfig:
    """Parameters of the weak boundary-condition formulations.

    alpha is the multiplier-penalty parameter (small), gamma the Nitsche
    penalty (large); the two formulations coincide for gamma = 1/alpha and
    k' = k.  The edge scale htilde is always the diameter of the adjacent
    cell.
    """

    method: str = "nitsche"
    k: int = 1
    kprime: int | None = None
    alpha: float = 0.001
    gamma: float = 1000.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.k < 1:
            raise ValueError("order k must be >= 1")
        kp = self.resolved_kprime
        if kp not in (self.k, self.k - 1):
            raise ValueError("kprime must be k or k-1")
        if self.method == "nitsche" and kp != self.k:
            raise ValueError("the Nitsche formulation requires kprime = k")
        if self.alpha <= 0 or self.gamma <= 0:
            raise ValueError("alpha and gamma must be positive")
        if self.method == "barbosa_hughes" and self.alpha >= 0.25:
            warnings.warn(
                f"alpha = {self.alpha} is large; the multiplier penalty is only "
                "stable for small alpha", stacklevel=2,
            )
        if self.method == "nitsche" and self.gamma <= 4.0:
            warnings.warn(
                f"gamma = {self.gamma} is small; the penalty formulation is only "
                "stable for large gamma", stacklevel=2,
            )

    @property
    def resolved_kprime(self) -> int:
        return self.k if self.kprime is None else self.kprime

    @property
    def resolved_edge_exactness(self) -> int:
        return 2 * self.k + 2


@dataclass(frozen=True)
class MultiplierSpace:
    """Discontinuous edge polynomials of degree k' on the boundary edges; the
    k'+1 coefficients of edge workspace j start at j * (k'+1)."""

    kprime: int
    n_edges: int

    @classmethod
    def create(cls, mesh: PolygonalMesh, kprime: int) -> "MultiplierSpace":
        return cls(kprime, len(mesh.boundary_edges))

    @property
    def dim(self) -> int:
        return self.n_edges * (self.kprime + 1)


@dataclass(frozen=True)
class EdgeWork:
    """Precomputed quantities of one boundary edge shared by all assemblies
    and boundary norms; the workspaces of a corrected level come from
    `curved.correction_data`."""

    edge: int
    cell: int
    htilde: float
    points: np.ndarray
    weights: np.ndarray
    data_points: np.ndarray    # where the boundary datum g is sampled
    cell_dofs: np.ndarray      # global DOFs of the adjacent cell
    edge_dofs: np.ndarray      # global DOFs of the k+1 edge point values
    trace: np.ndarray          # (nq, k+1) values of v restricted to the edge
    normal_deriv: np.ndarray   # (nq, n_cell_dofs) of d_nu Pi-nabla
    psi: np.ndarray            # (nq, k'+1) multiplier basis values
    mass: np.ndarray           # multiplier mass matrix
    correction: np.ndarray | None  # (nq, n_cell_dofs) Taylor field, None when flat


def edge_workspaces(mesh: PolygonalMesh, elements: list, dofmap: GlobalDofMap,
                    mult: MultiplierSpace, exactness: int) -> list:
    """Per-boundary-edge quadrature data, in `mesh.boundary_edges` order."""
    k = dofmap.k
    glx, _ = gauss_lobatto(k + 1)
    works = []
    for e in mesh.boundary_edges:
        cell = mesh.boundary_edge_cell(e)
        el = elements[cell]
        local = mesh.cell_edges(cell).index(int(e))
        ends = mesh.vertices[mesh.edges[e]]
        rule = segment_rule(*ends, exactness)

        loop = mesh.cells[cell]
        va = mesh.vertices[loop[local]]
        vb = mesh.vertices[loop[(local + 1) % len(loop)]]
        mid = 0.5 * (va + vb)
        length = el.edge_lengths[local]
        t = 2.0 * ((rule.points - mid) @ (vb - va)) / length**2
        trace = lagrange_eval_matrix(glx, t)

        gx, gy = el.basis.eval_gradient(rule.points)
        nrm = el.edge_normals[local]
        normal_deriv = (nrm[0] * gx + nrm[1] * gy) @ el.pinabla

        psi = EdgePolyBasis.for_edge(*ends, mult.kprime).eval(rule.points)
        mass = psi.T @ (rule.weights[:, None] * psi)
        cell_dofs = dofmap.cell_dofs(cell)
        works.append(EdgeWork(
            edge=int(e),
            cell=cell,
            htilde=float(mesh.cell_diameters[cell]),
            points=rule.points,
            weights=rule.weights,
            data_points=rule.points,
            cell_dofs=cell_dofs,
            edge_dofs=cell_dofs[el.layout.edge_point_dofs(local)],
            trace=trace,
            normal_deriv=normal_deriv,
            psi=psi,
            mass=0.5 * (mass + mass.T),
            correction=None,
        ))
    return works


def _check_elements(elements: list, cfg: WeakBcConfig):
    for el in elements:
        if el.k != cfg.k:
            raise ValueError(
                f"element of cell {el.cell} has order {el.k}, config expects {cfg.k}"
            )


def _scatter_volume(builder: TripletBuilder, rhs: np.ndarray, elements, dofmap, f):
    """Add each batch's stacked stiffness in one block, then every load in
    one `np.add.at` over the cells' DOFs in cell order: each entry of rhs
    takes its additions in the order of a cell-by-cell loop."""
    def stiffness(els):
        gd = np.stack([dofmap.cell_dofs(el.cell) for el in els])
        builder.add_block(gd, gd, np.stack([el.stiffness for el in els]))
        return gd

    loads = load_vectors(elements, f)  # first: its batch temporaries then sit on no triplets
    dofs = map_element_batches(elements, elements, stiffness)
    np.add.at(rhs, np.concatenate(dofs), np.concatenate(loads))


def assemble_bh(mesh: PolygonalMesh, elements: list, mult: MultiplierSpace,
                cfg: WeakBcConfig, f, g, works: list | None = None) -> LinearSystem:
    """Assemble the stabilized-multiplier saddle system.

    Unknowns are (u, lambda); the multiplier couples through the boundary
    mass and the residual penalty -alpha * htilde * (lambda + dn u, mu + dn v).
    g is sampled at each workspace's `data_points`; a workspace's Taylor
    `correction` enters the multiplier-row coupling only, which makes the
    system non-symmetric.
    """
    _check_elements(elements, cfg)
    dofmap = GlobalDofMap(mesh, cfg.k)
    if works is None:
        works = edge_workspaces(mesh, elements, dofmap, mult, cfg.resolved_edge_exactness)
    nu = dofmap.n_dofs
    n = nu + mult.dim
    alpha = cfg.alpha
    builder = TripletBuilder(n)
    rhs = np.zeros(n)
    _scatter_volume(builder, rhs, elements, dofmap, f)

    m = mult.kprime + 1
    for j, w in enumerate(works):
        lam = nu + j * m + np.arange(m)
        ah = alpha * w.htilde
        wq = w.weights

        T = w.psi.T @ (wq[:, None] * w.trace)              # (m, k+1)
        N = w.psi.T @ (wq[:, None] * w.normal_deriv)       # (m, n_cell)
        pen = w.normal_deriv.T @ (wq[:, None] * w.normal_deriv)
        pen = 0.5 * (pen + pen.T)

        builder.add_block(w.cell_dofs, w.cell_dofs, -ah * pen)
        coupling_cols = T  # multiplier row: the same block enters transposed
        builder.add_block(lam, w.edge_dofs, coupling_cols)
        builder.add_block(w.edge_dofs, lam, coupling_cols.T)
        builder.add_block(lam, w.cell_dofs, -ah * N)
        builder.add_block(w.cell_dofs, lam, -ah * N.T)
        builder.add_block(lam, lam, -ah * w.mass)
        if w.correction is not None:
            builder.add_block(lam, w.cell_dofs, w.psi.T @ (wq[:, None] * w.correction))

        rhs[lam] += w.psi.T @ (wq * np.asarray(g(w.data_points), dtype=float))

    blocks = [(j * m, m) for j in range(len(works))]
    partition = SaddlePartition(n_primal=nu, blocks=blocks,
                                edge_ids=[w.edge for w in works])
    return LinearSystem(matrix=builder.compress(), rhs=rhs,
                        symmetric=all(w.correction is None for w in works), partition=partition)


def assemble_nitsche(mesh: PolygonalMesh, elements: list, cfg: WeakBcConfig, f, g,
                     works: list | None = None,
                     mult: MultiplierSpace | None = None) -> LinearSystem:
    """Assemble the penalty (Nitsche) system over the primal DOFs.

    The boundary data, sampled at each workspace's `data_points`, enters
    through its edgewise L2 projection onto the multiplier space, evaluated
    with the same quadrature as all other edge terms.  A workspace's Taylor
    `correction` is tested against dn v - gamma/htilde * v.
    """
    _check_elements(elements, cfg)
    dofmap = GlobalDofMap(mesh, cfg.k)
    if mult is None:
        mult = MultiplierSpace.create(mesh, cfg.resolved_kprime)
    if works is None:
        works = edge_workspaces(mesh, elements, dofmap, mult, cfg.resolved_edge_exactness)
    nu = dofmap.n_dofs
    gamma = cfg.gamma
    builder = TripletBuilder(nu)
    rhs = np.zeros(nu)
    _scatter_volume(builder, rhs, elements, dofmap, f)

    for w in works:
        wq = w.weights
        gh_scale = gamma / w.htilde

        cross = w.trace.T @ (wq[:, None] * w.normal_deriv)  # (k+1, n_cell)
        muv = w.trace.T @ (wq[:, None] * w.trace)
        muv = 0.5 * (muv + muv.T)
        builder.add_block(w.edge_dofs, w.cell_dofs, -cross)
        builder.add_block(w.cell_dofs, w.edge_dofs, -cross.T)
        builder.add_block(w.edge_dofs, w.edge_dofs, gh_scale * muv)

        gv = np.asarray(g(w.data_points), dtype=float)
        gh = w.psi @ np.linalg.solve(w.mass, w.psi.T @ (wq * gv))
        rhs[w.edge_dofs] += gh_scale * (w.trace.T @ (wq * gh))
        rhs[w.cell_dofs] -= w.normal_deriv.T @ (wq * gh)

        if w.correction is not None:
            dn_block = w.normal_deriv.T @ (wq[:, None] * w.correction)
            tr_block = w.trace.T @ (wq[:, None] * w.correction)
            builder.add_block(w.cell_dofs, w.cell_dofs, -dn_block)
            builder.add_block(w.edge_dofs, w.cell_dofs, gh_scale * tr_block)

    return LinearSystem(matrix=builder.compress(), rhs=rhs,
                        symmetric=all(w.correction is None for w in works))


def recover_multiplier(u_dofs: np.ndarray, mesh: PolygonalMesh, elements: list,
                       cfg: WeakBcConfig, g, mult: MultiplierSpace | None = None,
                       works: list | None = None) -> np.ndarray:
    """Edge-by-edge multiplier recovery from a penalty-system solution:
    lambda = gamma/htilde * proj(u - g) - dn u (plus the projected Taylor
    correction on curved domains).  No global solve."""
    if mult is None:
        mult = MultiplierSpace.create(mesh, cfg.resolved_kprime)
    if works is None:
        works = edge_workspaces(mesh, elements, GlobalDofMap(mesh, cfg.k), mult,
                                cfg.resolved_edge_exactness)
    gamma = cfg.gamma
    out = np.zeros((len(works), mult.kprime + 1))
    for j, w in enumerate(works):
        wq = w.weights
        uloc = u_dofs[w.cell_dofs]
        uvals = w.trace @ u_dofs[w.edge_dofs]
        resid = uvals - np.asarray(g(w.data_points), dtype=float)
        if w.correction is not None:
            resid = resid + w.correction @ uloc
        rhsv = (gamma / w.htilde) * (w.psi.T @ (wq * resid))
        # the normal-derivative term lies in the multiplier space already, so
        # projecting it is exact; assembled this way for one mass solve
        out[j] = np.linalg.solve(w.mass, rhsv - w.psi.T @ (wq * (w.normal_deriv @ uloc)))
    return out.ravel()


@dataclass(frozen=True)
class BoundaryNorms:
    """Mesh-dependent boundary norms over a level's edge workspaces, weighted
    by the adjacent-cell diameter htilde and integrated with their quadrature.

    minus_half: (sum_f htilde ||.||^2_f)^(1/2)      (multiplier norm)
    half:       (sum_f htilde^-1 ||.||^2_f)^(1/2)   (trace norm)
    one(u):     (a_h-energy + ||proj u||^2_half)^(1/2) for VEM DOF vectors
    """

    works: list

    def _accumulate(self, values, weight_fn) -> float:
        total = 0.0
        for j, w in enumerate(self.works):
            vals = np.asarray(values(j, w), dtype=float)
            total += weight_fn(w.htilde) * float(w.weights @ vals**2)
        return float(np.sqrt(total))

    def minus_half(self, fn) -> float:
        """fn(points, edge) -> values on the boundary."""
        return self._accumulate(lambda j, w: fn(w.points, w.edge), lambda h: h)

    def half(self, fn) -> float:
        return self._accumulate(lambda j, w: fn(w.points, w.edge), lambda h: 1.0 / h)

    def minus_half_mult(self, coeffs: np.ndarray, fn=None) -> float:
        """Norm of a discrete multiplier, optionally shifted by -fn; block j of
        `coeffs` belongs to workspace j."""
        blocks = coeffs.reshape(len(self.works), -1)

        def ev(j, w):
            vals = w.psi @ blocks[j]
            if fn is not None:
                vals = vals - np.asarray(fn(w.points, w.edge), dtype=float)
            return vals

        return self._accumulate(ev, lambda h: h)

    def one(self, elements: list, dofmap: GlobalDofMap, u_dofs: np.ndarray) -> float:
        locs = dofmap.local_values(u_dofs)
        energy = 0.0
        for el in elements:
            energy += float(locs[el.cell] @ el.stiffness @ locs[el.cell])
        half_sq = 0.0
        for w in self.works:
            uv = w.trace @ u_dofs[w.edge_dofs]
            proj = w.psi @ np.linalg.solve(w.mass, w.psi.T @ (w.weights * uv))
            half_sq += float(w.weights @ proj**2) / w.htilde
        return float(np.sqrt(energy + half_sq))


def boundary_norms(mesh: PolygonalMesh, elements: list, cfg: WeakBcConfig) -> BoundaryNorms:
    """Boundary norms over newly built edge workspaces of `elements`."""
    return BoundaryNorms(edge_workspaces(mesh, elements, GlobalDofMap(mesh, cfg.k),
                                         MultiplierSpace.create(mesh, cfg.resolved_kprime),
                                         cfg.resolved_edge_exactness))
