"""Weak imposition of Dirichlet data on polygonal domains.

Two equivalent formulations are assembled: the stabilized Lagrange-multiplier
saddle system (symmetric indefinite; multiplier = discontinuous edge
polynomials of degree k' in {k, k-1}, residual penalty weighted by the
adjacent-cell diameter), and the Nitsche system obtained from it by edge-local
static condensation with gamma = 1/alpha when k' = k.

Every edge integral of one assembly uses a single shared quadrature rule, so
the condensation identity holds at roundoff level.  A level's boundary edges
form one `EdgeTable` of stacked arrays; each term is computed and scattered
for all edges at once, and each stacked product makes, edge by edge, the
floating-point operations of a one-edge computation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .element import CellTable, GlobalDofMap, _mv, _sym, _T, lagrange_eval_matrix, load_vectors
from .linsys import LinearSystem, SaddlePartition, TripletBuilder
from .mesh import PolygonalMesh
from .quadrature import gauss_lobatto, segment_rules

__all__ = [
    "WeakBcConfig",
    "MultiplierSpace",
    "EdgeBatch",
    "EdgeTable",
    "assemble_bh",
    "assemble_nitsche",
    "recover_multiplier",
    "edge_workspaces",
]

METHODS = ("barbosa_hughes", "nitsche")


def check_number(obj, name: str, low, integer: bool = False) -> None:
    """Raise a ValueError naming the field unless `obj.<name>` is an integer
    >= low (integer) or a finite real > low; bools are neither."""
    value = getattr(obj, name)
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    ok = isinstance(value, kinds) and not isinstance(value, bool)
    if integer:
        ok, what = ok and value >= low, f"an integer >= {low}"
    else:
        ok, what = ok and bool(np.isfinite(value)) and value > low, f"a finite number > {low}"
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r}")


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
        check_number(self, "k", 1, integer=True)
        kp = self.resolved_kprime
        if isinstance(kp, bool) or kp not in (self.k, self.k - 1):
            raise ValueError("kprime must be k or k-1")
        if self.method == "nitsche" and kp != self.k:
            raise ValueError("the Nitsche formulation requires kprime = k")
        check_number(self, "alpha", 0)
        check_number(self, "gamma", 0)
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
    k'+1 coefficients of boundary edge j start at j * (k'+1)."""

    kprime: int
    n_edges: int

    @classmethod
    def create(cls, mesh: PolygonalMesh, kprime: int) -> "MultiplierSpace":
        return cls(kprime, len(mesh.boundary_edges))

    @property
    def dim(self) -> int:
        return self.n_edges * (self.kprime + 1)


@dataclass(frozen=True)
class EdgeBatch:
    """The boundary edges whose adjacent cells have one DOF count."""

    rows: np.ndarray          # (nb,) positions in the table's edge order
    cell_dofs: np.ndarray     # (nb, n_cell) global DOFs of the adjacent cells
    normal_deriv: np.ndarray  # (nb, nq, n_cell) of d_nu Pi-nabla


@dataclass(frozen=True)
class EdgeTable:
    """A level's boundary edges, stacked in `mesh.boundary_edges` order, with
    the quadrature data shared by all assemblies, the multiplier recovery and
    the boundary norm.  The table of a corrected level comes from
    `curved.correction_data`."""

    dofmap: GlobalDofMap
    edge: np.ndarray          # (n,)
    cell: np.ndarray          # (n,) the adjacent cells
    htilde: np.ndarray        # (n,) their diameters
    points: np.ndarray        # (n, nq, 2)
    weights: np.ndarray       # (n, nq)
    data_points: np.ndarray   # (n, nq, 2) where the boundary datum g is sampled
    edge_dofs: np.ndarray     # (n, k+1) global DOFs of the edge point values
    trace: np.ndarray         # (n, nq, k+1) values of v restricted to the edge
    psi: np.ndarray           # (n, nq, k'+1) multiplier basis values
    mass: np.ndarray          # (n, k'+1, k'+1) multiplier mass matrices
    batches: tuple            # one EdgeBatch per adjacent-cell DOF count
    correction: tuple | None = None  # per batch the (nb, nq, n_cell) Taylor field; None when flat

    def data(self, g) -> np.ndarray:
        """The boundary datum g at the data points, (n, nq)."""
        return np.asarray(g(self.data_points.reshape(-1, 2)), dtype=float).reshape(self.weights.shape)

    def with_corrections(self) -> zip:
        """Each batch with its Taylor field (None when flat)."""
        return zip(self.batches, self.correction or (None,) * len(self.batches))


def edge_workspaces(mesh: PolygonalMesh, elements: CellTable, dofmap: GlobalDofMap,
                    mult: MultiplierSpace, exactness: int) -> EdgeTable:
    """The level's boundary edge table, built in array passes."""
    k, m = dofmap.k, mult.kprime + 1
    edge = mesh.boundary_edges
    cell = mesh.edge_cells[edge, 0]
    ends = mesh.vertices[mesh.edges[edge]]
    points, weights = segment_rules(ends[:, 0], ends[:, 1], exactness)

    # the multiplier basis: powers of the arclength from the midpoint over the length
    d = ends[:, 1] - ends[:, 0]
    length = np.hypot(d[:, 0], d[:, 1])
    s = _mv(points - (0.5 * (ends[:, 0] + ends[:, 1]))[:, None, :], d / length[:, None])
    s = s / length[:, None]
    psi = np.vander(s.ravel(), m, increasing=True).reshape(s.shape + (m,)) @ np.eye(m)
    mass = _T(psi) @ (weights[..., None] * psi)

    # each boundary edge is the only half-edge of its cell's loop to run
    # along it: from the vertex at local position `local` to the one at `nxt`
    nv = np.fromiter(map(len, mesh.cells), dtype=np.int64, count=mesh.n_cells)
    tails = np.concatenate(mesh.cells)
    half = np.empty(mesh.n_edges, dtype=np.int64)
    half[np.concatenate(mesh.cell_edge_ids)] = np.arange(len(tails))
    half = half[edge]
    local = half - (np.cumsum(nv) - nv)[cell]
    nxt = np.where(local + 1 == nv[cell], 0, local + 1)
    va, vb = mesh.vertices[tails[half]], mesh.vertices[tails[half - local + nxt]]
    length2 = np.array([float(h) ** 2 for h in mesh.edge_lengths[edge]])  # C pow, not h * h
    t = 2.0 * _mv(points - (0.5 * (va + vb))[:, None, :], vb - va) / length2[:, None]

    # local DOFs of the edge: vertex, interior nodes, next vertex
    inner = nv[cell, None] + local[:, None] * (k - 1) + np.arange(k - 1)
    local_dofs = np.concatenate([local[:, None], inner, nxt[:, None]], axis=1)
    edge_dofs = dofmap.dofs[dofmap.offsets[cell, None] + local_dofs]

    n_cell = np.diff(dofmap.offsets)[cell]
    batches = []
    for size in np.unique(n_cell):
        rows = np.flatnonzero(n_cell == size)
        cells = cell[rows]
        gx, gy = elements.basis(cells).eval_gradient(points[rows])
        nrm = mesh.edge_normals[edge[rows]][:, None, None, :]
        normal_deriv = (nrm[..., 0] * gx + nrm[..., 1] * gy) @ elements.gather("pinabla", cells)
        batches.append(EdgeBatch(rows, dofmap.batch_dofs(cells), normal_deriv))
    return EdgeTable(
        dofmap=dofmap, edge=edge, cell=cell, htilde=mesh.cell_diameters[cell],
        points=points, weights=weights, data_points=points, edge_dofs=edge_dofs,
        trace=lagrange_eval_matrix(gauss_lobatto(k + 1)[0], t), psi=psi, mass=_sym(mass), batches=tuple(batches),
    )


def _check_elements(elements: CellTable, cfg: WeakBcConfig):
    if elements.k != cfg.k:
        raise ValueError(f"elements have order {elements.k}, config expects {cfg.k}")


def _scatter_volume(builder: TripletBuilder, rhs: np.ndarray, elements: CellTable,
                    dofmap: GlobalDofMap, f):
    """Add each batch's stacked stiffness in one block, then every load in
    one `np.add.at` over the cells' DOFs in cell order: each entry of rhs
    takes its additions in the order of a cell-by-cell loop."""
    loads = load_vectors(elements, f)  # first: its batch temporaries then sit on no triplets
    in_cell_order = np.empty(len(dofmap.dofs))
    for b, load in zip(elements.batches, loads):
        gd = dofmap.batch_dofs(b.cells)
        builder.add_block(gd, gd, b.stiffness)
        in_cell_order[dofmap.offsets[b.cells, None] + np.arange(gd.shape[1])] = load
    np.add.at(rhs, dofmap.dofs, in_cell_order)


def assemble_bh(mesh: PolygonalMesh, elements: CellTable, mult: MultiplierSpace,
                cfg: WeakBcConfig, f, g, table: EdgeTable | None = None) -> LinearSystem:
    """Assemble the stabilized-multiplier saddle system.

    Unknowns are (u, lambda); the multiplier couples through the boundary
    mass and the residual penalty -alpha * htilde * (lambda + dn u, mu + dn v).
    g is sampled at the table's `data_points`; its Taylor `correction` enters
    the multiplier-row coupling only, which makes the system non-symmetric.
    The table (built here when None) also gives the DOF map.
    """
    _check_elements(elements, cfg)
    if table is None:
        table = edge_workspaces(mesh, elements, GlobalDofMap(mesh, cfg.k), mult,
                                cfg.resolved_edge_exactness)
    dofmap = table.dofmap
    nu = dofmap.n_dofs
    n = nu + mult.dim
    builder = TripletBuilder(n)
    rhs = np.zeros(n)
    _scatter_volume(builder, rhs, elements, dofmap, f)

    m = mult.kprime + 1
    lam = nu + np.arange(mult.dim).reshape(-1, m)
    ah = -(cfg.alpha * table.htilde)[:, None, None]  # -alpha * htilde
    wq = table.weights[..., None]
    psi_t = _T(table.psi)
    coupling = psi_t @ (wq * table.trace)  # multiplier row: the same block enters transposed
    builder.add_block(lam, table.edge_dofs, coupling)
    builder.add_block(table.edge_dofs, lam, _T(coupling))
    builder.add_block(lam, lam, ah * table.mass)
    for b, corr in table.with_corrections():
        nd, lam_b, w_b = b.normal_deriv, lam[b.rows], wq[b.rows]
        N = psi_t[b.rows] @ (w_b * nd)
        builder.add_block(b.cell_dofs, b.cell_dofs, ah[b.rows] * _sym(_T(nd) @ (w_b * nd)))
        builder.add_block(lam_b, b.cell_dofs, ah[b.rows] * N)
        builder.add_block(b.cell_dofs, lam_b, ah[b.rows] * _T(N))
        if corr is not None:
            builder.add_block(lam_b, b.cell_dofs, psi_t[b.rows] @ (w_b * corr))
    rhs[nu:] += _mv(psi_t, table.weights * table.data(g)).ravel()

    partition = SaddlePartition(n_primal=nu, blocks=[(j * m, m) for j in range(len(lam))],
                                edge_ids=table.edge.tolist())
    return LinearSystem(matrix=builder.compress(), rhs=rhs,
                        symmetric=table.correction is None, partition=partition)


def assemble_nitsche(mesh: PolygonalMesh, elements: CellTable, cfg: WeakBcConfig, f, g,
                     table: EdgeTable | None = None,
                     mult: MultiplierSpace | None = None) -> LinearSystem:
    """Assemble the penalty (Nitsche) system over the primal DOFs.

    The boundary data, sampled at the table's `data_points`, enters through
    its edgewise L2 projection onto the multiplier space, evaluated with the
    same quadrature as all other edge terms.  The table's Taylor
    `correction` is tested against dn v - gamma/htilde * v.  The table (built
    here when None) also gives the DOF map.
    """
    _check_elements(elements, cfg)
    if table is None:
        mult = mult or MultiplierSpace.create(mesh, cfg.resolved_kprime)
        table = edge_workspaces(mesh, elements, GlobalDofMap(mesh, cfg.k), mult,
                                cfg.resolved_edge_exactness)
    dofmap = table.dofmap
    nu = dofmap.n_dofs
    builder = TripletBuilder(nu)
    rhs = np.zeros(nu)
    _scatter_volume(builder, rhs, elements, dofmap, f)

    wq = table.weights
    scale = (cfg.gamma / table.htilde)[:, None, None]  # gamma / htilde
    trace_t = _T(table.trace)
    builder.add_block(table.edge_dofs, table.edge_dofs,
                      scale * _sym(trace_t @ (wq[..., None] * table.trace)))
    proj = np.linalg.solve(table.mass, _mv(_T(table.psi), wq * table.data(g))[..., None])
    gh = _mv(table.psi, proj[..., 0])

    # the right side takes, edge after edge, the edge DOFs' term and then the
    # cell DOFs' one: one np.add.at over that order
    k1 = table.edge_dofs.shape[1]
    size = k1 + np.diff(dofmap.offsets)[table.cell]
    start = np.cumsum(size) - size
    at, terms = np.empty(size.sum(), dtype=np.int64), np.empty(size.sum())
    pos = start[:, None] + np.arange(k1)
    at[pos], terms[pos] = table.edge_dofs, scale[..., 0] * _mv(trace_t, wq * gh)

    for b, corr in table.with_corrections():
        nd, ed, w_b = b.normal_deriv, table.edge_dofs[b.rows], wq[b.rows, :, None]
        cross = trace_t[b.rows] @ (w_b * nd)
        builder.add_block(ed, b.cell_dofs, -cross)
        builder.add_block(b.cell_dofs, ed, -_T(cross))
        pos = start[b.rows, None] + k1 + np.arange(b.cell_dofs.shape[1])
        at[pos] = b.cell_dofs
        terms[pos] = -_mv(_T(nd), wq[b.rows] * gh[b.rows])
        if corr is not None:
            builder.add_block(b.cell_dofs, b.cell_dofs, -(_T(nd) @ (w_b * corr)))
            builder.add_block(ed, b.cell_dofs, scale[b.rows] * (trace_t[b.rows] @ (w_b * corr)))
    np.add.at(rhs, at, terms)

    return LinearSystem(matrix=builder.compress(), rhs=rhs, symmetric=table.correction is None)


def recover_multiplier(u_dofs: np.ndarray, mesh: PolygonalMesh, elements: CellTable,
                       cfg: WeakBcConfig, g, mult: MultiplierSpace | None = None,
                       table: EdgeTable | None = None) -> np.ndarray:
    """Edge-by-edge multiplier recovery from a penalty-system solution:
    lambda = gamma/htilde * proj(u - g) - dn u (plus the projected Taylor
    correction on curved domains).  No global solve."""
    if table is None:
        mult = mult or MultiplierSpace.create(mesh, cfg.resolved_kprime)
        table = edge_workspaces(mesh, elements, GlobalDofMap(mesh, cfg.k), mult,
                                cfg.resolved_edge_exactness)
    wq = table.weights
    resid = _mv(table.trace, u_dofs[table.edge_dofs]) - table.data(g)
    flux = np.empty_like(resid)  # dn u at the quadrature points
    for b, corr in table.with_corrections():
        uloc = u_dofs[b.cell_dofs]
        if corr is not None:
            resid[b.rows] = resid[b.rows] + _mv(corr, uloc)
        flux[b.rows] = _mv(b.normal_deriv, uloc)
    psi_t = _T(table.psi)
    rhsv = (cfg.gamma / table.htilde)[:, None] * _mv(psi_t, wq * resid)
    # the normal-derivative term lies in the multiplier space already, so
    # projecting it is exact; assembled this way for one mass solve
    out = np.linalg.solve(table.mass, (rhsv - _mv(psi_t, wq * flux))[..., None])
    return out.ravel()
