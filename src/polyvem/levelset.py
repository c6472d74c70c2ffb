"""Implicit curved domains and the boundary-gap machinery.

A domain is described by a scalar field F with F < 0 inside, F = 0 on the
boundary, and an analytic gradient.  For a point x on the polygonal boundary
and an outward direction sigma, delta(x) is the smallest nonnegative root of
F(x + t sigma) = 0, found by a sign scan, bisection and a Newton polish.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .mesh import PolygonalMesh, check_number
from .quadrature import segment_rules

__all__ = [
    "LevelSetDomain",
    "CorrectionConfig",
    "TauReport",
    "circle",
    "ellipse",
    "half_plane",
    "intersection",
    "quarter_disk",
    "named_levelset",
    "delta",
    "delta_many",
    "boundary_gaps",
    "choose_sigma",
    "tau_from_gaps",
    "tau_report",
    "kstar_default",
]


@dataclass(frozen=True)
class LevelSetDomain:
    """Implicit domain {F < 0} with analytic gradient.

    `f` and `grad` map (n, 2) arrays row by row to (n,) and (n, 2) arrays.
    `interior_point` anchors ray casting; `bounding_box` is (xmin, ymin,
    xmax, ymax).
    """

    name: str
    f: callable
    grad: callable
    interior_point: np.ndarray
    bounding_box: tuple
    is_convex: bool = True
    params: dict = field(default_factory=dict)

    def value(self, x) -> float:
        return float(self.f(np.asarray(x, dtype=float)[None, :])[0])

    def gradient(self, x) -> np.ndarray:
        return np.asarray(self.grad(np.asarray(x, dtype=float)[None, :])[0], dtype=float)


def circle(center=(0.0, 0.0), radius: float = 1.0) -> LevelSetDomain:
    check_number("radius", radius, 0, closed=True)  # radius 0 is an empty domain, refused later
    c = np.asarray(center, dtype=float)
    r2 = float(radius) ** 2

    def f(p):
        d = p - c
        return d[:, 0] ** 2 + d[:, 1] ** 2 - r2

    def grad(p):
        return 2.0 * (p - c)

    box = (c[0] - radius, c[1] - radius, c[0] + radius, c[1] + radius)
    return LevelSetDomain("circle", f, grad, c.copy(), box, True,
                          {"center": tuple(c), "radius": float(radius)})


def ellipse(a: float, b: float, center=(0.0, 0.0)) -> LevelSetDomain:
    check_number("a", a, 0)
    check_number("b", b, 0)
    c = np.asarray(center, dtype=float)
    a = float(a)
    b = float(b)

    def f(p):
        d = p - c
        return (d[:, 0] / a) ** 2 + (d[:, 1] / b) ** 2 - 1.0

    def grad(p):
        d = p - c
        return np.column_stack([2.0 * d[:, 0] / a**2, 2.0 * d[:, 1] / b**2])

    box = (c[0] - a, c[1] - b, c[0] + a, c[1] + b)
    return LevelSetDomain("ellipse", f, grad, c.copy(), box, True,
                          {"a": a, "b": b, "center": tuple(c)})


def half_plane(point, outward_normal, name: str = "half_plane") -> LevelSetDomain:
    p0 = np.asarray(point, dtype=float)
    n = np.asarray(outward_normal, dtype=float)
    n = n / np.hypot(*n)

    def f(p):
        return (p - p0) @ n

    def grad(p):
        return np.broadcast_to(n, (len(p), 2)).copy()

    big = 1e30
    box = [-big, -big, big, big]
    # axis-aligned half planes bound one side of the box exactly
    if abs(n[1]) < 1e-15:
        box[0 if n[0] < 0 else 2] = p0[0]
    elif abs(n[0]) < 1e-15:
        box[1 if n[1] < 0 else 3] = p0[1]
    return LevelSetDomain(name, f, grad, p0 - n, tuple(box), True)


def intersection(domains, name: str, interior_point) -> LevelSetDomain:
    """Intersection of convex domains: F = max of the children, gradient of
    the active child (first in case of ties)."""
    doms = list(domains)

    def f(p):
        return np.max(np.column_stack([d.f(p) for d in doms]), axis=1)

    def grad(p):
        vals = np.column_stack([d.f(p) for d in doms])
        active = np.argmax(vals, axis=1)
        out = np.zeros((len(p), 2))
        for i, d in enumerate(doms):
            sel = active == i
            if np.any(sel):
                out[sel] = d.grad(p[sel])
        return out

    boxes = np.array([d.bounding_box for d in doms])
    box = (
        float(np.max(boxes[:, 0])),
        float(np.max(boxes[:, 1])),
        float(np.min(boxes[:, 2])),
        float(np.min(boxes[:, 3])),
    )
    convex = all(d.is_convex for d in doms)
    return LevelSetDomain(name, f, grad, np.asarray(interior_point, dtype=float), box, convex)


def quarter_disk(radius: float = 1.0) -> LevelSetDomain:
    """Quarter disk {x >= 0, y >= 0, x^2 + y^2 <= r^2}; the straight sides are
    part of the zero set, so lattice-aligned mesh edges on the axes get
    delta = 0."""
    r = float(radius)
    dom = intersection(
        [circle(radius=r), half_plane((0, 0), (-1, 0)), half_plane((0, 0), (0, -1))],
        "quarter_disk",
        interior_point=(0.35 * r, 0.35 * r),
    )
    dom.params.update({"radius": r})
    return dom


_NAMED = {
    "circle": circle,
    "disk": circle,
    "ellipse": ellipse,
    "quarter_disk": quarter_disk,
    "quarter-disk": quarter_disk,
}


def named_levelset(name: str, **params) -> LevelSetDomain:
    try:
        factory = _NAMED[name]
    except KeyError:
        raise ValueError(f"unknown level set {name!r}; known: {sorted(_NAMED)}") from None
    return factory(**params)


DELTA_MAX_FACTOR = 2.0  # root bracket as a multiple of the adjacent-cell scale
ROOT_TOL = 1e-12        # residual |F| below which a point counts as on the boundary
TAU_THRESHOLD = 0.5     # tau_report warns above this value


@dataclass(frozen=True)
class CorrectionConfig:
    """Settings for the curved-boundary Taylor correction.

    kstar           order of the Taylor expansion, 0 <= kstar <= k
    sigma_strategy  'edge_normal' or 'distance_gradient'
    """

    kstar: int = 1
    sigma_strategy: str = "distance_gradient"

    def __post_init__(self):
        check_number("kstar", self.kstar, 0, integer=True)
        if self.sigma_strategy not in ("edge_normal", "distance_gradient"):
            raise ValueError(f"unknown sigma strategy {self.sigma_strategy!r}")


def kstar_default(k: int, delta_regime: str) -> int:
    """Default Taylor order: ceil(k/2 - 3/4) when the boundary gap scales like
    h^2 (inscribed polygons with vertices on the boundary), k when it scales
    like h (union-of-squares meshes)."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    if delta_regime == "h_squared":
        return max(0, math.ceil(k / 2.0 - 0.75))
    if delta_regime == "h_linear":
        return k
    raise ValueError(f"unknown delta regime {delta_regime!r}")


_SCAN_STEPS = 64


def delta(levelset: LevelSetDomain, x, sigma, scale: float = 1.0, context: str = "") -> float:
    """Smallest t >= 0 with F(x + t sigma) = 0 (a batch of one of `delta_many`)."""
    x = np.asarray(x, dtype=float)
    return float(delta_many(levelset, x[None, :], sigma, scale, context)[0])


def delta_many(levelset: LevelSetDomain, points, sigma, scale=1.0, context: str = "",
               edges=None) -> np.ndarray:
    """Gap delta at every point, each found as by itself.

    Each point must lie inside the domain or on its boundary (F(x) <= 1e-10);
    its bracket is [0, DELTA_MAX_FACTOR * scale].  `sigma` is one direction
    (2,) or one per point (n, 2), `scale` a scalar or one per point.  Every
    point runs the same arithmetic in the same order: a sign scan over 65
    nodes, bisection to width 1e-10 (or to two adjacent floats), then at most
    30 Newton steps, each with its own stopping rules.  The first failing
    point (outside the domain, no sign change, or a stalled rootfinder)
    raises ValueError naming the point and, when `edges` gives one id per
    point, its boundary edge.  A NaN value of F fails both residual tests.
    """
    x = np.asarray(points, dtype=float)
    n = len(x)
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), (n, 2))
    tmax = DELTA_MAX_FACTOR * np.broadcast_to(np.asarray(scale, dtype=float), (n,))
    f0 = levelset.f(x)
    fail = np.where(~(f0 <= 1e-10), 1, 0)  # 1 outside or NaN, 2 no crossing, 3 stalled
    (scan,) = np.nonzero((fail == 0) & (np.abs(f0) > ROOT_TOL))
    ts = np.linspace(0.0, tmax[scan], _SCAN_STEPS + 1, axis=1)
    hit = levelset.f((x[scan, None] + ts[:, :, None] * sig[scan, None])
                     .reshape(-1, 2)).reshape(ts.shape) >= 0.0
    found = hit.any(axis=1)
    fail[scan[~found]] = 2
    live = scan[found]
    first = np.argmax(hit[found], axis=1)
    lo, hi = np.zeros(n), np.zeros(n)
    # a point just outside (ROOT_TOL < F <= 1e-10) hits at node 0: bracket [0, 0]
    lo[live], hi[live] = ts[found, np.maximum(first - 1, 0)], ts[found, first]
    del ts, hit
    # bisection to an interval of width 1e-10, or of two adjacent floats
    # (a far root, as on a ray of a half plane)
    roots = live
    while len(live := live[hi[live] - lo[live] > 1e-10]):
        mid = 0.5 * (lo[live] + hi[live])
        ok = (lo[live] < mid) & (mid < hi[live])
        live, mid = live[ok], mid[ok]
        up = levelset.f(x[live] + mid[:, None] * sig[live]) >= 0.0
        hi[live[up]] = mid[up]
        lo[live[~up]] = mid[~up]
    t = 0.5 * (lo + hi)
    # Newton polish on the residual
    live = roots
    for _ in range(30):
        ft = levelset.f(x[live] + t[live, None] * sig[live])
        ok = np.abs(ft) > 1e-14
        live, ft = live[ok], ft[ok]
        grad = levelset.grad(x[live] + t[live, None] * sig[live])
        dft = np.array([float(g @ s) for g, s in zip(grad, sig[live])])
        ok = dft != 0.0
        live, tn = live[ok], t[live[ok]] - ft[ok] / dft[ok]
        ok = (lo[live] - 1e-10 <= tn) & (tn <= hi[live] + 1e-10)
        live = live[ok]
        t[live] = tn[ok]
        if not len(live):
            break
    fail[roots[~(np.abs(levelset.f(x[roots] + t[roots, None] * sig[roots])) <= ROOT_TOL)]] = 3
    bad = np.flatnonzero(fail)
    if len(bad):
        i = int(bad[0])
        xi = x[i].tolist()
        resid = levelset.f(x[i:i + 1] + t[i] * sig[i:i + 1])[0]
        raise ValueError([
            f"point {xi} lies outside the domain (F = {f0[i]:.3e})",
            f"no boundary crossing within {tmax[i]:.3e} from {xi} along {sig[i].tolist()}",
            f"rootfinder stalled at residual {resid:.3e} from {xi}",
        ][fail[i] - 1] + (context if edges is None else f"{context} (edge {int(edges[i])})"))
    return np.maximum(t, 0.0)


def choose_sigma(levelset: LevelSetDomain, mesh: PolygonalMesh, edges,
                 cfg: CorrectionConfig) -> np.ndarray:
    """Constant outward directions (n, 2) of boundary edges, from one
    gradient evaluation at all their midpoints."""
    if cfg.sigma_strategy == "edge_normal":
        return mesh.edge_normals[edges]
    g = np.asarray(levelset.grad(mesh.edge_midpoints[edges]), dtype=float)
    norm = np.hypot(g[:, 0], g[:, 1])
    flat = np.flatnonzero(norm < 1e-10)
    if len(flat):
        raise ValueError(f"level-set gradient vanishes at midpoint of edge {edges[flat[0]]}")
    return g / norm[:, None]


@dataclass(frozen=True)
class TauReport:
    """Global maximum of delta(x) / h_tilde_f over the quadrature points of
    the boundary edges `edge_indices`, and the edge where it occurs."""

    edge_indices: np.ndarray
    tau_hat: float
    worst_edge: int
    threshold: float

    @property
    def exceeded(self) -> bool:
        return self.tau_hat > self.threshold


def boundary_gaps(levelset: LevelSetDomain, mesh: PolygonalMesh, edges, points,
                  cfg: CorrectionConfig) -> tuple:
    """Directions sigma (n, 2) of boundary edges and the gaps (n, nq) at
    their points (n, nq, 2), found in one `delta_many` pass scaled by the
    adjacent-cell diameters."""
    points = np.asarray(points, dtype=float)
    n, nq = points.shape[:2]
    sigmas = choose_sigma(levelset, mesh, edges, cfg)
    htil = mesh.cell_diameters[mesh.edge_cells[edges, 0]]
    ds = delta_many(levelset, points.reshape(-1, 2), np.repeat(sigmas, nq, axis=0),
                    np.repeat(htil, nq), edges=np.repeat(edges, nq))
    return sigmas, ds.reshape(n, nq)


def tau_from_gaps(edges, gaps, htilde) -> TauReport:
    """The TauReport of gaps (n, nq) on boundary edges (n,) of adjacent-cell diameters htilde."""
    taus = np.max(gaps, axis=1) / htilde
    worst = int(np.argmax(taus)) if len(taus) else 0
    tau_hat = float(taus[worst]) if len(taus) else 0.0
    return TauReport(np.array(edges), tau_hat, int(edges[worst]) if len(edges) else -1, TAU_THRESHOLD)


def tau_report(levelset: LevelSetDomain, mesh: PolygonalMesh,
               cfg: CorrectionConfig) -> TauReport:
    """`tau_from_gaps` on an exactness-7 rule; warns above TAU_THRESHOLD."""
    idx = mesh.boundary_edges
    ends = mesh.vertices[mesh.edges[idx]]
    pts, _ = segment_rules(ends[:, 0], ends[:, 1], 7)
    _, gaps = boundary_gaps(levelset, mesh, idx, pts, cfg)
    rep = tau_from_gaps(idx, gaps, mesh.cell_diameters[mesh.edge_cells[idx, 0]])
    if rep.exceeded:
        warnings.warn(
            f"boundary-gap ratio tau_hat = {rep.tau_hat:.3f} exceeds {TAU_THRESHOLD} "
            f"(worst edge {rep.worst_edge}); the corrected problem may be unstable",
            stacklevel=2,
        )
    return rep
