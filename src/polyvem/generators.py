"""Mesh generators: structured grids, clipped Voronoi diagrams with Lloyd
relaxation, inscribed polygons of convex curved domains, and union-of-squares
approximations with refined boundary cells.

All generators are deterministic for fixed inputs (including the rng seed).
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.spatial import Voronoi

from .levelset import LevelSetDomain
from .mesh import PolygonalMesh, build_mesh
from .quadrature import polygon_area, polygon_centroid

__all__ = [
    "build_structured_mesh",
    "build_voronoi_mesh",
    "build_disk_approx_mesh",
    "build_squares_approx_mesh",
]

log = logging.getLogger(__name__)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def build_structured_mesh(bounds=(0.0, 0.0, 1.0, 1.0), nx: int = 1, ny: int = 1) -> PolygonalMesh:
    """nx-by-ny grid of rectangular cells on the axis-aligned rectangle
    (xmin, ymin, xmax, ymax)."""
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be >= 1")
    x0, y0, x1, y1 = map(float, bounds)
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    verts = np.array([[x, y] for y in ys for x in xs])

    def vid(i, j):
        return j * (nx + 1) + i

    cells = [
        [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
        for j in range(ny)
        for i in range(nx)
    ]
    return build_mesh(verts, cells, expected_area=(x1 - x0) * (y1 - y0))


# ---------------------------------------------------------------------------
# Voronoi generation


def _clip_convex(poly: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a CCW polygon against {x : normal.x <= offset}."""
    if len(poly) == 0:
        return poly
    d = poly @ normal - offset
    out = []
    n = len(poly)
    for i in range(n):
        j = (i + 1) % n
        pi, pj = poly[i], poly[j]
        di, dj = d[i], d[j]
        if di <= 0.0:
            out.append(pi)
            if dj > 0.0:
                t = di / (di - dj)
                out.append(pi + t * (pj - pi))
        elif dj <= 0.0:
            t = di / (di - dj)
            out.append(pi + t * (pj - pi))
    return np.array(out) if out else np.empty((0, 2))


def _dedup_loop(poly: np.ndarray, tol: float) -> np.ndarray:
    if len(poly) == 0:
        return poly
    keep = [poly[0]]
    for p in poly[1:]:
        if np.hypot(*(p - keep[-1])) > tol:
            keep.append(p)
    if len(keep) > 1 and np.hypot(*(keep[0] - keep[-1])) <= tol:
        keep.pop()
    return np.array(keep)


def _domain_halfplanes(domain: np.ndarray):
    planes = []
    n = len(domain)
    for i in range(n):
        a, b = domain[i], domain[(i + 1) % n]
        e = b - a
        nrm = np.array([e[1], -e[0]]) / np.hypot(*e)  # outward for CCW loop
        planes.append((nrm, float(nrm @ a)))
    return planes


def _halfplane_cell(i: int, seeds: np.ndarray, domain: np.ndarray, tol: float) -> np.ndarray:
    poly = domain.copy()
    si = seeds[i]
    for j in range(len(seeds)):
        if j == i:
            continue
        d = seeds[j] - si
        poly = _clip_convex(poly, d, float(d @ (0.5 * (si + seeds[j]))))
        if len(poly) < 3:
            break
    return _dedup_loop(poly, tol)


def _voronoi_polys(seeds: np.ndarray, domain: np.ndarray, tol: float) -> list:
    """Voronoi cells of the seeds clipped to a convex CCW domain polygon.

    Seeds are mirrored across every domain edge so that interior cells come
    out bounded; any cell qhull leaves unbounded falls back to direct
    half-plane clipping.
    """
    n = len(seeds)
    planes = _domain_halfplanes(domain)
    if n == 1:
        return [domain.copy()]
    mirrored = [seeds]
    for nrm, off in planes:
        dist = seeds @ nrm - off
        mirrored.append(seeds - 2.0 * dist[:, None] * nrm[None, :])
    vor = Voronoi(np.vstack(mirrored))
    polys = []
    for i in range(n):
        region = vor.regions[vor.point_region[i]]
        if len(region) < 3 or -1 in region:
            poly = _halfplane_cell(i, seeds, domain, tol)
        else:
            poly = vor.vertices[region]
            # qhull region order is sequential but of either orientation;
            # cells are convex, so sort by angle around the seed
            ang = np.arctan2(poly[:, 1] - seeds[i, 1], poly[:, 0] - seeds[i, 0])
            poly = poly[np.argsort(ang)]
            for nrm, off in planes:
                poly = _clip_convex(poly, nrm, off)
            poly = _dedup_loop(poly, tol)
        if len(poly) < 3 or polygon_area(poly) <= 0.0:
            raise ValueError(f"degenerate Voronoi cell for seed {i}")
        polys.append(poly)
    return polys


class _Welder:
    """Merge nearly identical vertices via spatial hashing (deterministic)."""

    def __init__(self, tol: float):
        self.tol = tol
        self.cell = 4.0 * tol
        self.bins: dict = {}
        self.points: list = []

    def add(self, p) -> int:
        bx = int(np.floor(p[0] / self.cell))
        by = int(np.floor(p[1] / self.cell))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for idx in self.bins.get((bx + dx, by + dy), ()):
                    q = self.points[idx]
                    if abs(q[0] - p[0]) <= self.tol and abs(q[1] - p[1]) <= self.tol:
                        return idx
        idx = len(self.points)
        self.points.append((float(p[0]), float(p[1])))
        self.bins.setdefault((bx, by), []).append(idx)
        return idx


def _mesh_from_polys(polys: list, expected_area: float, tol: float) -> PolygonalMesh:
    welder = _Welder(tol)
    cells = []
    for poly in polys:
        loop = []
        for p in poly:
            idx = welder.add(p)
            if not loop or idx != loop[-1]:
                loop.append(idx)
        if len(loop) > 1 and loop[0] == loop[-1]:
            loop.pop()
        if len(loop) < 3:
            raise ValueError("cell degenerated to fewer than 3 vertices while welding")
        cells.append(loop)
    return build_mesh(np.array(welder.points), cells, expected_area=expected_area)


def build_voronoi_mesh(domain=None, n_seeds: int = 16, lloyd_iters: int = 0,
                       rng_seed: int = 0) -> PolygonalMesh:
    """Voronoi cells of random seeds clipped to a convex polygon, optionally
    relaxed by Lloyd iterations (seeds moved to cell centroids).

    Deterministic for a fixed rng_seed.  Degenerate seed sets (coincident
    points) are resampled a bounded number of times before failing.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    domain = UNIT_SQUARE.copy() if domain is None else np.asarray(domain, dtype=float)
    if polygon_area(domain) <= 0.0:
        raise ValueError("domain polygon must be CCW with positive area")
    area = polygon_area(domain)
    lo = domain.min(axis=0)
    hi = domain.max(axis=0)
    diam = float(np.hypot(*(hi - lo)))
    # welds clip points recomputed by adjacent cells (they differ by roundoff
    # only); loose enough for that, far too tight to merge true vertices
    tol = 1e-12 * diam
    planes = _domain_halfplanes(domain)
    rng = np.random.default_rng(rng_seed)

    def sample(k):
        out = []
        while len(out) < k:
            p = lo + rng.random(2) * (hi - lo)
            if all(p @ nrm <= off - 1e-12 * diam for nrm, off in planes):
                out.append(p)
        return np.array(out)

    seeds = sample(n_seeds)
    for attempt in range(20):
        d2 = np.sum((seeds[:, None, :] - seeds[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        bad = np.unique(np.nonzero(d2 < (10 * tol) ** 2)[0])
        if len(bad) == 0:
            break
        seeds[bad] = sample(len(bad))
    else:
        raise RuntimeError("could not draw a non-degenerate seed set")

    for _ in range(max(0, lloyd_iters)):
        polys = _voronoi_polys(seeds, domain, tol)
        seeds = np.array([polygon_centroid(p) for p in polys])

    polys = _voronoi_polys(seeds, domain, tol)
    try:
        return _mesh_from_polys(polys, expected_area=area, tol=tol)
    except ValueError:
        # rare mirror-trick failure: rebuild every cell by exact half-plane
        # clipping against all other seeds
        polys = [_halfplane_cell(i, seeds, domain, tol) for i in range(len(seeds))]
        return _mesh_from_polys(polys, expected_area=area, tol=tol)


# ---------------------------------------------------------------------------
# Inscribed polygonal approximations of convex curved domains


def _ray_root(levelset: LevelSetDomain, origin: np.ndarray, direction: np.ndarray) -> float:
    """Distance from an interior origin to the boundary along a direction."""
    t = 1e-3
    f0 = levelset.value(origin)
    if f0 >= 0.0:
        raise ValueError("ray origin must be strictly inside the domain")
    while levelset.value(origin + t * direction) < 0.0:
        t *= 2.0
        if t > 1e12:
            raise ValueError("ray does not leave the domain")
    lo, hi = 0.0, t
    while hi - lo > 1e-13 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if levelset.value(origin + mid * direction) < 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    for _ in range(40):
        ft = levelset.value(origin + t * direction)
        if abs(ft) <= 1e-15:
            break
        dft = float(levelset.gradient(origin + t * direction) @ direction)
        if dft <= 0.0:
            break
        t -= ft / dft
    return t


def build_disk_approx_mesh(levelset: LevelSetDomain, n_boundary: int,
                           interior_resolution: int = 1) -> PolygonalMesh:
    """Inscribed polygonal mesh of a convex curved domain with every boundary
    vertex on the zero level set (so the boundary gap scales like h^2).

    Boundary vertices are equiangular ray hits from the interior anchor;
    interior rings are scaled copies, giving one central polygon plus
    interior_resolution - 1 rings of quads.
    """
    if not levelset.is_convex:
        raise ValueError("inscribed-polygon meshing requires a convex level set")
    if n_boundary < 3:
        raise ValueError("need at least 3 boundary vertices")
    rings = int(interior_resolution)
    if rings < 1:
        raise ValueError("interior_resolution must be >= 1")
    c = np.asarray(levelset.interior_point, dtype=float)
    thetas = 2.0 * np.pi * np.arange(n_boundary) / n_boundary
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    radii = np.array([_ray_root(levelset, c, d) for d in dirs])
    boundary = c[None, :] + radii[:, None] * dirs

    bad = np.abs(levelset.f(boundary)) > 1e-12
    if np.any(bad):
        raise ValueError("boundary vertex projection failed to reach |F| <= 1e-12")

    verts = []
    for r in range(1, rings + 1):
        frac = r / rings
        verts.append(c[None, :] + frac * (boundary - c[None, :]))
    verts = np.vstack(verts)

    def vid(ring, i):
        return (ring - 1) * n_boundary + (i % n_boundary)

    cells = [[vid(1, i) for i in range(n_boundary)]]
    for r in range(1, rings):
        for i in range(n_boundary):
            cells.append([vid(r, i), vid(r + 1, i), vid(r + 1, i + 1), vid(r, i + 1)])

    inside = levelset.f(verts) > 1e-12
    if np.any(inside):
        raise ValueError("generated vertex lies outside the domain")
    return build_mesh(verts, cells, boundary_levelset=levelset.name)


# ---------------------------------------------------------------------------
# Union-of-squares approximations


def _trace_union(cells_set: set) -> list:
    """Outer loops (CCW, fine-lattice integer coords) of a union of unit
    lattice squares; one loop per connected component."""
    heads: dict = {}
    for (a, b) in cells_set:
        if (a, b - 1) not in cells_set:
            heads[(a, b)] = (a + 1, b)
        if (a + 1, b) not in cells_set:
            heads[(a + 1, b)] = (a + 1, b + 1)
        if (a, b + 1) not in cells_set:
            heads[(a + 1, b + 1)] = (a, b + 1)
        if (a - 1, b) not in cells_set:
            heads[(a, b + 1)] = (a, b)
    # a vertex with two outgoing edges would be a checkerboard pinch; the
    # dict construction above would have silently dropped one, so count them
    n_edges = sum(
        ((a, b - 1) not in cells_set) + ((a + 1, b) not in cells_set)
        + ((a, b + 1) not in cells_set) + ((a - 1, b) not in cells_set)
        for (a, b) in cells_set
    )
    if n_edges != len(heads):
        raise ValueError("union of squares has a pinch point (diagonal contact)")
    loops = []
    heads = dict(sorted(heads.items()))
    while heads:
        start = next(iter(heads))
        loop = [start]
        cur = heads.pop(start)
        while cur != start:
            loop.append(cur)
            cur = heads.pop(cur)
        loops.append(loop)
    return loops


def build_squares_approx_mesh(levelset: LevelSetDomain, base_n: int,
                              boundary_refine_steps: int = 0) -> PolygonalMesh:
    """Union-of-squares mesh of an implicit domain, contained in the domain.

    The bounding box is tiled by base_n squares along its longest side.  Base
    squares fully inside the domain become cells as they are; squares cut by
    the boundary are subdivided 2^steps times and the fully inside sub-squares
    are agglomerated into one polygonal cell per parent (several cells if the
    retained set is disconnected).  Sub-squares are kept only when all four
    corners are inside, which keeps the mesh inside the domain; parents with
    nothing retained are dropped.
    """
    if base_n < 1:
        raise ValueError("base_n must be >= 1")
    if boundary_refine_steps < 0:
        raise ValueError("boundary_refine_steps must be >= 0")
    x0, y0, x1, y1 = levelset.bounding_box
    span = max(x1 - x0, y1 - y0)
    if not np.isfinite(span) or span <= 0:
        raise ValueError("level set must provide a finite bounding box")
    side = span / base_n
    nx = int(np.ceil((x1 - x0) / side - 1e-12))
    ny = int(np.ceil((y1 - y0) / side - 1e-12))
    fine = 1 << boundary_refine_steps
    fside = side / fine
    # corner (ix, iy) of the fine lattice is inside when F <= 1e-12; a fine
    # cell (ax, ay) is kept when all four of its corners are
    lx = x0 + np.arange(nx * fine + 1) * fside
    ly = y0 + np.arange(ny * fine + 1) * fside
    inside = (levelset.f(np.stack(np.meshgrid(lx, ly, indexing="ij"), axis=-1)
                         .reshape(-1, 2)) <= 1e-12).reshape(len(lx), len(ly))
    sub_ok = inside[:-1, :-1] & inside[1:, :-1] & inside[1:, 1:] & inside[:-1, 1:]

    interior_parents = []
    groups: dict = {}  # parent -> set of retained fine cells (boundary parents)
    dropped = 0
    for bj in range(ny):
        for bi in range(nx):
            cx0, cy0 = bi * fine, bj * fine
            if inside[cx0:cx0 + fine + 1:fine, cy0:cy0 + fine + 1:fine].all():
                interior_parents.append((bi, bj))
                continue
            retained = {
                (cx0 + a, cy0 + b)
                for a in range(fine)
                for b in range(fine)
                if sub_ok[cx0 + a, cy0 + b]
            }
            if retained:
                groups[(bi, bj)] = retained
            else:
                dropped += 1
    if dropped:
        log.info("dropped %d boundary squares with no retained sub-square", dropped)

    interior_parents = _merge_small_groups(groups, interior_parents, fine)

    traced = []  # (loop of fine coords, boxes)
    for gid in sorted(groups):
        for comp in _components(groups[gid]):
            loops = _trace_union(comp)
            if len(loops) != 1:
                raise ValueError("connected sub-square union traced multiple loops")
            boxes = np.array([
                (x0 + a * fside, y0 + b * fside,
                 x0 + (a + 1) * fside, y0 + (b + 1) * fside)
                for (a, b) in sorted(comp)
            ])
            traced.append((loops[0], boxes))

    used = set()
    for loop, _ in traced:
        used.update(loop)

    cell_loops = []
    cell_boxes = {}
    for (bi, bj) in interior_parents:
        corners = [
            (bi * fine, bj * fine),
            ((bi + 1) * fine, bj * fine),
            ((bi + 1) * fine, (bj + 1) * fine),
            (bi * fine, (bj + 1) * fine),
        ]
        loop = []
        for i in range(4):
            a = corners[i]
            b = corners[(i + 1) % 4]
            loop.append(a)
            # insert fine vertices used by adjacent traced cells (flat vertices)
            da = ((b[0] - a[0]) // fine, (b[1] - a[1]) // fine)
            for step in range(1, fine):
                p = (a[0] + step * da[0], a[1] + step * da[1])
                if p in used:
                    loop.append(p)
        cell_boxes[len(cell_loops)] = np.array([
            (x0 + bi * side, y0 + bj * side, x0 + (bi + 1) * side, y0 + (bj + 1) * side)
        ])
        cell_loops.append(loop)
    for loop, boxes in traced:
        cell_boxes[len(cell_loops)] = boxes
        cell_loops.append(loop)

    key_index: dict = {}
    verts = []
    cells = []
    for loop in cell_loops:
        cl = []
        for key in loop:
            idx = key_index.get(key)
            if idx is None:
                idx = len(verts)
                key_index[key] = idx
                verts.append((x0 + key[0] * fside, y0 + key[1] * fside))
            cl.append(idx)
        cells.append(cl)
    if not cells:
        raise ValueError("no cells retained; domain smaller than one square")

    mesh = build_mesh(np.array(verts), cells, boundary_levelset=levelset.name,
                      cell_boxes=cell_boxes)
    outside = levelset.f(mesh.vertices) > 1e-12
    if np.any(outside):
        raise ValueError("union-of-squares mesh has a vertex outside the domain")
    return mesh


def _merge_small_groups(groups: dict, interior_parents: list, fine: int) -> list:
    """Absorb small boundary fragments into a neighboring cell.

    A fragment whose bounding-box diagonal is below one parent side would
    otherwise keep the gap-to-diameter ratio from shrinking under boundary
    refinement; it is merged into the touching boundary group sharing the
    most fine edges, or dropped (logged) when only interior cells touch it,
    which keeps refinement from altering interior cells.  Deterministic:
    smallest fragment first, ties by parent index.
    """
    interior_set = set(interior_parents)
    owner_of: dict = {}
    for gid, cells in groups.items():
        for c in cells:
            owner_of[c] = gid

    def diag(cells) -> float:
        xs = [a for a, _ in cells]
        ys = [b for _, b in cells]
        w = max(xs) - min(xs) + 1
        h = max(ys) - min(ys) + 1
        return float(np.hypot(w, h))

    for _ in range(len(groups) + len(interior_set) + 1):
        small = sorted(
            (gid for gid, cells in groups.items() if diag(cells) < fine),
            key=lambda g: (len(groups[g]), g),
        )
        merged = False
        for gid in small:
            contact: dict = {}
            for (a, b) in groups[gid]:
                for nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
                    if nb in groups[gid]:
                        continue
                    owner = owner_of.get(nb)
                    if owner is not None and owner != gid:
                        contact[owner] = contact.get(owner, 0) + 1
            if not contact:
                log.info("dropped fragment of parent %s with no boundary neighbor", gid)
                for c in groups[gid]:
                    del owner_of[c]
                del groups[gid]
                merged = True
                break
            target = min(contact, key=lambda o: (-contact[o], o))
            groups[target] |= groups[gid]
            for c in groups[gid]:
                owner_of[c] = target
            del groups[gid]
            merged = True
            break
        if not merged:
            break
    return sorted(interior_set)


def _components(cells_set: set) -> list:
    remaining = set(cells_set)
    comps = []
    while remaining:
        seed = min(remaining)
        stack = [seed]
        remaining.discard(seed)
        comp = {seed}
        while stack:
            a, b = stack.pop()
            for nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
                if nb in remaining:
                    remaining.discard(nb)
                    comp.add(nb)
                    stack.append(nb)
        comps.append(comp)
    return comps
