"""Mesh generators: structured grids, clipped Voronoi diagrams with Lloyd
relaxation, inscribed polygons of convex curved domains, and union-of-squares
approximations with refined boundary cells.

All generators are deterministic for fixed inputs (including the rng seed).
"""

from __future__ import annotations

import logging

import numpy as np

from .levelset import LevelSetDomain, delta_many
from .mesh import PolygonalMesh, build_mesh, check_number
from .quadrature import polygon_area, polygon_shoelace

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
    check_number("nx", nx, 1, integer=True)
    check_number("ny", ny, 1, integer=True)
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


def _clip_convex(stacks: list, normal: np.ndarray, offset: float) -> list:
    """Sutherland-Hodgman clip of CCW polygons against {x : normal.x <= offset}.

    `stacks` holds pairs (ids, polys) with polys (B, n, 2) of one vertex
    count; the result is regrouped by output vertex count.  Each polygon
    emits the points, and bits, of a one-polygon clip.
    """
    out = []
    for ids, p in stacks:
        if p.shape[1] == 0:
            out.append((ids, p))
            continue
        d = p @ normal - offset
        q, dq = np.roll(p, -1, axis=1), np.roll(d, -1, axis=1)
        with np.errstate(all="ignore"):
            x = p + (d / (d - dq))[..., None] * (q - p)
        inside = d <= 0.0
        # edge i emits p_i when inside, and its crossing point when it crosses
        pts = np.stack([np.where(inside[..., None], p, x), x], axis=2).reshape(len(p), -1, 2)
        keep = np.stack([inside | (dq <= 0.0), inside & (dq > 0.0)], axis=2).reshape(len(p), -1)
        out += _regroup(ids, pts, keep)
    return out


def _dedup_loop(stacks: list, tol: float) -> list:
    """Drop each point within tol of the last point kept, then the last point
    kept if it is within tol of the first (stacks as in `_clip_convex`)."""
    out = []
    for ids, p in stacks:
        if p.shape[1] == 0:
            out.append((ids, p))
            continue
        rows = np.arange(len(p))
        keep = np.ones(p.shape[:2], dtype=bool)
        last = np.zeros(len(p), dtype=int)
        for k in range(1, p.shape[1]):
            d = p[:, k] - p[rows, last]
            keep[:, k] = np.hypot(d[:, 0], d[:, 1]) > tol
            last = np.where(keep[:, k], k, last)
        d = p[:, 0] - p[rows, last]
        keep[rows, last] &= (last == 0) | (np.hypot(d[:, 0], d[:, 1]) > tol)
        out += _regroup(ids, p, keep)
    return out


def _regroup(ids: np.ndarray, pts: np.ndarray, keep: np.ndarray) -> list:
    """Stacks of each row's kept points, grouped by how many it keeps."""
    counts = keep.sum(axis=1)
    out = []
    for c in np.unique(counts):
        rows = np.flatnonzero(counts == c)
        out.append((ids[rows], pts[rows][keep[rows]].reshape(len(rows), c, 2)))
    return out


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
    stacks = [(np.array([i]), domain[None])]
    si = seeds[i]
    for j in range(len(seeds)):
        if j == i:
            continue
        d = seeds[j] - si
        stacks = _clip_convex(stacks, d, float(d @ (0.5 * (si + seeds[j]))))
        if stacks[0][1].shape[1] < 3:
            break
    return _dedup_loop(stacks, tol)[0][1][0]


def _voronoi_polys(seeds: np.ndarray, domain: np.ndarray, tol: float) -> tuple[list, np.ndarray]:
    """Voronoi cells of the seeds clipped to a convex CCW domain polygon, in
    seed order, and their centroids.

    Seeds are mirrored across every domain edge so that interior cells come
    out bounded; any cell qhull leaves unbounded falls back to direct
    half-plane clipping.  The bounded cells are sorted, clipped and
    deduplicated in stacks of one vertex count.
    """
    from scipy.spatial import Voronoi

    n = len(seeds)
    planes = _domain_halfplanes(domain)
    if n == 1:
        return [domain.copy()], polygon_shoelace(domain[None])[1]
    mirrored = [seeds]
    for nrm, off in planes:
        dist = seeds @ nrm - off
        mirrored.append(seeds - 2.0 * dist[:, None] * nrm[None, :])
    vor = Voronoi(np.vstack(mirrored))
    regions = [vor.regions[r] for r in vor.point_region[:n]]
    sizes = np.array([len(r) if len(r) >= 3 and -1 not in r else 0 for r in regions])
    stacks = []
    for size in np.unique(sizes[sizes > 0]):
        ids = np.flatnonzero(sizes == size)
        poly = vor.vertices[np.array([regions[i] for i in ids])]
        # qhull region order is sequential but of either orientation;
        # cells are convex, so sort by angle around the seed
        ang = np.arctan2(poly[..., 1] - seeds[ids, 1, None], poly[..., 0] - seeds[ids, 0, None])
        stacks.append((ids, np.take_along_axis(poly, np.argsort(ang, axis=1)[..., None], 1)))
    for nrm, off in planes:
        stacks = _clip_convex(stacks, nrm, off)
    stacks = _dedup_loop(stacks, tol) + [(np.array([i]), _halfplane_cell(i, seeds, domain, tol)[None])
                                         for i in np.flatnonzero(sizes == 0)]
    polys, centroids, bad = [None] * n, np.zeros((n, 2)), []
    for ids, p in stacks:
        if p.shape[1] < 3:
            bad += ids.tolist()
            continue
        area, centroids[ids] = polygon_shoelace(p)
        bad += ids[area <= 0.0].tolist()
        for i, poly in zip(ids, p):
            polys[i] = poly
    if bad:
        raise ValueError(f"degenerate Voronoi cell for seed {min(bad)}")
    return polys, centroids


def _weld(points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Merge points within tol in both coordinates, first come first kept: the
    kept points, and each point's index among them.

    A point joins the earliest kept point in the first of the 3 x 3 bins of
    side 4 tol around it, scanned by x offset then y offset, that holds one:
    the choice a one-point-at-a-time spatial hash makes.
    """
    from scipy.spatial import cKDTree

    i, j = cKDTree(points).query_pairs(2 * tol, p=np.inf, output_type="ndarray").T
    close = np.all(np.abs(points[i] - points[j]) <= tol, axis=1)
    i, j = i[close], j[close]  # i < j
    kept = np.ones(len(points), dtype=bool)
    while True:  # a point is kept when no earlier kept point is close
        now = np.ones(len(points), dtype=bool)
        now[j[kept[i]]] = False
        if np.array_equal(now, kept):
            break
        kept = now
    i, j = i[kept[i]], j[kept[i]]
    b = np.floor(points / (4.0 * tol)).astype(np.int64)
    order = np.lexsort((i, b[i, 1] - b[j, 1], b[i, 0] - b[j, 0], j))
    first = order[np.diff(j[order], prepend=-1) != 0]
    target = np.arange(len(points))
    target[j[first]] = i[first]
    return points[kept], (np.cumsum(kept) - 1)[target]


def _mesh_from_polys(polys: list, expected_area: float, tol: float) -> PolygonalMesh:
    vertices, ids = _weld(np.concatenate(polys), tol)
    cells = []
    for loop in np.split(ids, np.cumsum([len(p) for p in polys])[:-1]):
        loop = loop[np.diff(loop, prepend=-1) != 0].tolist()
        if len(loop) > 1 and loop[0] == loop[-1]:
            loop.pop()
        if len(loop) < 3:
            raise ValueError("cell degenerated to fewer than 3 vertices while welding")
        cells.append(loop)
    return build_mesh(vertices, cells, expected_area=expected_area)


def build_voronoi_mesh(domain=None, n_seeds: int = 16, lloyd_iters: int = 0,
                       rng_seed: int = 0) -> PolygonalMesh:
    """Voronoi cells of random seeds clipped to a convex polygon, optionally
    relaxed by Lloyd iterations (seeds moved to cell centroids).

    Deterministic for a fixed rng_seed.  Degenerate seed sets (coincident
    points) are resampled a bounded number of times before failing.
    """
    check_number("n_seeds", n_seeds, 1, integer=True)
    check_number("lloyd_iters", lloyd_iters, 0, integer=True)
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

    from scipy.spatial import cKDTree

    seeds = sample(n_seeds)
    for attempt in range(20):
        # the tree only proposes pairs, at twice the radius of the exact test
        pairs = cKDTree(seeds).query_pairs(20 * tol, output_type="ndarray")
        d2 = np.sum((seeds[pairs[:, 0]] - seeds[pairs[:, 1]]) ** 2, axis=1)
        bad = np.unique(pairs[d2 < (10 * tol) ** 2])
        if len(bad) == 0:
            break
        seeds[bad] = sample(len(bad))
    else:
        raise RuntimeError("could not draw a non-degenerate seed set")

    for _ in range(lloyd_iters):
        seeds = _voronoi_polys(seeds, domain, tol)[1]

    polys = _voronoi_polys(seeds, domain, tol)[0]
    try:
        return _mesh_from_polys(polys, expected_area=area, tol=tol)
    except ValueError:
        # rare mirror-trick failure: rebuild every cell by exact half-plane
        # clipping against all other seeds
        polys = [_halfplane_cell(i, seeds, domain, tol) for i in range(len(seeds))]
        return _mesh_from_polys(polys, expected_area=area, tol=tol)


# ---------------------------------------------------------------------------
# Inscribed polygonal approximations of convex curved domains


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
    check_number("n_boundary", n_boundary, 3, integer=True)
    check_number("interior_resolution", interior_resolution, 1, integer=True)
    rings = int(interior_resolution)
    c = np.asarray(levelset.interior_point, dtype=float)
    f0 = levelset.value(c)
    if f0 >= 0.0:
        raise ValueError(f"anchor {c.tolist()} must be strictly inside the domain (F = {f0:.3e})")
    x0, y0, x1, y1 = levelset.bounding_box
    diag = float(np.hypot(x1 - x0, y1 - y0))
    if not np.isfinite(diag) or diag <= 0:
        raise ValueError("level set must provide a finite bounding box")
    thetas = 2.0 * np.pi * np.arange(n_boundary) / n_boundary
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    # the box diagonal bounds the distance from the anchor to the boundary
    radii = delta_many(levelset, np.repeat(c[None, :], n_boundary, axis=0), dirs, diag,
                       context=" on a boundary ray of the inscribed polygon")
    boundary = c[None, :] + radii[:, None] * dirs

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
    check_number("base_n", base_n, 1, integer=True)
    check_number("boundary_refine_steps", boundary_refine_steps, 0, integer=True)
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

    _merge_small_groups(groups, fine)

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
    for (bi, bj) in sorted(interior_parents):
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


def _merge_small_groups(groups: dict, fine: int) -> None:
    """Absorb small boundary fragments into a neighboring cell, in place.

    A fragment whose bounding-box diagonal is below one parent side would
    otherwise keep the gap-to-diameter ratio from shrinking under boundary
    refinement; it is merged into the touching boundary group sharing the
    most fine edges, or dropped (logged) when only interior cells touch it,
    which keeps refinement from altering interior cells.  Deterministic:
    smallest fragment first, ties by parent index.
    """
    owner_of = {c: gid for gid, cells in groups.items() for c in cells}

    def diag(cells) -> float:
        xs = [a for a, _ in cells]
        ys = [b for _, b in cells]
        return float(np.hypot(max(xs) - min(xs) + 1, max(ys) - min(ys) + 1))

    while small := [gid for gid, cells in groups.items() if diag(cells) < fine]:
        gid = min(small, key=lambda g: (len(groups[g]), g))
        cells = groups.pop(gid)
        contact: dict = {}
        for (a, b) in cells:
            for nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
                if nb not in cells and nb in owner_of:
                    contact[owner_of[nb]] = contact.get(owner_of[nb], 0) + 1
        if not contact:
            log.info("dropped fragment of parent %s with no boundary neighbor", gid)
            for c in cells:
                del owner_of[c]
            continue
        target = min(contact, key=lambda o: (-contact[o], o))
        groups[target] |= cells
        for c in cells:
            owner_of[c] = target


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
