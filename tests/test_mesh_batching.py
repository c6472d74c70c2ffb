"""The stacked Voronoi generator and `build_mesh` geometry against the
per-cell code they replaced.

Every vertex, cell loop, edge and geometric quantity must be bitwise equal,
and bad input must fail with the same message.  The reference functions
below are the one-cell-at-a-time implementations, kept as the oracle.
"""

import re

import numpy as np
import pytest
import scipy.spatial

import polyvem.generators as gen
from polyvem import build_disk_approx_mesh, build_squares_approx_mesh, build_voronoi_mesh
from polyvem.levelset import circle, ellipse, quarter_disk
from polyvem.mesh import build_mesh
from polyvem.quadrature import polygon_area, polygon_centroid, polygon_shoelace
from test_mesh import _flat_and_nonstar_mesh

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------- reference


def ref_area(v):
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def ref_centroid(v):
    x, y = v[:, 0], v[:, 1]
    cr = x * np.roll(y, -1) - np.roll(x, -1) * y
    a = 0.5 * np.sum(cr)
    if abs(a) < 1e-300:
        return np.mean(v, axis=0)
    cx = np.sum((x + np.roll(x, -1)) * cr) / (6.0 * a)
    cy = np.sum((y + np.roll(y, -1)) * cr) / (6.0 * a)
    return np.array([cx, cy])


def ref_geometry(vertices, cells):
    """build_mesh's per-cell checks and its area, centroid and diameter loop;
    a vertex index out of range fails naming its cell, like the other checks."""
    centroids = np.zeros((len(cells), 2))
    areas = np.zeros(len(cells))
    diams = np.zeros(len(cells))
    for ci, loop in enumerate(cells):
        if len(loop) < 3:
            raise ValueError(f"cell {ci} has fewer than 3 vertices")
        if len(set(loop)) != len(loop):
            raise ValueError(f"cell {ci} repeats a vertex")
        for v in loop:
            if not 0 <= v < len(vertices):
                raise ValueError(f"cell {ci} has vertex index {v} out of range for "
                                 f"{len(vertices)} vertices")
        pts = vertices[loop]
        a = ref_area(pts)
        if a <= 0.0:
            raise ValueError(f"cell {ci} is not counter-clockwise or has zero area")
        areas[ci] = a
        centroids[ci] = ref_centroid(pts)
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        diams[ci] = np.sqrt(np.max(d2))
    return areas, centroids, diams


def checked_build_mesh(vertices, cells, **kwargs):
    """build_mesh, checked against the per-cell loop: the same error for bad
    cells, otherwise bitwise equal areas, centroids and diameters.  (The edge
    table has its own reference in test_mesh.py; equal vertices and cells
    give equal tables.)"""
    v = np.asarray(vertices, dtype=float)
    loops = [list(map(int, loop)) for loop in cells]
    try:
        areas, centroids, diams = ref_geometry(v, loops)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            build_mesh(vertices, cells, **kwargs)
        raise
    try:
        mesh = build_mesh(vertices, cells, **kwargs)
    except ValueError as exc:
        assert not str(exc).startswith("cell "), exc  # the loop accepted every cell
        raise
    assert np.array_equal(mesh.cell_areas, areas)
    assert np.array_equal(mesh.cell_centroids, centroids)
    assert np.array_equal(mesh.cell_diameters, diams)
    return mesh


@pytest.fixture
def checked(monkeypatch):
    """Every mesh a generator builds goes through `checked_build_mesh`."""
    monkeypatch.setattr(gen, "build_mesh", checked_build_mesh)


def ref_clip(poly, normal, offset):
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


def ref_dedup(poly, tol):
    if len(poly) == 0:
        return poly
    keep = [poly[0]]
    for p in poly[1:]:
        if np.hypot(*(p - keep[-1])) > tol:
            keep.append(p)
    if len(keep) > 1 and np.hypot(*(keep[0] - keep[-1])) <= tol:
        keep.pop()
    return np.array(keep)


def ref_halfplane_cell(i, seeds, domain, tol):
    poly = domain.copy()
    si = seeds[i]
    for j in range(len(seeds)):
        if j == i:
            continue
        d = seeds[j] - si
        poly = ref_clip(poly, d, float(d @ (0.5 * (si + seeds[j]))))
        if len(poly) < 3:
            break
    return ref_dedup(poly, tol)


def ref_polys(seeds, domain, tol):
    n = len(seeds)
    planes = gen._domain_halfplanes(domain)
    if n == 1:
        return [domain.copy()]
    mirrored = [seeds]
    for nrm, off in planes:
        dist = seeds @ nrm - off
        mirrored.append(seeds - 2.0 * dist[:, None] * nrm[None, :])
    vor = scipy.spatial.Voronoi(np.vstack(mirrored))
    polys = []
    for i in range(n):
        region = vor.regions[vor.point_region[i]]
        if len(region) < 3 or -1 in region:
            raise ValueError(f"Voronoi region of seed {i} is open or has fewer than 3 vertices")
    for i in range(n):
        poly = vor.vertices[vor.regions[vor.point_region[i]]]
        ang = np.arctan2(poly[:, 1] - seeds[i, 1], poly[:, 0] - seeds[i, 0])
        poly = poly[np.argsort(ang)]
        for nrm, off in planes:
            poly = ref_clip(poly, nrm, off)
        poly = ref_dedup(poly, tol)
        if len(poly) < 3 or ref_area(poly) <= 0.0:
            raise ValueError(f"degenerate Voronoi cell for seed {i}")
        polys.append(poly)
    return polys


class RefWelder:
    """Merge nearly identical vertices via spatial hashing, one at a time."""

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


def ref_weld(polys, tol):
    welder = RefWelder(tol)
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
    return np.array(welder.points), cells


def ref_voronoi(domain, n_seeds, lloyd_iters, rng_seed, rebuild=False):
    """Vertices and cells of build_voronoi_mesh as the per-cell code made them
    (`rebuild`: as if the mirror-trick cells had failed to make a mesh)."""
    domain = UNIT_SQUARE.copy() if domain is None else np.asarray(domain, dtype=float)
    area = ref_area(domain)
    lo, hi = domain.min(axis=0), domain.max(axis=0)
    diam = float(np.hypot(*(hi - lo)))
    tol = 1e-12 * diam
    planes = gen._domain_halfplanes(domain)
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
    for _ in range(max(0, lloyd_iters)):
        seeds = np.array([ref_centroid(p) for p in ref_polys(seeds, domain, tol)])
    polys = ref_polys(seeds, domain, tol)
    try:
        if rebuild:
            raise ValueError("forced")
        vertices, cells = ref_weld(polys, tol)
        ref_geometry(vertices, cells)
        build_mesh(vertices, cells, expected_area=area)
    except ValueError:
        polys = [ref_halfplane_cell(i, seeds, domain, tol) for i in range(len(seeds))]
        vertices, cells = ref_weld(polys, tol)
    return vertices, cells


def assert_voronoi_matches(domain, n_seeds, lloyd_iters, rng_seed):
    mesh = build_voronoi_mesh(domain, n_seeds, lloyd_iters, rng_seed=rng_seed)
    vertices, cells = ref_voronoi(domain, n_seeds, lloyd_iters, rng_seed)
    assert np.array_equal(mesh.vertices, vertices), (n_seeds, lloyd_iters, rng_seed)
    assert mesh.cells == cells, (n_seeds, lloyd_iters, rng_seed)
    return mesh


# ---------------------------------------------------------------- kernels


@pytest.mark.parametrize("n", range(3, 13))
def test_stacked_shoelace_matches_one_polygon_formula(n):
    # sizes 8 and up take numpy's pairwise summation
    rng = np.random.default_rng(n)
    polys = rng.standard_normal((40, n, 2)) * 10.0 ** rng.integers(-3, 4, size=(40, 1, 1))
    areas, centroids = polygon_shoelace(polys)
    for p, a, c in zip(polys, areas, centroids):
        assert a == ref_area(p) == polygon_area(p)
        assert np.array_equal(c, ref_centroid(p)) and np.array_equal(c, polygon_centroid(p))


def _random_convex(rng, n):
    ang = np.sort(rng.random(n)) * 2.0 * np.pi
    radius, centre = rng.uniform(0.5, 2.0), rng.standard_normal(2)
    return np.column_stack([np.cos(ang), np.sin(ang)]) * radius + centre


def _by_size(polys):
    sizes = sorted({len(p) for p in polys})
    return [(np.flatnonzero([len(p) == n for p in polys]),
             np.array([p for p in polys if len(p) == n])) for n in sizes]


def _unstack(stacks):
    got = {i: p for ids, ps in stacks for i, p in zip(ids, ps)}
    return [got[i] for i in range(len(got))]


def test_stacked_clip_and_dedup_match_one_polygon_code():
    rng = np.random.default_rng(11)
    polys = [_random_convex(rng, n) for n in rng.integers(3, 13, size=300)]
    # near-duplicate neighbours, and a closing point within tol of the first
    for p in polys[::7]:
        p[1] = p[0] + 1e-14
    for p in polys[3::7]:
        p[-1] = p[0] - 1e-14
    got = _unstack(gen._dedup_loop(_by_size(polys), 1e-12))
    assert all(np.array_equal(g, ref_dedup(p, 1e-12)) for g, p in zip(got, polys))
    stacks = _by_size(polys)
    planes = (([1.0, 0.3], 0.2), ([-0.2, 1.0], -0.5), ([0.0, 1.0], 5.0), ([1.0, 0.0], 0.5))
    for normal, offset in planes:
        normal = np.array(normal) / np.hypot(*normal)
        stacks = gen._clip_convex(stacks, normal, offset)
        polys = [ref_clip(p, normal, offset) for p in polys]
        assert all(np.array_equal(g, p) for g, p in zip(_unstack(stacks), polys))
    got = _unstack(gen._dedup_loop(stacks, 1e-12))
    assert all(np.array_equal(g, ref_dedup(p, 1e-12)) for g, p in zip(got, polys))
    assert {len(p) for p in polys} >= {0, 3, 4, 5}  # some clipped away, some cut


# ---------------------------------------------------------------- generators


@pytest.mark.parametrize("lloyd", range(4))
def test_voronoi_matches_per_cell_generator(checked, lloyd):
    for seed in range(51):
        n = 256 if seed == 50 else 64 if seed % 10 == 9 else (16, 24, 32)[seed % 3]
        assert_voronoi_matches(None, n, lloyd, seed)


def test_voronoi_on_other_domains_matches_per_cell_generator(checked):
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]])
    hexagon = np.array([[np.cos(t), np.sin(t)] for t in np.arange(6) * np.pi / 3])
    for domain in (tri, hexagon):
        for seed in range(3):
            for n in (1, 2, 3, 40):
                assert_voronoi_matches(domain, n, seed % 3, seed)


@pytest.mark.parametrize("ls", [quarter_disk(), circle(), circle((0.3, -0.2), 1.0),
                                ellipse(1.5, 0.8)],
                         ids=["quarter_disk", "circle", "offset_circle", "ellipse"])
def test_squares_and_disk_meshes_match_per_cell_loop(checked, ls):
    outcomes = []
    for base in (1, 2, 3, 4, 5, 7, 8, 11, 16, 32):
        for steps in range(4):
            try:
                outcomes.append(build_squares_approx_mesh(ls, base, steps).n_cells)
            except ValueError as exc:
                outcomes.append(str(exc))
    assert any(isinstance(o, int) for o in outcomes)
    for n in (12, 24, 48, 96):
        build_disk_approx_mesh(ls, n, max(1, round(n / 6)))


def test_structured_and_json_meshes_match_per_cell_loop(checked):
    for nx, ny in ((1, 1), (2, 5), (7, 3)):
        gen.build_structured_mesh((-1.0, 0.0, 2.0, 1.0), nx, ny)
    m = _flat_and_nonstar_mesh()  # U-shaped cell: not star shaped about its centroid
    checked_build_mesh(m.vertices, m.cells)


BAD_CELLS = {
    "two": [0, 1],
    "repeat": [0, 1, 2, 1],
    "clockwise": [0, 3, 2, 1],
    "flat": [0, 1, 4],
    "out-of-range": [0, 1, 9],
}


@pytest.mark.parametrize("order", [("two", "repeat", "clockwise"), ("clockwise", "two", "repeat"),
                                   ("repeat", "clockwise", "two"), ("flat", "out-of-range", "two"),
                                   ("out-of-range", "repeat", "clockwise")])
def test_build_mesh_names_lowest_failing_cell(order):
    # good cells first, then the bad ones: the error is the first bad cell's,
    # whichever batch of one vertex count it sits in
    v = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [2, 0]], dtype=float)
    cells = [[0, 1, 2, 3], [1, 4, 2]] + [BAD_CELLS[name] for name in order]
    with pytest.raises(ValueError) as info:
        ref_geometry(v, cells)
    want = str(info.value)
    assert want.startswith("cell 2 ")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        build_mesh(v, cells)


def test_voronoi_rebuild_by_halfplanes_partitions_domain(checked, monkeypatch):
    # force the rare case where the mirror-trick cells fail to make a mesh:
    # every cell is rebuilt by clipping the domain against all other seeds
    real = gen._mesh_from_polys
    calls = []

    def first_fails(polys, expected_area, tol):
        calls.append(len(polys))
        if len(calls) == 1:
            raise ValueError("forced")
        return real(polys, expected_area=expected_area, tol=tol)

    monkeypatch.setattr(gen, "_mesh_from_polys", first_fails)
    mesh = build_voronoi_mesh(None, 24, 1, rng_seed=5)
    assert calls == [24, 24]
    assert abs(np.sum(mesh.cell_areas) - 1.0) <= 1e-12
    assert mesh.n_vertices - mesh.n_edges + mesh.n_cells == 1
    vertices, cells = ref_voronoi(None, 24, 1, 5, rebuild=True)
    assert np.array_equal(mesh.vertices, vertices) and mesh.cells == cells


def test_voronoi_on_an_acute_domain_rebuilds_as_the_per_cell_generator(checked, monkeypatch):
    # qhull's vertex at the 0.4 degree corner of this triangle is off by
    # 2.3e-10 > tol, and the mirror cells miss 7.5e-11 of its area: every
    # cell is rebuilt from half-planes, as in the per-cell code
    real = gen._mesh_from_polys
    calls = []

    def counted(polys, expected_area, tol):
        calls.append(len(polys))
        return real(polys, expected_area=expected_area, tol=tol)

    monkeypatch.setattr(gen, "_mesh_from_polys", counted)
    triangle = np.array([[0.0, 0.0], [143.0, 0.0], [0.0, 1.0]])
    mesh = assert_voronoi_matches(triangle, 2, 0, 0)
    assert calls == [2, 2]
    assert np.sum(mesh.cell_areas) == 71.5


def test_unbounded_and_short_regions_name_the_lowest_seed(monkeypatch):
    # qhull leaves a region unbounded (-1 in it) or with under 3 vertices:
    # on a convex domain neither can happen, so the build stops there
    real = scipy.spatial.Voronoi
    changes = {0: lambda r: [-1] + r, 5: lambda r: r[:2], 9: lambda r: r + [-1]}
    for changed, lowest in (((0, 5, 9), 0), ((9, 5), 5)):
        def with_open_regions(points, changed=changed):
            vor = real(points)
            for i in changed:
                vor.regions[vor.point_region[i]] = changes[i](vor.regions[vor.point_region[i]])
            return vor

        monkeypatch.setattr(scipy.spatial, "Voronoi", with_open_regions)
        message = f"^Voronoi region of seed {lowest} is open or has fewer than 3 vertices$"
        for lloyd in (0, 2):
            for build in (build_voronoi_mesh, ref_voronoi):
                with pytest.raises(ValueError, match=message):
                    build(None, 32, lloyd, 8)


class _ScriptedRng:
    """Draws the scripted points first, then those of `rng`; counts draws."""

    def __init__(self, points, rng):
        self.points = list(points)
        self.rng = rng
        self.draws = 0

    def random(self, size):
        self.draws += 1
        return np.array(self.points.pop(0)) if self.points else self.rng.random(size)


def test_close_seeds_are_redrawn_as_before(checked, monkeypatch):
    # seeds closer than 10 * tol are redrawn; the tree must find the same set
    # as the all-pairs test, including pairs just inside and outside the radius
    tol = 1e-12 * np.sqrt(2.0)
    script = [(0.5, 0.5), (0.25, 0.75), (0.5 + 9.9 * tol, 0.5), (0.25, 0.75),
              (0.7, 0.2), (0.7 + 7 * tol, 0.2 + 7 * tol), (0.1, 0.9), (0.1 + 10.5 * tol, 0.9)]
    real = np.random.default_rng
    made = []

    def default_rng(seed):
        made.append(_ScriptedRng(script, real(seed)))
        return made[-1]

    def scripted(build, *args):
        monkeypatch.setattr(np.random, "default_rng", default_rng)
        try:
            return build(*args)
        finally:
            monkeypatch.setattr(np.random, "default_rng", real)

    for lloyd in (0, 1):
        mesh = scripted(build_voronoi_mesh, None, 12, lloyd, 3)
        vertices, cells = scripted(ref_voronoi, None, 12, lloyd, 3)
        assert np.array_equal(mesh.vertices, vertices) and mesh.cells == cells
    # 12 draws, then 6 for the three close pairs; the pair at 10.5 tol stays
    assert [rng.draws for rng in made] == [18] * 4


def test_welding_merges_clip_points_that_differ_by_roundoff():
    # two cells clip their shared edge against the domain boundary from
    # opposite ends, so the two crossing points can differ in the last bits
    tol = 1e-12 * np.sqrt(2.0)
    seeds = np.random.default_rng(0).random((12, 2))
    polys = gen._voronoi_polys(seeds, UNIT_SQUARE, tol)[0]
    pts = np.concatenate(polys)
    cheb = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
    near = np.argwhere((cheb > 0.0) & (cheb <= tol))
    assert len(near)  # the seed set has such pairs
    mesh = gen._mesh_from_polys(polys, expected_area=1.0, tol=tol)
    cheb_to_vertices = np.max(np.abs(mesh.vertices[None] - pts[:, None]), axis=2)
    ids = np.argmin(cheb_to_vertices, axis=1)
    assert np.all(ids[near[:, 0]] == ids[near[:, 1]])
    assert mesh.n_vertices - mesh.n_edges + mesh.n_cells == 1
    assert np.min(np.max(np.abs(mesh.vertices[:, None] - mesh.vertices[None]), axis=2)
                  + np.eye(mesh.n_vertices)) > tol


@pytest.mark.parametrize("seed", range(6))
def test_weld_matches_one_point_at_a_time_hash(seed):
    # clusters spread over about 2 tol: chains whose ends are not within tol,
    # points with several kept neighbours in different bins, exact repeats,
    # and clusters straddling bin edges (multiples of 4 tol) and zero
    rng = np.random.default_rng(seed)
    tol = 1e-3
    centres = (rng.integers(-20, 20, size=(60, 2)) * 4 * tol
               + rng.choice([0.0, 1e-9, -1e-9], size=(60, 2)))
    pts = centres[rng.integers(0, 60, size=600)] + rng.uniform(-1.1, 1.1, (600, 2)) * tol
    pts[::9] = pts[rng.integers(0, 600, size=len(pts[::9]))]
    welder = RefWelder(tol)
    want = [welder.add(p) for p in pts]
    vertices, ids = gen._weld(pts, tol)
    assert np.array_equal(ids, want)
    assert np.array_equal(vertices, np.array(welder.points))
    assert len(vertices) < len(pts) - 200


def test_voronoi_rejects_negative_lloyd_iters():
    with pytest.raises(ValueError, match="^lloyd_iters must be an integer >= 0, got -1$"):
        build_voronoi_mesh(None, 8, -1)
