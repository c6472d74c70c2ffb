import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from polyvem import (
    build_disk_approx_mesh,
    build_squares_approx_mesh,
    build_structured_mesh,
    build_voronoi_mesh,
    quality_report,
)
from polyvem.levelset import (
    ROOT_TOL,
    CorrectionConfig,
    circle,
    delta,
    ellipse,
    half_plane,
    quarter_disk,
    tau_report,
)
from polyvem.mesh import cell_quadratures
from polyvem.quadrature import polygon_area
from conftest import fuzz

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------- voronoi


def test_voronoi_single_seed_is_domain():
    m = build_voronoi_mesh(UNIT_SQUARE, 1, rng_seed=0)
    assert m.n_cells == 1
    assert abs(m.cell_areas[0] - 1.0) <= 1e-12


def test_voronoi_partition_64_seeds():
    m = build_voronoi_mesh(UNIT_SQUARE, 64, rng_seed=7)
    assert m.n_cells == 64
    assert abs(np.sum(m.cell_areas) - 1.0) <= 1e-12


def test_voronoi_deterministic():
    m1 = build_voronoi_mesh(UNIT_SQUARE, 32, lloyd_iters=1, rng_seed=3)
    m2 = build_voronoi_mesh(UNIT_SQUARE, 32, lloyd_iters=1, rng_seed=3)
    assert m1.vertices.tobytes() == m2.vertices.tobytes()
    assert m1.cells == m2.cells


def test_voronoi_lloyd_improves_regularity():
    q0 = quality_report(build_voronoi_mesh(UNIT_SQUARE, 64, lloyd_iters=0, rng_seed=7))
    q5 = quality_report(build_voronoi_mesh(UNIT_SQUARE, 64, lloyd_iters=5, rng_seed=7))
    assert q5.gamma0_estimate >= q0.gamma0_estimate


def test_voronoi_edge_adjacency():
    m = build_voronoi_mesh(UNIT_SQUARE, 25, rng_seed=1)
    counts = np.sum(m.edge_cells >= 0, axis=1)
    assert set(counts[m.boundary_edges]) == {1}
    interior = np.setdiff1d(np.arange(m.n_edges), m.boundary_edges)
    assert np.all(counts[interior] == 2)


def test_voronoi_rejects_bad_args():
    with pytest.raises(ValueError):
        build_voronoi_mesh(UNIT_SQUARE, 0)
    with pytest.raises(ValueError):
        build_voronoi_mesh(UNIT_SQUARE[::-1], 4)
    # a NaN or infinite vertex once sent the seed sampler into an endless
    # loop, and a (3, 3) domain raised numpy's broadcast message
    for bad, message in (
            ([[0, 0], [1, np.nan], [1, 1]], r"domain vertex 1 is not finite: \[1\.0, nan\]"),
            ([[0, 0], [1, 0], [np.inf, 1]], r"domain vertex 2 is not finite: \[inf, 1\.0\]"),
            (np.eye(3), r"domain must be an \(n, 2\) array, got shape \(3, 3\)"),
            ([[0, 0], [1, 0], [1, "1"]], "domain vertex 2 has coordinate '1', not a number"),
            ([[0, 0], [1, 0], [1, 0], [1, 1]], "domain polygon is not convex at vertex 1"),
            # the rejection sampler drew forever on a domain too thin for it
            ([[0, 0], [1, 1], [0, 1e-9]], r"could not draw 4 seeds 1\.4e-12 or more inside the "
                                          r"domain in 104000 tries; it fills 5\.0e-10 of its box"),
            ([[0, 0], [1e-13, 0], [0, 1]], r"could not draw 4 seeds 1\.0e-12 or more inside the "
                                           r"domain in 104000 tries; it fills 5\.0e-01 of its box")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_voronoi_mesh(bad, 4)
    # the L-shape: the seeds' mirror images bound the cells only in its
    # kernel, the unit square; vertex 3, (1, 1), is the reflex corner
    ell = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
    with pytest.raises(ValueError, match="^domain polygon is not convex at vertex 3$"):
        build_voronoi_mesh(ell, 16)
    # a pentagram turns left at every vertex but winds twice
    star = [[np.cos(t), np.sin(t)] for t in np.arange(0, 5) * 4 * np.pi / 5]
    with pytest.raises(ValueError, match="^domain polygon winds around more than once$"):
        build_voronoi_mesh(star, 16)


def _convex_domain(points, stretch):
    """CCW hull of the points with x stretched by `stretch`, or None when
    qhull refuses the set as flat, or when the seed sampler would reject
    most draws: the hull fills under 1% of its bounding box, or the box is
    under 1e-6 of its diagonal wide (seeds keep 1e-12 of it from the edges)."""
    from scipy.spatial import ConvexHull, QhullError

    pts = np.array(points) * [stretch, 1.0]
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return None
    sides = np.ptp(pts, axis=0)
    roomy = hull.volume >= 0.01 * np.prod(sides) and min(sides) >= 1e-6 * np.hypot(*sides)
    return pts[hull.vertices] if roomy else None


@pytest.mark.parametrize("domain,n_seeds", [
    ([(0, 0), (0.5, 0), (1, 0), (1, 0.25), (1, 1), (0, 1)], 24),
    # an edge whose y extent is subnormal: the normal probe of build_mesh
    # overflowed in a lane it then masks, and warned
    ([(0.0, 0.0), (1.0, 2.225073858507e-311), (0.0, 0.75)], 2),
    # area 0.026: the mirror cells missed 1.4e-12 of it, which passed the
    # tiling bound while that was absolute below unit area
    ([(2.0, 0.0), (0.0, 0.25), (1.7890625, 0.0)], 2),
], ids=["collinear-vertices", "subnormal-edge", "small-acute-triangle"])
def test_voronoi_tiles_unusual_convex_domains(domain, n_seeds):
    area = polygon_area(np.array(domain, dtype=float))
    m = build_voronoi_mesh(domain, n_seeds, rng_seed=0)
    assert abs(np.sum(m.cell_areas) - area) <= 1e-12 * area


@fuzz(40)
@given(points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=3,
                       max_size=12),
       stretch=st.floats(1.0, 1000.0), n_seeds=st.integers(2, 64), lloyd=st.integers(0, 2),
       rng_seed=st.integers(0, 2**16))
def test_voronoi_tiles_any_convex_domain(points, stretch, n_seeds, lloyd, rng_seed):
    # no region of a convex domain is open, and the cells tile it to 1e-12
    # relative; on slender hulls with acute corners this takes the
    # half-plane rebuild (a fifth of random hulls at 300:1)
    domain = _convex_domain(points, stretch)
    assume(domain is not None)
    area = polygon_area(domain)
    m = build_voronoi_mesh(domain, n_seeds, lloyd, rng_seed=rng_seed)
    assert m.n_cells == n_seeds
    assert abs(np.sum(m.cell_areas) - area) <= 1e-12 * area


@pytest.mark.parametrize("build,args,name,value,low", [
    (build_voronoi_mesh, {}, "n_seeds", 2.5, 1),
    (build_voronoi_mesh, {}, "n_seeds", True, 1),
    (build_voronoi_mesh, {"n_seeds": 4}, "lloyd_iters", 1.5, 0),
    (build_squares_approx_mesh, {"levelset": quarter_disk()}, "base_n", 4.5, 1),
    (build_squares_approx_mesh, {"levelset": quarter_disk(), "base_n": 4},
     "boundary_refine_steps", 1.0, 0),
    (build_disk_approx_mesh, {"levelset": circle()}, "n_boundary", 6.5, 3),
    (build_disk_approx_mesh, {"levelset": circle(), "n_boundary": 6}, "interior_resolution", 1.5, 1),
    (build_structured_mesh, {}, "nx", 2.5, 1),
    (build_structured_mesh, {}, "ny", False, 1),
])
def test_generators_reject_non_integer_counts(build, args, name, value, low):
    # these once built 3 cells (n_seeds=2.5) or 1 (True), a mesh of side
    # span/4.5, or raised a TypeError that named no argument
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {low}, "
                                         rf"got {re.escape(repr(value))}$"):
        build(**args, **{name: value})


def test_voronoi_two_seeds():
    m = build_voronoi_mesh(UNIT_SQUARE, 2, rng_seed=12)
    assert m.n_cells == 2
    assert abs(np.sum(m.cell_areas) - 1.0) <= 1e-12


def test_halfplane_cell_fallback_matches_partition():
    # the direct half-plane construction tiles the domain on its own
    from polyvem.generators import _halfplane_cell
    from polyvem.quadrature import polygon_area
    rng = np.random.default_rng(3)
    seeds = rng.random((6, 2)) * 0.8 + 0.1
    total = sum(polygon_area(_halfplane_cell(i, seeds, UNIT_SQUARE, 1e-12))
                for i in range(len(seeds)))
    assert abs(total - 1.0) <= 1e-12


# ---------------------------------------------------------------- disk


def test_disk_octagon():
    m = build_disk_approx_mesh(circle(), 8, 1)
    assert m.n_cells == 1
    radii = np.hypot(m.vertices[:, 0], m.vertices[:, 1])
    np.testing.assert_allclose(radii, 1.0, atol=1e-12)


def test_disk_sagitta_closed_form():
    ls = circle()
    m = build_disk_approx_mesh(ls, 16, 2)
    # gap at boundary-edge midpoints along the edge normal equals the chord
    # sagitta 1 - cos(pi/16)
    gaps = []
    for e in m.boundary_edges:
        cell = m.edge_cells[e, 0]
        gaps.append(delta(ls, m.edge_midpoints[e], m.edge_normals[e],
                          scale=m.cell_diameters[cell]))
    want = 1.0 - np.cos(np.pi / 16.0)
    assert abs(max(gaps) - want) <= 1e-10


def test_disk_gap_quarters_when_doubling():
    ls = circle()

    def max_gap(n):
        m = build_disk_approx_mesh(ls, n, 2)
        return max(
            delta(ls, m.edge_midpoints[e], m.edge_normals[e],
                  scale=m.cell_diameters[m.edge_cells[e, 0]])
            for e in m.boundary_edges
        )

    g16, g32 = max_gap(16), max_gap(32)
    assert abs(g16 / g32 - 4.0) <= 0.2


def test_disk_vertices_inside():
    ls = circle()
    m = build_disk_approx_mesh(ls, 24, 4)
    assert np.all(ls.f(m.vertices) <= 1e-12)


def test_outward_normals_convex_generators():
    # on convex cells the outward normal satisfies the centroid inequality
    meshes = [build_voronoi_mesh(UNIT_SQUARE, 32, rng_seed=1),
              build_disk_approx_mesh(circle(), 16, 3)]
    for m in meshes:
        for e in m.boundary_edges:
            c = m.edge_cells[e, 0]
            assert np.dot(m.edge_normals[e],
                          m.edge_midpoints[e] - m.cell_centroids[c]) > 0


def test_disk_rejects_nonconvex():
    ls = circle()
    object.__setattr__(ls, "is_convex", False)
    with pytest.raises(ValueError):
        build_disk_approx_mesh(ls, 8, 1)


@pytest.mark.parametrize("make,message", [
    (lambda: circle(radius=0.0), r"anchor \[0\.0, 0\.0\] must be strictly inside the domain "
                                 r"\(F = 0\.000e\+00\)"),
    (lambda: dataclasses.replace(circle(), bounding_box=(-np.inf, -1.0, 1.0, 1.0)),
     "level set must provide a finite bounding box"),
    # F was NaN at the anchor, which passes the anchor check; this once built
    # a one-cell mesh of NaN vertices, and a negative radius the unit disk
    (lambda: circle(radius=np.nan), "radius must be a finite number >= 0, got nan"),
    (lambda: circle(radius=-1.0), r"radius must be a finite number >= 0, got -1\.0"),
    # rays 3 to 6 point away from the boundary of a half plane and never leave
    # it; ray 2 meets it at t = 1.6e16, where bisection ends on adjacent floats
    (lambda: half_plane((0.0, 0.0), (1.0, 0.0)), r"no boundary crossing within .* along "
     r"\[-0\.7071067811865475, 0\.7071067811865476\] on a boundary ray of the inscribed polygon"),
], ids=["anchor-on-boundary", "infinite-box", "nan-radius", "negative-radius", "no-crossing"])
def test_disk_rejects_bad_level_sets(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_disk_approx_mesh(make(), 8, 1)


# sizes of magnitude below 1e-2 are drawn as 0; beyond these ranges the
# roundoff of F exceeds ROOT_TOL, or F overflows, so few draws would build
_sizes = st.floats(-10.0, 10.0).map(lambda v: 0.0 if abs(v) < 1e-2 else v)
_centers = st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))


@fuzz(60)
@given(kind=st.sampled_from(["ellipse", "circle"]), a=_sizes, b=_sizes, center=_centers,
       n_boundary=st.integers(3, 64), interior_resolution=st.integers(1, 6))
def test_disk_mesh_is_built_on_the_level_set_or_refused(kind, a, b, center, n_boundary,
                                                        interior_resolution):
    try:
        ls = ellipse(a, b, center) if kind == "ellipse" else circle(center, a)
        mesh = build_disk_approx_mesh(ls, n_boundary, interior_resolution)
    except ValueError:
        return
    on_boundary = np.unique(mesh.edges[mesh.boundary_edges])
    assert len(on_boundary) == n_boundary
    assert np.all(np.abs(ls.f(mesh.vertices[on_boundary])) <= ROOT_TOL)


# ---------------------------------------------------------------- squares


def test_squares_steps0_all_square_cells():
    m = build_squares_approx_mesh(quarter_disk(), 4, 0)
    for loop in m.cells:
        assert len(loop) == 4
        pts = m.vertices[loop]
        d = np.max(pts, axis=0) - np.min(pts, axis=0)
        np.testing.assert_allclose(d, 0.25, atol=1e-12)


def test_squares_interior_set_stable_under_refinement():
    ls = quarter_disk()
    m0 = build_squares_approx_mesh(ls, 8, 0)
    m1 = build_squares_approx_mesh(ls, 8, 1)

    def interior_squares(m):
        # interior cells are full base squares as regions; adjacent boundary
        # unions may add flat vertices to their loops, so compare by bounding
        # box and area rather than by vertex count
        out = set()
        for ci, loop in enumerate(m.cells):
            pts = m.vertices[loop]
            d = np.max(pts, axis=0) - np.min(pts, axis=0)
            if np.allclose(d, 0.125, atol=1e-12) and abs(m.cell_areas[ci] - 0.125**2) <= 1e-14:
                out.add((round(np.min(pts[:, 0]) * 8), round(np.min(pts[:, 1]) * 8)))
        return out

    # every base square of the coarse mesh persists in the refined one
    assert interior_squares(m0) <= interior_squares(m1)


def test_squares_inside_domain():
    ls = quarter_disk()
    m = build_squares_approx_mesh(ls, 8, 2)
    assert np.all(ls.f(m.vertices) <= 1e-12)


@pytest.mark.parametrize("steps", [0, 1, 3])
@pytest.mark.parametrize("base", [4, 8, 11])
@pytest.mark.parametrize("ls", [quarter_disk(), circle(center=(0.13, -0.27), radius=0.71),
                                ellipse(1.2, 0.8, center=(0.05, 0.1))],
                         ids=["quarter_disk", "circle", "ellipse"])
def test_squares_boxes_have_corners_inside(ls, base, steps):
    # the reference rule, one point at a time: a box is kept only when all
    # four of its corners satisfy F <= 1e-12
    m = build_squares_approx_mesh(ls, base, steps)
    assert sorted(m.cell_boxes) == list(range(m.n_cells))
    for boxes in m.cell_boxes.values():
        for xa, ya, xb, yb in boxes:
            for p in ((xa, ya), (xb, ya), (xb, yb), (xa, yb)):
                assert ls.value(p) <= 1e-12


def test_squares_tau_halves_per_step():
    ls = quarter_disk()
    cfg = CorrectionConfig(kstar=2, sigma_strategy="distance_gradient")
    taus = []
    for s in (1, 2, 3):
        m = build_squares_approx_mesh(ls, 8, s)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            taus.append(tau_report(ls, m, cfg).tau_hat)
    assert taus[1] < taus[0] and taus[2] < taus[1]
    for i in range(2):
        assert abs(taus[i] / taus[i + 1] - 2.0) <= 0.5


def test_squares_cell_diameters_near_base():
    m = build_squares_approx_mesh(quarter_disk(), 8, 3)
    side = 1.0 / 8.0
    assert np.min(m.cell_diameters) >= 0.5 * side
    assert np.max(m.cell_diameters) <= 3.0 * side


def test_squares_edges_match():
    m = build_squares_approx_mesh(quarter_disk(), 8, 2)
    counts = np.sum(m.edge_cells >= 0, axis=1)
    interior = np.setdiff1d(np.arange(m.n_edges), m.boundary_edges)
    assert np.all(counts[interior] == 2)


def test_trace_union_refuses_a_pinch_point():
    # 4-connected around the hole (1, 0), but cells (0, 0) and (1, 1) meet
    # only at the lattice point (1, 1), which two boundary edges leave
    from polyvem.generators import _trace_union
    ring = {(0, 0), (0, -1), (1, -1), (2, -1), (2, 0), (2, 1), (1, 1)}
    with pytest.raises(ValueError, match=r"^union of squares has a pinch point \(diagonal "
                                         r"contact\)$"):
        _trace_union(ring)
    horseshoe = ring - {(1, 1)}
    assert _trace_union(horseshoe) == [[(0, -1), (1, -1), (2, -1), (3, -1), (3, 0), (3, 1),
                                        (3, 2), (2, 2), (2, 1), (2, 0), (1, 0), (1, 1), (0, 1),
                                        (0, 0)]]


def test_squares_json_roundtrip_quadrature():
    # serialization drops the box decompositions; the ear-clipping quadrature
    # fallback must integrate the staircase cells (flat vertices included)
    # to the same values
    from polyvem import mesh_from_json, mesh_to_json
    m = build_squares_approx_mesh(quarter_disk(), 8, 2)
    m2 = mesh_from_json(mesh_to_json(m))
    assert m2.n_cells == m.n_cells
    f = lambda p: p[:, 0] ** 2 * p[:, 1] ** 2 + p[:, 0]

    def integrals(mesh):
        out = np.zeros(mesh.n_cells)
        for cells, points, weights in cell_quadratures(mesh, 4):
            out[cells] = [w @ f(p) for p, w in zip(points, weights)]
        return out

    assert np.all(np.abs(integrals(m) - integrals(m2)) <= 1e-13)
