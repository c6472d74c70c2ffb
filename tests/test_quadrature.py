import numpy as np
import pytest

from polyvem.mesh import build_mesh
from polyvem.quadrature import (
    fan_check,
    gauss_legendre,
    gauss_lobatto,
    polygon_area,
    polygon_centroid,
    segment_rules,
    triangle_rules,
    triangulate_polygon,
)
from conftest import cell_rule

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def hexagon(r=1.0):
    th = 2 * np.pi * np.arange(6) / 6
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def one_cell_rule(verts, exactness):
    """Points and weights of the rule on the one cell of a mesh of `verts`."""
    verts = np.asarray(verts, dtype=float)
    return cell_rule(build_mesh(verts, [list(range(len(verts)))]), 0, exactness)


def test_segment_rule_cubic():
    points, weights = segment_rules((0, 0), (1, 0), 3)
    val = weights @ points[:, 0] ** 3
    assert abs(val - 0.25) <= 1e-14


def test_segment_rule_measure():
    # a stack of segments: each weight sum is its length
    _, weights = segment_rules([(1, 2), (0, 0)], [(4, 6), (0, 2)], 0)
    assert weights.shape == (2, 1)
    np.testing.assert_allclose(np.sum(weights, axis=1), [5.0, 2.0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("npts", [2, 3, 4, 5, 6])
def test_gauss_lobatto_exactness(npts):
    x, w = gauss_lobatto(npts)
    assert x[0] == -1.0 and x[-1] == 1.0
    assert np.all(w > 0)
    for deg in range(2 * npts - 2):
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert abs(w @ x**deg - exact) <= 1e-13


def test_lobatto_nodes_k1_endpoints_only():
    x, _ = gauss_lobatto(2)
    np.testing.assert_array_equal(x, [-1.0, 1.0])


def test_lobatto_nodes_k2_midpoint():
    x, _ = gauss_lobatto(3)
    np.testing.assert_allclose(x, [-1.0, 0.0, 1.0], atol=1e-14)


def test_triangle_rule_positive_and_exact():
    v = [(0.2, 0.1), (1.3, 0.4), (0.5, 1.7)]
    for deg in range(7):
        points, weights = triangle_rules(*v, deg)
        assert np.all(weights > 0)
        # integrate x^a y^b exactly via a very fine reference
        ref_points, ref_weights = triangle_rules(*v, deg + 6)
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                got = weights @ (points[:, 0] ** a * points[:, 1] ** b)
                want = ref_weights @ (ref_points[:, 0] ** a * ref_points[:, 1] ** b)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_polygon_rule_square_x2y2():
    points, weights = one_cell_rule(SQUARE, 4)
    val = weights @ (points[:, 0] ** 2 * points[:, 1] ** 2)
    assert abs(val - 1.0 / 9.0) <= 1e-13


def test_polygon_rule_hexagon_area():
    _, weights = one_cell_rule(hexagon(), 0)
    assert abs(weights.sum() - 3.0 * np.sqrt(3.0) / 2.0) <= 1e-12


@pytest.mark.parametrize("deg", [0, 1, 2, 3, 4, 5, 6, 7, 8])
def test_polygon_rule_monomial_exactness(deg):
    # non-convex staircase polygon, ear-clipping path
    poly = np.array([
        [0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2],
    ], dtype=float)
    points, weights = one_cell_rule(poly, deg)
    ref_points, ref_weights = one_cell_rule(poly, deg + 4)
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            got = weights @ (points[:, 0] ** a * points[:, 1] ** b)
            want = ref_weights @ (ref_points[:, 0] ** a * ref_points[:, 1] ** b)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_polygon_rule_boxes_matches_triangulation():
    poly = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    boxes = np.array([[0, 0, 1, 0.5], [0, 0.5, 1, 1]])
    p1, w1 = one_cell_rule(poly, 3)
    p2, w2 = cell_rule(build_mesh(poly, [[0, 1, 2, 3]], cell_boxes={0: boxes}), 0, 3)
    f = lambda p: p[:, 0] ** 2 * p[:, 1] + p[:, 1] ** 3
    assert abs(w1 @ f(p1) - w2 @ f(p2)) <= 1e-14


def test_polygon_area_and_centroid():
    assert abs(polygon_area(SQUARE) - 1.0) <= 1e-15
    np.testing.assert_allclose(polygon_centroid(SQUARE), [0.5, 0.5], atol=1e-15)


def test_triangulate_rejects_clockwise():
    with pytest.raises(ValueError):
        triangulate_polygon(SQUARE[::-1])


def test_triangulate_nonconvex_covers_area():
    poly = np.array([[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]],
                    dtype=float)
    tris = triangulate_polygon(poly)
    area = sum(
        0.5 * abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
        for a, b, c in tris
    )
    assert abs(area - polygon_area(poly)) <= 1e-12


# -- the ear-clip fallback -------------------------------------------------------

# not star shaped about their centroids, so triangulated by ear clipping
EAR_CLIP_CELLS = {
    # a U with collinear vertices on its bottom and on both walls of its notch
    "u-collinear": [(0, 0), (1, 0), (2, 0), (3, 0), (3, 2), (2, 2), (2, 1.25), (2, 0.5),
                    (1, 0.5), (1, 1.25), (1, 2), (0, 2)],
    # a chevron 1e-4 thick: its centroid lies outside it
    "sliver": [(0, 0), (2, 0.5), (4, 0), (4, 1e-4), (2, 0.5001), (0, 1e-4)],
}


def green_moment(verts, a, b):
    """Integral of x^a y^b over a simple polygon by Green's theorem, as the
    loop integral of x^(a+1) y^b / (a+1) dy with a Gauss rule exact on each
    edge."""
    x, w = np.polynomial.legendre.leggauss(a + b + 2)
    t = 0.5 * (x + 1.0)
    total = 0.0
    for p, q in zip(verts, np.roll(verts, -1, axis=0)):
        px, py = (p + t[:, None] * (q - p)).T
        total += 0.5 * (q[1] - p[1]) * (w @ (px ** (a + 1) * py ** b))
    return total / (a + 1)


@pytest.mark.parametrize("name", list(EAR_CLIP_CELLS))
def test_ear_clip_triangulates_non_star_cells(name):
    v = np.array(EAR_CLIP_CELLS[name], dtype=float)
    area = polygon_area(v)
    assert not fan_check(v, polygon_centroid(v), area)[1]
    tris = triangulate_polygon(v)
    assert len(tris) <= len(v) - 2
    doubled = [(b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0] for a, b, c in tris]
    assert min(doubled) > 0.0  # counter-clockwise, none degenerate
    assert abs(0.5 * sum(doubled) - area) <= 1e-12 * area


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(EAR_CLIP_CELLS))
def test_ear_clip_rule_integrates_pk_exactly(name, k):
    v = np.array(EAR_CLIP_CELLS[name], dtype=float)
    points, weights = triangle_rules(*np.moveaxis(np.array(triangulate_polygon(v)), 1, 0), k)
    points, weights = points.reshape(-1, 2), weights.reshape(-1)
    assert np.all(weights > 0.0)
    for a in range(k + 1):
        for b in range(k + 1 - a):
            got = weights @ (points[:, 0] ** a * points[:, 1] ** b)
            want = green_moment(v, a, b)
            assert abs(got - want) <= 1e-12 * max(abs(want), polygon_area(v)), (a, b)


def test_ear_clip_rejects_self_intersecting_loop():
    # a figure-eight with positive signed area: clipping ends, the area does not match
    v = np.array([(0, 0), (2, 0), (2, 1), (0, 3), (-1, 3), (1, 1), (1, -0.5)], dtype=float)
    assert polygon_area(v) > 0.0
    with pytest.raises(ValueError, match="area mismatch"):
        triangulate_polygon(v)


def test_ear_clip_rejects_crossing_loop_that_covers_its_area():
    # the edge from (0,2) to (1,-1) crosses the bottom edge; clipping alone
    # covers the signed area
    v = np.array([(0, 0), (2, 0), (2, 2), (0, 2), (1, -1), (3, 1)], dtype=float)
    assert not fan_check(v, polygon_centroid(v), polygon_area(v))[1]
    with pytest.raises(ValueError, match="edges cross"):
        triangulate_polygon(v)


def test_fan_rejects_crossing_loop_that_passes_the_fan_test():
    # a pentagram: every fan triangle about the centroid is positive and the
    # fan area telescopes to the signed area, yet the loop covers its inner
    # pentagon twice
    angles = np.pi / 2 + 2 * np.pi * np.arange(5) * 2 / 5
    v = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    assert fan_check(v, polygon_centroid(v), polygon_area(v))[1]
    with pytest.raises(ValueError, match="edges cross"):
        triangulate_polygon(v)


def test_gauss_legendre_cached_readonly():
    x, w = gauss_legendre(4)
    assert not x.flags.writeable and not w.flags.writeable
