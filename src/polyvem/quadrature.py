"""Gauss quadrature on segments, triangles and box unions, and the polygon
geometry behind cell rules: shoelace areas and centroids, the centroid-fan
check and triangulation (centroid fan with an ear-clipping fallback).

`mesh.cell_quadratures` builds every cell rule from these: a tensor Gauss
rule on each triangle through the Duffy transform, or on each box of an
axis-aligned box decomposition.  All weights are positive.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre",
    "gauss_lobatto",
    "segment_rules",
    "triangle_rules",
    "box_rules",
    "fan_check",
    "batch_runs",
    "map_batches",
    "polygon_area",
    "polygon_centroid",
    "polygon_shoelace",
    "triangulate_polygon",
]


_CHUNK = 256  # cells per batch of a batched kernel


@lru_cache(maxsize=None)
def gauss_legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], exact to degree 2*npts - 1."""
    if npts < 1:
        raise ValueError("need at least one Gauss point")
    x, w = np.polynomial.legendre.leggauss(npts)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def gauss_lobatto(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto nodes/weights on [-1, 1] including both endpoints.

    Exact to degree 2*npts - 3.  Interior nodes are the roots of the
    derivative of the Legendre polynomial of degree npts - 1.
    """
    if npts < 2:
        raise ValueError("Lobatto rules need at least two points")
    n = npts - 1
    if n == 1:
        nodes = np.array([-1.0, 1.0])
    else:
        interior = np.polynomial.legendre.Legendre.basis(n).deriv().roots()
        nodes = np.concatenate(([-1.0], np.sort(interior.real), [1.0]))
    pn = np.polynomial.legendre.Legendre.basis(n)(nodes)
    weights = 2.0 / (n * (n + 1) * pn**2)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _points_for_exactness(exactness: int) -> int:
    return max(1, (int(exactness) + 2) // 2)


def segment_rules(a, b, exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rules on segments from a to b, each (..., 2): points
    (..., n, 2) and weights (..., n)."""
    if exactness < 0:
        raise ValueError("exactness must be nonnegative")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x, w = gauss_legendre(_points_for_exactness(exactness))
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[..., None, :] + x[:, None] * half[..., None, :]
    length = np.hypot(b[..., 0] - a[..., 0], b[..., 1] - a[..., 1])
    return pts, w * (0.5 * length)[..., None]


def triangle_rules(v0, v1, v2, exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive-weight tensor Gauss rules, exact to `exactness`, on a batch of
    triangles with vertices of shape (..., 2): points (..., n, 2) and weights
    (..., n).

    Uses the Duffy map (u, v) -> v0 + u*(v1-v0) + v*(1-u)*(v2-v0); the extra
    Jacobian factor (1-u) raises the u-degree by one.
    """
    d = max(0, int(exactness))
    xu, wu = gauss_legendre(_points_for_exactness(d + 1))
    xv, wv = gauss_legendre(_points_for_exactness(d))
    u = 0.5 * (xu + 1.0)
    v = 0.5 * (xv + 1.0)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ww = np.outer(0.5 * wu, 0.5 * wv) * (1.0 - uu)
    v0 = np.asarray(v0, dtype=float)
    d1 = np.asarray(v1, dtype=float) - v0
    d2 = np.asarray(v2, dtype=float) - v0
    pts = (
        v0[..., None, None, :]
        + uu[..., None] * d1[..., None, None, :]
        + (vv * (1.0 - uu))[..., None] * d2[..., None, None, :]
    )
    wts = ww * np.abs(_cross(d1, d2))[..., None, None]
    lead = pts.shape[:-3]
    return pts.reshape(*lead, -1, 2), wts.reshape(*lead, -1)


def _cross(p, q):
    return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]


def polygon_area(verts: np.ndarray) -> float:
    """Signed shoelace area (positive for counter-clockwise loops)."""
    return float(polygon_shoelace(verts)[0])


def polygon_centroid(verts: np.ndarray) -> np.ndarray:
    return polygon_shoelace(verts)[1]


def polygon_shoelace(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed areas (...) and centroids (..., 2) of polygons (..., n, 2) by the
    shoelace formula, the vertex mean for an area below 1e-300.  The sums run
    along the contiguous vertex axis, so each polygon of a stack gets the bits
    of a one-polygon call."""
    v = np.asarray(verts, dtype=float)
    x, y = v[..., 0], v[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cr = x * yn - xn * y
    a = 0.5 * np.sum(cr, axis=-1)
    with np.errstate(all="ignore"):
        c = np.stack([np.sum((x + xn) * cr, axis=-1), np.sum((y + yn) * cr, axis=-1)], axis=-1)
        c = c / (6.0 * a)[..., None]
    return a, np.where((np.abs(a) < 1e-300)[..., None], np.mean(v, axis=-2), c)


def triangulate_polygon(verts: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Triangulate a simple CCW polygon.

    Tries the centroid fan first; falls back to ear clipping for cells that
    are not star shaped with respect to their centroid (staircase unions,
    loaded meshes).  Raises ValueError for non-simple input: two edges that
    cross, on either path, or a loop the clipping cannot cover.
    """
    v = np.asarray(verts, dtype=float)
    if len(v) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    area = polygon_area(v)
    if area <= 0.0:
        raise ValueError("polygon must be counter-clockwise with positive area")
    c = polygon_centroid(v)
    t2, fan_ok = fan_check(v, c, area)
    tris = ([(c, v[i], v[(i + 1) % len(v)]) for i in range(len(v)) if t2[i] > 0.0]
            if fan_ok else _ear_clip(v, area))
    if _edges_cross(v):  # the fan and the clip can both cover the signed area of a crossing loop
        raise ValueError("polygon edges cross; polygon is non-simple")
    return tris


def _edges_cross(v: np.ndarray) -> bool:
    """Whether two non-adjacent edges of the loop cross at an interior point
    of both."""
    a, d = v, np.roll(v, -1, axis=0) - v
    i, j = np.triu_indices(len(v), 2)
    keep = j - i < len(v) - 1  # the last edge meets the first
    i, j = i[keep], j[keep]
    sides_of_j = _cross(d[i], a[j] - a[i]) * _cross(d[i], a[j] + d[j] - a[i])
    sides_of_i = _cross(d[j], a[i] - a[j]) * _cross(d[j], a[i] + d[i] - a[j])
    return bool(np.any((sides_of_j < 0.0) & (sides_of_i < 0.0)))


def fan_check(verts: np.ndarray, centroid: np.ndarray, area) -> tuple[np.ndarray, np.ndarray]:
    """Doubled areas (..., nv) of the centroid-fan triangles of polygons
    (..., nv, 2), and whether the fan covers each polygon (no triangle
    inverted beyond roundoff, fan area equal to the polygon area)."""
    c = np.asarray(centroid)[..., None, :]
    t2 = _cross(verts - c, np.roll(verts, -1, axis=-2) - c)
    fan_area = 0.0
    for i in range(t2.shape[-1]):  # summed in loop order
        fan_area = fan_area + 0.5 * t2[..., i]
    ok = np.all(t2 >= -1e-13 * np.asarray(area)[..., None], axis=-1)
    return t2, ok & (np.abs(fan_area - area) <= 1e-12 * np.abs(area))


def _ear_clip(v: np.ndarray, area: float) -> list:
    idx = list(range(len(v)))
    tris = []
    scale = max(1.0, float(np.max(np.abs(v))))
    eps = 1e-13 * scale * scale
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * len(v) * len(v):
            raise ValueError("ear clipping failed; polygon may be non-simple")
        clipped = False
        n = len(idx)
        # prefer strictly convex ears, then flat (collinear) vertices
        for want_flat in (False, True):
            for j in range(n):
                i0, i1, i2 = idx[j - 1], idx[j], idx[(j + 1) % n]
                a, b, c = v[i0], v[i1], v[i2]
                cr = _cross(b - a, c - a)
                if want_flat:
                    # drop a vertex lying on the segment a-c (angle pi)
                    if abs(cr) <= eps and np.dot(b - a, c - b) > 0.0:
                        idx.pop(j)
                        clipped = True
                        break
                    continue
                if cr <= eps:
                    continue
                if any(
                    _point_in_tri(v[m], a, b, c, eps)
                    for m in idx
                    if m not in (i0, i1, i2)
                ):
                    continue
                tris.append((a, b, c))
                idx.pop(j)
                clipped = True
                break
            if clipped:
                break
        if not clipped:
            raise ValueError("ear clipping failed; polygon may be non-simple")
    a, b, c = v[idx[0]], v[idx[1]], v[idx[2]]
    if _cross(b - a, c - a) > eps:
        tris.append((a, b, c))
    got = sum(0.5 * abs(_cross(t[1] - t[0], t[2] - t[0])) for t in tris)
    if abs(got - area) > 1e-10 * max(abs(area), 1.0):
        raise ValueError("triangulation area mismatch; polygon may be non-simple")
    return tris


def box_rules(boxes: np.ndarray, exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss rules on box decompositions (..., m, 4): points
    (..., m * n * n, 2) and weights, box after box."""
    x, w = gauss_legendre(_points_for_exactness(exactness))
    x0, y0, x1, y1 = (boxes[..., j, None] for j in range(4))
    gx = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * x
    gy = 0.5 * (y0 + y1) + 0.5 * (y1 - y0) * x
    wts = (0.5 * (x1 - x0) * w)[..., :, None] * (0.5 * (y1 - y0) * w)[..., None, :]
    pts = np.stack(np.broadcast_arrays(gx[..., :, None], gy[..., None, :]), axis=-1)
    lead = boxes.shape[:-2]
    return pts.reshape(*lead, -1, 2), wts.reshape(*lead, -1)


def batch_runs(keys) -> list:
    """Positions of the items in runs of equal keys, at most _CHUNK a run
    (which bounds a batched kernel's temporaries); keys in order of first
    appearance."""
    groups: dict = {}
    for pos, key in enumerate(keys):
        groups.setdefault(key, []).append(pos)
    return [positions[start:start + _CHUNK] for positions in groups.values()
            for start in range(0, len(positions), _CHUNK)]


def map_batches(keys, items, kernel, *args) -> list:
    """Apply `kernel(batch, *args)` to the `batch_runs` of items with equal
    keys.  The kernel returns one result per item; they come back in item
    order."""
    out = [None] * len(items)
    for run in batch_runs(keys):
        for pos, result in zip(run, kernel([items[p] for p in run], *args)):
            out[pos] = result
    return out


def _point_in_tri(p, a, b, c, eps) -> bool:
    d1 = _cross(b - a, p - a)
    d2 = _cross(c - b, p - b)
    d3 = _cross(a - c, p - c)
    return d1 >= -eps and d2 >= -eps and d3 >= -eps
