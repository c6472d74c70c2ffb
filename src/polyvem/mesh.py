"""Polygonal mesh representation, geometric quantities and quadrature access.

A mesh stores vertices, counter-clockwise cell loops, the derived edge table
with adjacency, and per-entity geometry (centroids, areas, diameters, edge
lengths/midpoints/normals).  Meshes are immutable after construction and can
be serialized to a small JSON schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .quadrature import (
    _cross,
    _edges_cross,
    batch_runs,
    box_rules,
    fan_check,
    polygon_shoelace,
    map_batches,
    triangle_rules,
    triangulate_polygon,
)

__all__ = [
    "PolygonalMesh",
    "MeshQualityReport",
    "cell_quadratures",
    "quality_report",
    "mesh_to_json",
    "mesh_from_json",
]

_AREA_RTOL = 1e-12


def check_number(name: str, value, low, integer: bool = False) -> None:
    """Raise a ValueError naming `name` unless `value` is an integer >= low
    (integer) or a finite real > low; bools are neither."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    ok = isinstance(value, kinds) and not isinstance(value, bool)
    if integer:
        ok, what = ok and value >= low, f"an integer >= {low}"
    else:
        ok, what = ok and bool(np.isfinite(value)) and value > low, f"a finite number > {low}"
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class PolygonalMesh:
    """Immutable 2D polygonal mesh.

    vertices : (N_V, 2) float array
    cells    : list of CCW vertex-index loops
    edges    : (N_E, 2) vertex pairs, low index first, sorted
    edge_cells : (N_E, 2) adjacent cell indices, -1 for missing (boundary)
    boundary_edges : indices into `edges` with exactly one adjacent cell
    cell_edge_ids : per cell, its edge indices in loop order (edge i joins
        loop vertices i, i+1)
    cell_boxes : optional axis-aligned box decomposition per cell, used for
        exact quadrature on union-of-squares cells
    """

    vertices: np.ndarray
    cells: list
    edges: np.ndarray
    edge_cells: np.ndarray
    boundary_edges: np.ndarray
    cell_edge_ids: list
    cell_centroids: np.ndarray
    cell_areas: np.ndarray
    cell_diameters: np.ndarray
    edge_lengths: np.ndarray
    edge_midpoints: np.ndarray
    edge_normals: np.ndarray
    boundary_levelset: str | None = None
    cell_boxes: dict = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def build_mesh(
    vertices: np.ndarray,
    cells: list,
    boundary_levelset: str | None = None,
    cell_boxes: dict | None = None,
    expected_area: float | None = None,
) -> PolygonalMesh:
    """Assemble a PolygonalMesh from vertices and cell loops, validating the
    invariants (CCW simple loops, positive areas, edge adjacency counts,
    outward boundary normals and, when requested, the partition property)."""
    vertices = np.asarray(vertices, dtype=float)
    cells = [list(map(int, loop)) for loop in cells]
    if not cells:
        raise ValueError("mesh has no cells")

    sizes = np.array([len(loop) for loop in cells])
    geometry = np.array(map_batches(sizes.tolist(), range(len(cells)), _cell_geometry,
                                    cells, vertices))
    if np.any(geometry[:, 0]):
        ci = int(np.argmax(geometry[:, 0] > 0))
        bad = next((v for v in cells[ci] if not -len(vertices) <= v < len(vertices)), None)
        raise ValueError(f"cell {ci} " + (
            "has fewer than 3 vertices", "repeats a vertex",
            f"has vertex index {bad} out of range for {len(vertices)} vertices",
            "is not counter-clockwise or has zero area")[int(geometry[ci, 0]) - 1])
    areas, centroids, diams = geometry[:, 1].copy(), geometry[:, 2:4].copy(), geometry[:, 4].copy()

    # half-edges tails -> heads in cell order, then loop order; an edge is a
    # sorted vertex pair, and its first half-edge fixes its first cell
    tails = np.concatenate(cells)
    heads = np.concatenate([loop[1:] + loop[:1] for loop in cells])
    half_cell = np.repeat(np.arange(len(cells)), sizes)
    edges, first, inverse, counts = np.unique(
        np.sort(np.column_stack([tails, heads]), axis=1), axis=0,
        return_index=True, return_inverse=True, return_counts=True)
    if np.any(counts > 2):
        a, b = edges[np.argmax(counts > 2)].tolist()
        raise ValueError(f"edge ({a}, {b}) is shared by more than two cells")
    last = np.argsort(inverse, kind="stable")[np.cumsum(counts) - 1]
    edge_cells = np.column_stack([half_cell[first], np.where(counts == 2, half_cell[last], -1)])
    boundary = np.flatnonzero(counts == 1)
    cell_edge_ids = [ids.tolist() for ids in np.split(inverse, np.cumsum(sizes)[:-1])]

    lengths = np.hypot(
        vertices[edges[:, 1], 0] - vertices[edges[:, 0], 0],
        vertices[edges[:, 1], 1] - vertices[edges[:, 0], 1],
    )
    if np.any(lengths <= 0.0):
        raise ValueError("mesh contains a zero-length edge")
    midpoints = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])

    # normals: the first half-edge's CCW direction rotated by -90 degrees,
    # outward from the first adjacent cell (for boundary edges the unique
    # cell, so the normal points out of the mesh); a point-in-polygon probe
    # rejects a self-intersecting loop of positive area (the convex shortcut
    # nu . (mid - centroid) > 0 fails on staircase cells)
    d = vertices[heads[first]] - vertices[tails[first]]
    normals = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
    owners = edge_cells[:, 0]
    probes = midpoints + (1e-9 * diams[owners])[:, None] * normals
    inside = map_batches(sizes[owners].tolist(), range(len(edges)), _probes_inside,
                         probes, owners, cells, vertices)
    bad = np.flatnonzero(inside)
    if len(bad):
        e, c = int(bad[0]), int(owners[bad[0]])
        crossing = f"cell {c} has crossing edges: " if _edges_cross(vertices[cells[c]]) else ""
        raise ValueError(f"{crossing}edge {e} normal does not point out of cell {c}")

    mesh = PolygonalMesh(
        vertices=vertices,
        cells=cells,
        edges=edges,
        edge_cells=edge_cells,
        boundary_edges=boundary,
        cell_edge_ids=cell_edge_ids,
        cell_centroids=centroids,
        cell_areas=areas,
        cell_diameters=diams,
        edge_lengths=lengths,
        edge_midpoints=midpoints,
        edge_normals=normals,
        boundary_levelset=boundary_levelset,
        cell_boxes=dict(cell_boxes or {}),
    )
    if expected_area is not None:
        total = float(np.sum(areas))
        if abs(total - expected_area) > _AREA_RTOL * max(abs(expected_area), 1.0):
            raise ValueError(
                f"cells do not tile the domain: sum of areas {total!r} vs {expected_area!r}"
            )
    mesh.vertices.setflags(write=False)
    mesh.edges.setflags(write=False)
    return mesh


def _cell_geometry(batch: list, cells: list, vertices: np.ndarray) -> np.ndarray:
    """Rows (fault, area, centroid x, centroid y, diameter) for cells of one
    vertex count.  The fault is the cell's first failing check, in the order
    fewer than 3 vertices (1), repeated vertex (2), vertex index out of range
    (3), not counter-clockwise (4); 0 when all pass."""
    out = np.zeros((len(batch), 5))
    if len(cells[batch[0]]) < 3:
        out[:, 0] = 1
        return out
    loops = np.array([cells[c] for c in batch])
    ordered = np.sort(loops, axis=1)
    outside = np.any((loops < -len(vertices)) | (loops >= len(vertices)), axis=1)
    pts = vertices[np.where(outside[:, None], 0, loops)]
    area, out[:, 2:4] = polygon_shoelace(pts)
    d2 = np.sum((pts[:, :, None, :] - pts[:, None, :, :]) ** 2, axis=-1)
    out[:, 1], out[:, 4] = area, np.sqrt(np.max(d2, axis=(1, 2)))
    out[:, 0] = np.select([np.any(ordered[:, 1:] == ordered[:, :-1], axis=1), outside,
                           area <= 0.0], [2, 3, 4])
    return out


def cell_quadratures(mesh: PolygonalMesh, exactness: int) -> list:
    """The rules of every cell, exact to `exactness`, as stacks (cells (nb,),
    points (nb, nq, 2), weights (nb, nq)) of at most 256 cells of one shape:
    box cells by box count, other cells as centroid fans by vertex count.  A
    cell the full fan does not cover is triangulated by `triangulate_polygon`
    and stacked with the cells of its vertex count that have as many
    triangles."""
    if exactness < 0:
        raise ValueError("exactness must be nonnegative")
    keys = [(len(mesh.cell_boxes.get(c, ())), len(loop)) for c, loop in enumerate(mesh.cells)]
    return [stack for run in batch_runs(keys) for stack in _cell_rules(np.array(run), mesh, exactness)]


def _cell_rules(cells: np.ndarray, mesh: PolygonalMesh, exactness: int) -> list:
    if len(mesh.cell_boxes.get(cells[0], ())):
        boxes = np.array([mesh.cell_boxes[c] for c in cells], dtype=float)
        return [(cells, *box_rules(boxes, exactness))]
    verts = mesh.vertices[[mesh.cells[c] for c in cells]]
    centroids = mesh.cell_centroids[cells]
    t2, full = fan_check(verts, centroids, mesh.cell_areas[cells])
    full &= np.all(t2 > 0.0, axis=1)  # a flat fan triangle is dropped by triangulate_polygon
    fan = verts[full]
    groups = [(cells[full], (centroids[full, None, :], fan, np.roll(fan, -1, axis=1)))]
    rest, tris = cells[~full], []
    for c, v in zip(rest, verts[~full]):
        try:
            tris.append(np.array(triangulate_polygon(v)))
        except ValueError as exc:
            raise ValueError(f"cell {c}: {exc}") from exc
    groups += [(rest[run], np.moveaxis(np.array([tris[i] for i in run]), 2, 0))
               for run in batch_runs([len(t) for t in tris])]
    stacks = []
    for group, corners in groups:
        if len(group):
            pts, wts = triangle_rules(*corners, exactness)
            stacks.append((group, pts.reshape(len(group), -1, 2), wts.reshape(len(group), -1)))
    return stacks


@dataclass(frozen=True)
class MeshQualityReport:
    n_cells: int
    n_edges: int
    n_vertices: int
    h: float
    h_mean: float
    h_min: float
    gamma0_estimate: float
    max_edges_per_cell: int

    def as_dict(self) -> dict:
        return {
            "N_P": self.n_cells,
            "N_E": self.n_edges,
            "N_V": self.n_vertices,
            "h": self.h,
            "h_mean": self.h_mean,
            "h_min": self.h_min,
            "gamma0_estimate": self.gamma0_estimate,
            "max_edges_per_cell": self.max_edges_per_cell,
        }


def _inradius_ratios(cells: list, mesh: PolygonalMesh) -> np.ndarray:
    """Largest distance from an interior sample point to the cell boundary,
    over the diameter, for cells of one vertex count.

    Samples the centroid plus a grid over the bounding box filtered to the
    polygon interior; a cheap lower estimate of the inradius, good enough
    for the mesh-regularity diagnostic.
    """
    pts, centroids = mesh.vertices[[mesh.cells[c] for c in cells]], mesh.cell_centroids[cells]
    lo = pts.min(axis=1)[..., None]
    hi = pts.max(axis=1)[..., None]
    # interior nodes of np.linspace(lo, hi, n + 2), as linspace computes them
    n = 12  # grid nodes per side
    xs, ys = np.moveaxis(np.arange(1, n + 1) * ((hi - lo) / (n + 1)) + lo, 1, 0)
    grid = np.stack(np.broadcast_arrays(xs[:, :, None], ys[:, None, :]), axis=-1)
    cand = np.concatenate([centroids[:, None, :], grid.reshape(len(pts), -1, 2)], axis=1)

    e = np.roll(pts, -1, axis=1) - pts
    w = cand[:, None, :, :] - pts[:, :, None, :]  # (B, nv, n_cand, 2)
    ee = (e[..., None, :] @ e[..., :, None])[..., 0]
    t = np.clip((w @ e[..., None])[..., 0] / ee, 0.0, 1.0)
    proj = pts[:, :, None, :] + t[..., None] * e[:, :, None, :]
    diff = cand[:, None, :, :] - proj
    dmin = np.min(np.hypot(diff[..., 0], diff[..., 1]), axis=1)
    inside = _points_in_polygon(cand, pts)
    rho = np.where(np.any(inside, axis=1), np.max(np.where(inside, dmin, -np.inf), axis=1), 0.0)
    return rho / mesh.cell_diameters[cells]


def _points_in_polygon(cand: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Even-odd test of points (..., m, 2) against polygons (..., n, 2)."""
    x, y = cand[..., 0], cand[..., 1]
    inside = np.zeros(x.shape, dtype=bool)
    n = pts.shape[-2]
    j = n - 1
    for i in range(n):
        xi, yi = pts[..., i, 0, None], pts[..., i, 1, None]
        xj, yj = pts[..., j, 0, None], pts[..., j, 1, None]
        crosses = (yi > y) != (yj > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = xi + (y - yi) * (xj - xi) / (yj - yi)
        inside ^= crosses & (x < xint)
        j = i
    return inside


def _probes_inside(edges: list, probes: np.ndarray, owners: np.ndarray, cells: list,
                   vertices: np.ndarray) -> np.ndarray:
    """Whether each edge's probe point lies inside its owning cell."""
    return _points_in_polygon(probes[edges, None, :],
                              vertices[[cells[c] for c in owners[edges]]])[:, 0]


def _shortest_sides(cells: list, mesh: PolygonalMesh) -> np.ndarray:
    """Shortest distance between two vertices of each cell."""
    pts = mesh.vertices[[mesh.cells[c] for c in cells]]
    d2 = np.sum((pts[:, :, None, :] - pts[:, None, :, :]) ** 2, axis=-1)
    return np.sqrt(np.min(d2 + np.diag(np.full(pts.shape[1], np.inf)), axis=(1, 2)))


def _ratio_bounds(mesh: PolygonalMesh) -> tuple:
    """Bounds lower <= `_inradius_ratios` <= upper of every cell, from one pass
    over the half-edges: the centroid's distance to the boundary (0 when it
    lies outside), and sqrt(A / pi), or 2A / P when the cell is convex."""
    sizes = np.fromiter(map(len, mesh.cells), dtype=np.int64, count=mesh.n_cells)
    starts = np.cumsum(sizes) - sizes
    a = mesh.vertices[np.concatenate(mesh.cells)]
    nxt = np.arange(1, len(a) + 1)
    nxt[starts + sizes - 1] = starts
    e, w = a[nxt] - a, np.repeat(mesh.cell_centroids, sizes, axis=0) - a
    t = np.clip((w[:, 0] * e[:, 0] + w[:, 1] * e[:, 1]) / (e[:, 0] ** 2 + e[:, 1] ** 2), 0.0, 1.0)
    dist = np.minimum.reduceat(np.hypot(w[:, 0] - t * e[:, 0], w[:, 1] - t * e[:, 1]), starts)
    # even-odd count of the edges crossing the rightward ray from the centroid:
    # x < x_cross without the division is (w x e) e_y < 0
    crossing = ((w[:, 1] < 0.0) != (w[:, 1] < e[:, 1])) & (_cross(w, e) * e[:, 1] < 0.0)
    inside = np.add.reduceat(crossing, starts) % 2 == 1
    convex = np.logical_and.reduceat(_cross(e, e[nxt]) >= 0.0, starts)
    area, perimeter = mesh.cell_areas, np.add.reduceat(np.hypot(e[:, 0], e[:, 1]), starts)
    upper = np.where(convex, 2.0 * area / perimeter, np.sqrt(area / np.pi))
    return np.where(inside, dist, 0.0) / mesh.cell_diameters, upper / mesh.cell_diameters


def quality_report(mesh: PolygonalMesh) -> MeshQualityReport:
    """Mesh sizes and gamma0, sampled only on the cells whose bounds let them
    attain it; the 1e-9 margin covers the rounding of the bounds."""
    sizes = [len(loop) for loop in mesh.cells]
    h_min = np.min(map_batches(sizes, range(mesh.n_cells), _shortest_sides, mesh))
    lower, upper = _ratio_bounds(mesh)
    keep = np.flatnonzero(lower <= np.min(upper) * (1.0 + 1e-9)).tolist()
    gamma0 = np.min(map_batches([sizes[c] for c in keep], keep, _inradius_ratios, mesh))
    return MeshQualityReport(
        n_cells=mesh.n_cells, n_edges=mesh.n_edges, n_vertices=mesh.n_vertices,
        h=float(np.max(mesh.cell_diameters)), h_mean=float(np.mean(mesh.cell_diameters)),
        h_min=float(h_min), gamma0_estimate=float(gamma0), max_edges_per_cell=max(sizes))


def mesh_to_json(mesh: PolygonalMesh, path=None) -> str:
    doc = {
        "vertices": [[float(x), float(y)] for x, y in mesh.vertices],
        "cells": [list(map(int, loop)) for loop in mesh.cells],
    }
    if mesh.boundary_levelset is not None:
        doc["boundary_levelset"] = mesh.boundary_levelset
    text = json.dumps(doc)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def mesh_from_json(source) -> PolygonalMesh:
    """Load a mesh from a JSON string or file path, validating all invariants."""
    if isinstance(source, str) and source.lstrip().startswith("{"):
        doc = json.loads(source)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    return build_mesh(
        np.asarray(doc["vertices"], dtype=float),
        doc["cells"],
        boundary_levelset=doc.get("boundary_levelset"),
    )
