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
    QuadratureRule,
    box_rules,
    fan_check,
    polygon_rule,
    polygon_shoelace,
    segment_lobatto_points,
    segment_rule,
    map_batches,
    triangle_rules,
)

__all__ = [
    "PolygonalMesh",
    "MeshQualityReport",
    "cell_quadrature",
    "cell_quadratures",
    "edge_quadrature",
    "gauss_lobatto_nodes",
    "quality_report",
    "mesh_to_json",
    "mesh_from_json",
]

_AREA_RTOL = 1e-12


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

    def cell_vertices(self, cell: int) -> np.ndarray:
        return self.vertices[self.cells[cell]]

    def cell_edges(self, cell: int) -> list:
        """Edge indices of a cell in loop order (edge i joins loop vertices i, i+1)."""
        return self.cell_edge_ids[cell]

    def boundary_edge_cell(self, edge: int) -> int:
        return int(self.edge_cells[edge, 0])


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
        raise ValueError(f"edge {bad[0]} normal does not point out of cell {owners[bad[0]]}")

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


def cell_quadrature(mesh: PolygonalMesh, cell: int, exactness: int) -> QuadratureRule:
    """Quadrature rule on one cell, exact for polynomials up to `exactness`."""
    boxes = mesh.cell_boxes.get(cell)
    try:
        return polygon_rule(mesh.cell_vertices(cell), exactness, boxes=boxes)
    except ValueError as exc:
        raise ValueError(f"cell {cell}: {exc}") from exc


def cell_quadratures(mesh: PolygonalMesh, cells, exactness: int) -> list:
    """`cell_quadrature` of each of `cells`, evaluated in batches of one
    shape: box cells by box count, other cells as centroid fans by vertex
    count.  A cell the full fan does not cover gets its own rule."""
    if exactness < 0:
        raise ValueError("exactness must be nonnegative")
    cells = list(cells)
    keys = [(len(mesh.cell_boxes.get(c, ())), len(mesh.cells[c])) for c in cells]
    return map_batches(keys, cells, _cell_rules, mesh, exactness)


def _cell_rules(cells: list, mesh: PolygonalMesh, exactness: int) -> list:
    if len(mesh.cell_boxes.get(cells[0], ())):
        boxes = np.array([mesh.cell_boxes[c] for c in cells], dtype=float)
        pts, wts = box_rules(boxes, exactness)
        full = np.ones(len(cells), dtype=bool)
    else:
        verts = mesh.vertices[[mesh.cells[c] for c in cells]]
        centroids = mesh.cell_centroids[cells]
        t2, full = fan_check(verts, centroids, mesh.cell_areas[cells])
        full &= np.all(t2 > 0.0, axis=1)  # the one-cell rule drops flat triangles
        pts, wts = triangle_rules(centroids[:, None, :], verts, np.roll(verts, -1, axis=1),
                                  exactness)
        pts, wts = pts.reshape(len(cells), -1, 2), wts.reshape(len(cells), -1)
    return [QuadratureRule(p, w) if ok else cell_quadrature(mesh, c, exactness)
            for c, p, w, ok in zip(cells, pts, wts, full)]


def edge_quadrature(mesh: PolygonalMesh, edge: int, exactness: int) -> QuadratureRule:
    a, b = mesh.edges[edge]
    return segment_rule(mesh.vertices[a], mesh.vertices[b], exactness)


def gauss_lobatto_nodes(mesh: PolygonalMesh, edge: int, k: int) -> np.ndarray:
    """The k+1 Gauss-Lobatto points of an edge (endpoints plus k-1 interior)."""
    a, b = mesh.edges[edge]
    return segment_lobatto_points(mesh.vertices[a], mesh.vertices[b], k)


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


def _inscribed_radii(pts: np.ndarray, centroids: np.ndarray, samples: int = 12) -> np.ndarray:
    """Largest distance from an interior sample point to the cell boundary,
    for cells (B, nv, 2) of one vertex count.

    Samples the centroid plus a grid over the bounding box filtered to the
    polygon interior; a cheap lower estimate of the inradius, good enough
    for the mesh-regularity diagnostic.
    """
    lo = pts.min(axis=1)[..., None]
    hi = pts.max(axis=1)[..., None]
    # interior nodes of np.linspace(lo, hi, samples + 2), as linspace computes them
    xs, ys = np.moveaxis(np.arange(1, samples + 1) * ((hi - lo) / (samples + 1)) + lo, 1, 0)
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
    return np.where(np.any(inside, axis=1), np.max(np.where(inside, dmin, -np.inf), axis=1), 0.0)


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


def _cell_quality(cells: list, mesh: PolygonalMesh) -> np.ndarray:
    """Shortest vertex distance and inradius estimate over diameter, per cell."""
    pts = mesh.vertices[[mesh.cells[c] for c in cells]]
    d2 = np.sum((pts[:, :, None, :] - pts[:, None, :, :]) ** 2, axis=-1)
    diag = np.arange(pts.shape[1])
    d2[:, diag, diag] = np.inf
    rho = _inscribed_radii(pts, mesh.cell_centroids[cells])
    return np.column_stack([np.sqrt(np.min(d2, axis=(1, 2))), rho / mesh.cell_diameters[cells]])


def quality_report(mesh: PolygonalMesh) -> MeshQualityReport:
    per_cell = map_batches([len(loop) for loop in mesh.cells], range(mesh.n_cells),
                           _cell_quality, mesh)
    h_min, gamma0 = np.min(per_cell, axis=0)
    return MeshQualityReport(
        n_cells=mesh.n_cells,
        n_edges=mesh.n_edges,
        n_vertices=mesh.n_vertices,
        h=float(np.max(mesh.cell_diameters)),
        h_mean=float(np.mean(mesh.cell_diameters)),
        h_min=float(h_min),
        gamma0_estimate=float(gamma0),
        max_edges_per_cell=max(len(loop) for loop in mesh.cells),
    )


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
