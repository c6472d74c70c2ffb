import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyvem import (
    build_structured_mesh,
    mesh_from_json,
    mesh_to_json,
    quality_report,
)
from polyvem.mesh import build_mesh
from polyvem.quadrature import gauss_lobatto, segment_rules
from conftest import cell_rule, fuzz


def boundary_loops(mesh):
    """Chain boundary edges into closed vertex loops."""
    succ = {}
    for e in mesh.boundary_edges:
        a, b = mesh.edges[e]
        cell = mesh.edge_cells[e, 0]
        loop = mesh.cells[cell]
        pos = loop.index(a)
        if loop[(pos + 1) % len(loop)] == b:
            succ[a] = b
        else:
            succ[b] = a
    loops = []
    while succ:
        start = next(iter(succ))
        cur = start
        loop = [start]
        while True:
            cur = succ.pop(cur)
            if cur == start:
                break
            loop.append(cur)
        loops.append(loop)
    return loops


def total_turning(mesh, loop):
    pts = mesh.vertices[loop]
    d = np.roll(pts, -1, axis=0) - pts
    ang = 0.0
    for i in range(len(d)):
        a = d[i - 1]
        b = d[i]
        ang += np.arctan2(a[0] * b[1] - a[1] * b[0], a @ b)
    return ang


def test_structured_single_cell():
    m = build_structured_mesh((0, 0, 1, 1), 1, 1)
    assert m.n_cells == 1
    assert abs(m.cell_areas[0] - 1.0) <= 1e-15
    assert abs(m.cell_diameters[0] - np.sqrt(2.0)) <= 1e-15
    assert len(m.boundary_edges) == 4


def test_structured_2x2_counts():
    m = build_structured_mesh((0, 0, 1, 1), 2, 2)
    assert m.n_cells == 4
    assert len(m.boundary_edges) == 8
    assert m.n_edges - len(m.boundary_edges) == 4  # interior edges


def test_structured_rectangle_areas():
    m = build_structured_mesh((0, 0, 2, 1), 2, 1)
    np.testing.assert_allclose(m.cell_areas, [1.0, 1.0])


def test_partition_property():
    m = build_structured_mesh((0, 0, 1, 1), 7, 3)
    assert abs(np.sum(m.cell_areas) - 1.0) <= 1e-12


def test_diameter_is_max_vertex_distance():
    m = build_structured_mesh((0, 0, 3, 1), 3, 1)
    assert np.allclose(m.cell_diameters, np.sqrt(2.0))


def test_boundary_normals_outward():
    m = build_structured_mesh((0, 0, 1, 1), 2, 2)
    for e in m.boundary_edges:
        c = m.edge_cells[e, 0]
        assert np.dot(m.edge_normals[e], m.edge_midpoints[e] - m.cell_centroids[c]) > 0


def test_boundary_closure_turning():
    from polyvem import build_disk_approx_mesh, build_squares_approx_mesh, build_voronoi_mesh
    from polyvem.levelset import circle, quarter_disk

    meshes = [
        build_structured_mesh((0, 0, 1, 1), 3, 3),
        build_voronoi_mesh(None, 20, lloyd_iters=1, rng_seed=4),
        build_disk_approx_mesh(circle(), 16, 3),
        build_squares_approx_mesh(quarter_disk(), 6, 2),
    ]
    for m in meshes:
        loops = boundary_loops(m)
        assert len(loops) == 1
        assert abs(abs(total_turning(m, loops[0])) - 2 * np.pi) <= 1e-9


def test_quality_2x2():
    q = quality_report(build_structured_mesh((0, 0, 1, 1), 2, 2))
    assert abs(q.h - np.sqrt(2) / 2) <= 1e-14
    assert abs(q.h_mean - np.sqrt(2) / 2) <= 1e-14
    assert abs(q.h_min - 0.5) <= 1e-14
    assert 0 < q.h_min <= q.h_mean <= q.h


def test_quality_single_cell_gamma0():
    q = quality_report(build_structured_mesh((0, 0, 1, 1), 1, 1))
    # inradius 1/2 over diameter sqrt(2)
    assert abs(q.gamma0_estimate - 0.5 / np.sqrt(2.0)) <= 0.02
    assert 0 < q.gamma0_estimate <= 1.0


def test_euler_formula():
    for nx, ny in [(1, 1), (3, 2), (5, 5)]:
        q = quality_report(build_structured_mesh((0, 0, 1, 1), nx, ny))
        assert q.n_vertices - q.n_edges + q.n_cells == 1


def test_cell_quadrature_exactness():
    m = build_structured_mesh((0, 0, 1, 1), 2, 2)
    points, weights = cell_rule(m, 0, 4)
    got = weights @ (points[:, 0] ** 2 * points[:, 1] ** 2)
    # cell [0, 1/2]^2: (int_0^{1/2} x^2 dx)^2 = (1/24)^2
    assert abs(got - (1.0 / 24.0) ** 2) <= 1e-13
    assert abs(weights.sum() - 0.25) <= 1e-13


def test_edge_quadrature_and_lobatto():
    m = build_structured_mesh((0, 0, 1, 1), 1, 1)
    e = m.boundary_edges[0]
    _, weights = segment_rules(*m.vertices[m.edges[e]], 3)
    assert abs(np.sum(weights) - 1.0) <= 1e-14
    x, _ = gauss_lobatto(3)
    assert x.shape == (3,)


def test_json_roundtrip(tmp_path):
    m = build_structured_mesh((0, 0, 1, 1), 2, 3)
    path = tmp_path / "mesh.json"
    mesh_to_json(m, path)
    m2 = mesh_from_json(path)
    np.testing.assert_allclose(m.vertices, m2.vertices)
    assert m.cells == m2.cells
    # text form round-trips too
    m3 = mesh_from_json(mesh_to_json(m))
    assert m3.n_cells == m.n_cells


def test_voronoi_cell_quadrature_declared_exactness():
    from polyvem import build_voronoi_mesh
    m = build_voronoi_mesh(None, 9, rng_seed=2)
    for deg in (2, 5, 8):
        points, weights = cell_rule(m, 4, deg)
        ref_points, ref_weights = cell_rule(m, 4, deg + 4)
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                got = weights @ (points[:, 0] ** a * points[:, 1] ** b)
                want = ref_weights @ (ref_points[:, 0] ** a * ref_points[:, 1] ** b)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_json_keeps_levelset_name():
    from polyvem import build_disk_approx_mesh
    from polyvem.levelset import circle
    m = build_disk_approx_mesh(circle(), 8, 1)
    m2 = mesh_from_json(mesh_to_json(m))
    assert m2.boundary_levelset == "circle"


_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]


@pytest.mark.parametrize("doc,message", [
    ({"vertices": _SQUARE, "cells": [[0, 3, 2, 1]]},
     "cell 0 is not counter-clockwise or has zero area"),
    ({"vertices": [[0, 0], [1, 0]], "cells": []}, "mesh has no cells"),
    # these once built a cell of area NaN, read 2.7 as vertex 2 and true as
    # vertex 1, failed with numpy's broadcast message, or raised a KeyError
    ({"vertices": [[0, 0], [1, 0], [1, float("nan")], [0, 1]], "cells": [[0, 1, 2, 3]]},
     r"vertex 2 is not finite: \[1\.0, nan\]"),
    ({"vertices": _SQUARE, "cells": [[0, 1, 2, 3], [0, 1, 2.7]]},
     r"cell 1 has vertex index 2\.7, not an integer"),
    ({"vertices": _SQUARE, "cells": [[0, True, 2, 3]]},
     "cell 0 has vertex index True, not an integer"),
    ({"vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0]], "cells": [[0, 1, 2]]},
     r"vertices must be an \(n, 2\) array, got shape \(3, 3\)"),
    ({"vertices": _SQUARE}, "mesh JSON has no 'cells' key"),
    ({"cells": [[0, 1, 2, 3]]}, "mesh JSON has no 'vertices' key"),
    # these once raised "'int' object is not iterable" or numpy's message
    ({"vertices": _SQUARE, "cells": [[0, 1, 2, 3], 5]},
     "cell 1 is not a list of vertex indices: 5"),
    ({"vertices": _SQUARE, "cells": 5}, "cells must be a list of vertex loops, got 5"),
    ({"vertices": [[0, 0], [1, 0], [1]], "cells": [[0, 1, 2]]},
     r"vertices must be an \(n, 2\) array of numbers"),
    ({"vertices": [[0, 0], [1, 0], [1, "x"]], "cells": [[0, 1, 2]]},
     r"vertices must be an \(n, 2\) array of numbers"),
], ids=["clockwise", "no-cells", "nan-vertex", "float-index", "bool-index", "3d-vertices",
        "missing-cells", "missing-vertices", "int-cell", "int-cells", "ragged-vertices",
        "string-vertex"])
def test_json_rejects_malformed_mesh(doc, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        mesh_from_json(json.dumps(doc))


# any JSON value: small and large integers, floats with NaN and infinities,
# strings, bools, null, and lists and objects of them
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.integers(-2**64, 2**64) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=8)
_GRIDS = {n: mesh_to_json(build_structured_mesh((0.0, 0.0, 1.0, 1.0), n, 1)) for n in (1, 2, 3)}
# index edits on a grid's loops: (kind, cell, position, new index), the new
# index small or past the int64 range
_EDITS = st.tuples(st.sampled_from(["alias", "move", "reverse", "shorten"]), st.integers(0, 2),
                   st.integers(0, 3),
                   st.integers(-16, 16) | st.integers(2**63, 2**64)
                   | st.integers(-2**64, -2**63 - 1))


@fuzz(120)
@given(nx=st.sampled_from(list(_GRIDS)), edits=st.lists(_EDITS, max_size=2),
       fault=st.none() | st.sampled_from(["drop", "vertices", "cells", "vertex", "cell",
                                          "coordinate", "index"]),
       at=st.integers(0, 7), value=_JSON)
def test_json_mesh_is_built_or_refused_with_a_value_error(nx, edits, fault, at, value):
    # a grid whose loops take index edits (an index written as its negative
    # alias, moved, a loop reversed or shortened), then at most one field,
    # key, vertex, cell, coordinate or index replaced by any JSON value; a
    # draw either builds or raises a ValueError: any other exception is a
    # program fault
    doc = json.loads(_GRIDS[nx])
    vertices, cells = doc["vertices"], doc["cells"]
    for kind, i, j, index in edits:
        loop = cells[i % len(cells)]
        if kind == "alias":
            loop[j % len(loop)] -= len(vertices)
        elif kind == "move":
            loop[j % len(loop)] = index
        else:
            loop[:] = loop[::-1] if kind == "reverse" else loop[:-1]
    if fault == "drop":
        del doc[("vertices", "cells")[at % 2]]
    elif fault in ("vertices", "cells"):
        doc[fault] = value
    elif fault in ("vertex", "cell"):
        items = vertices if fault == "vertex" else cells
        items[at % len(items)] = value
    elif fault == "coordinate":
        vertices[at % len(vertices)][at % 2] = value
    elif fault == "index":
        loop = cells[at % len(cells)]
        loop[at % len(loop)] = value
    try:
        mesh = mesh_from_json(json.dumps(doc))
    except ValueError:
        return
    assert all(0 <= v < mesh.n_vertices for loop in mesh.cells for v in loop)
    assert np.all(mesh.cell_areas > 0.0) and np.all(np.isfinite(mesh.vertices))
    again = mesh_from_json(mesh_to_json(mesh))
    assert np.array_equal(again.vertices, mesh.vertices) and again.cells == mesh.cells


def test_json_rejects_overshared_edge():
    doc = {
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, -1]],
        "cells": [[0, 1, 2, 3], [0, 1, 2], [0, 4, 1]],
    }
    with pytest.raises(ValueError, match=r"^edge \(0, 1\) is shared by more than two cells$"):
        mesh_from_json(json.dumps(doc))


def test_build_mesh_rejects_zero_area():
    with pytest.raises(ValueError, match="cell 0 is not counter-clockwise or has zero area"):
        build_mesh(np.array([[0, 0], [1, 0], [2, 0]]), [[0, 1, 2]])


@pytest.mark.parametrize("verts,edge", [
    ([[0, 0], [4, 0], [4, 4], [0, 4], [0, 2.2], [-1, 1.8], [-1, 2.2], [0, 1.8]], 6),
    ([[0, 0], [4, 0], [4, 1.8], [5, 2.2], [5, 1.8], [4, 2.2], [4, 4], [0, 4],
      [0, 2.2], [-1, 1.8], [-1, 2.2], [0, 1.8]], 4),
    ([[0, 0], [2, 0], [2, 2], [0, 2], [1, -1], [3, 1]], 0),
    ([[0, 10], [-5.9, -8.1], [9.5, 3.1], [-9.5, 3.1], [5.9, -8.1]], 0),
], ids=["one-crossing", "two-crossings", "square-and-tail", "pentagram"])
def test_build_mesh_rejects_self_intersecting_loop(verts, edge):
    # positive signed area, but two sides cross: only the normal probe sees it,
    # and it names the cell, the crossing and the lowest failing edge
    with pytest.raises(ValueError, match=f"^cell 0 has crossing edges: "
                                         f"edge {edge} normal does not point out of cell 0$"):
        build_mesh(np.array(verts, dtype=float), [list(range(len(verts)))])


def reference_edge_table(vertices, cells):
    """Edge table by the dict-and-loop construction the half-edge pass replaced:
    edges, edge_cells, boundary_edges, edge_normals and per-cell edge lists."""
    edge_map = {}
    for ci, loop in enumerate(cells):
        for i in range(len(loop)):
            a, b = loop[i], loop[(i + 1) % len(loop)]
            edge_map.setdefault((min(a, b), max(a, b)), []).append(ci)
    edges = np.array(sorted(edge_map), dtype=int).reshape(-1, 2)
    edge_cells = np.full((len(edges), 2), -1, dtype=int)
    for ei, key in enumerate(map(tuple, edges)):
        edge_cells[ei, : len(edge_map[key])] = edge_map[key]
    boundary = np.array([i for i in range(len(edges)) if edge_cells[i, 1] < 0], dtype=int)
    normals = np.zeros((len(edges), 2))
    for ei in range(len(edges)):
        loop = cells[edge_cells[ei, 0]]
        a, b = edges[ei]
        pos = loop.index(a)
        d = vertices[b] - vertices[a] if loop[(pos + 1) % len(loop)] == b else vertices[a] - vertices[b]
        normals[ei] = np.array([d[1], -d[0]]) / np.hypot(*d)
    index = {(int(a), int(b)): i for i, (a, b) in enumerate(edges)}
    cell_edges = [[index[(min(a, b), max(a, b))] for a, b in zip(loop, loop[1:] + loop[:1])]
                  for loop in cells]
    return edges, edge_cells, boundary, normals, cell_edges


def _flat_and_nonstar_mesh():
    # a U-shaped (non-star) cell, the square in its notch, and an L-shaped cell
    # on top whose bottom side carries two collinear vertices and whose left
    # side one
    verts = [[0, 0], [3, 0], [3, 2], [2, 2], [2, 1], [1, 1], [1, 2], [0, 2],
             [3, 3], [1, 3], [1, 4], [0, 4], [0, 3]]
    cells = [[0, 1, 2, 3, 4, 5, 6, 7], [5, 4, 3, 6], [7, 6, 3, 2, 8, 9, 10, 11, 12]]
    return mesh_from_json(json.dumps({"vertices": verts, "cells": cells}))


def _edge_table_meshes():
    from polyvem import build_disk_approx_mesh, build_squares_approx_mesh, build_voronoi_mesh
    from polyvem.levelset import circle, ellipse, quarter_disk

    yield "structured", build_structured_mesh((-1, 0, 2, 1), 5, 3)
    for seed, lloyd in ((0, 0), (3, 1), (7, 2), (11, 3)):
        yield f"voronoi-{seed}-{lloyd}", build_voronoi_mesh(None, 48, lloyd, rng_seed=seed)
    yield "disk-circle", build_disk_approx_mesh(circle(), 24, 4)
    yield "disk-ellipse", build_disk_approx_mesh(ellipse(1.5, 0.8), 18, 3)
    yield "squares-quarter-disk", build_squares_approx_mesh(quarter_disk(), 8, 2)
    yield "squares-circle", build_squares_approx_mesh(circle((0.3, -0.2), 1.0), 7, 1)
    yield "json-flat-nonstar", _flat_and_nonstar_mesh()


def test_edge_table_matches_reference():
    for name, m in _edge_table_meshes():
        edges, edge_cells, boundary, normals, cell_edges = reference_edge_table(m.vertices, m.cells)
        assert np.array_equal(m.edges, edges), name
        assert np.array_equal(m.edge_cells, edge_cells), name
        assert np.array_equal(m.boundary_edges, boundary), name
        assert np.array_equal(m.edge_normals, normals), name
        assert all(np.array_equal(m.cell_edge_ids[c], cell_edges[c]) for c in range(m.n_cells)), name
        assert [m.edge_cells[e, 0] for e in m.boundary_edges] == list(edge_cells[boundary, 0])
