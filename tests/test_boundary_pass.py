"""The batched boundary-gap pass: `delta_many` against per-point `delta`,
edge-naming errors of the batched passes, and one pass per study level."""

import dataclasses
import re

import numpy as np
import pytest

import polyvem.levelset as levelset_module
import polyvem.study as study_module
import polyvem.weakbc as weakbc_module
from polyvem import build_disk_approx_mesh, build_squares_approx_mesh
from polyvem.curved import correction_data
from polyvem.element import GlobalDofMap, build_all_elements
from polyvem.levelset import (
    DELTA_MAX_FACTOR,
    ROOT_TOL,
    CorrectionConfig,
    LevelSetDomain,
    boundary_gaps,
    choose_sigma,
    circle,
    delta,
    delta_many,
    ellipse,
    quarter_disk,
    tau_report,
)
from polyvem.mesh import build_mesh
from polyvem.quadrature import segment_rules
from polyvem.study import ProblemSpec, run_study
from polyvem.weakbc import MultiplierSpace, WeakBcConfig

DOMAINS = {
    "circle": (circle(center=(0.1, -0.2), radius=0.8), 1.0),
    "ellipse": (ellipse(1.5, 0.75, center=(0.2, -0.1)), 1.5),
    "quarter_disk": (quarter_disk(), 0.75),
}


def _boundary_points(name, ls, rng, n):
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    if name == "circle":
        c, r = np.asarray(ls.params["center"]), ls.params["radius"]
        return c + r * np.column_stack([np.cos(th), np.sin(th)])
    if name == "ellipse":
        c = np.asarray(ls.params["center"])
        return c + np.column_stack([ls.params["a"] * np.cos(th), ls.params["b"] * np.sin(th)])
    # quarter disk: the arc and both straight sides
    th = 0.5 * np.pi * rng.random(n)
    s = rng.random(n)
    return np.concatenate([np.column_stack([np.cos(th), np.sin(th)])[: n // 2],
                           np.column_stack([s, 0.0 * s])[n // 2: 3 * n // 4],
                           np.column_stack([0.0 * s, s])[3 * n // 4:]])


def _draw(name, rng, n=300):
    """Interior and on-boundary points with outward directions."""
    ls, _ = DOMAINS[name]
    x0, y0, x1, y1 = ls.bounding_box
    box = rng.random((8 * n, 2)) * [x1 - x0, y1 - y0] + [x0, y0]
    inner = box[ls.f(box) < -1e-9][:n]
    bnd = _boundary_points(name, ls, rng, n // 3)
    pts = np.concatenate([inner, bnd])
    ang = rng.uniform(0.0, 2.0 * np.pi, len(pts))
    sig = np.column_stack([np.cos(ang), np.sin(ang)])
    g = ls.grad(bnd)
    out = g / np.hypot(g[:, 0], g[:, 1])[:, None] + 0.3 * rng.standard_normal((len(bnd), 2))
    sig[len(inner):] = out / np.hypot(out[:, 0], out[:, 1])[:, None]
    order = rng.permutation(len(pts))
    return ls, pts[order], sig[order]


def _scalar_delta(ls, x, sigma, scale):
    """Point-at-a-time statement of the gap search the kernel must reproduce
    bit for bit: sign scan, bisection, Newton polish (errors left out)."""
    if abs(ls.value(x)) <= ROOT_TOL:
        return 0.0
    ts = np.linspace(0.0, DELTA_MAX_FACTOR * scale, 65)
    i = int(np.nonzero(ls.f(x[None, :] + ts[:, None] * sigma[None, :]) >= 0.0)[0][0])
    lo, hi = ts[max(i - 1, 0)], ts[i]
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if ls.value(x + mid * sigma) >= 0.0:
            hi = mid
        else:
            lo = mid
    t = 0.5 * (lo + hi)
    for _ in range(30):
        ft = ls.value(x + t * sigma)
        if abs(ft) <= 1e-14:
            break
        dft = float(ls.gradient(x + t * sigma) @ sigma)
        if dft == 0.0:
            break
        tn = t - ft / dft
        if not (lo - 1e-10 <= tn <= hi + 1e-10):
            break
        t = tn
    return float(max(t, 0.0))


def _first_error(fn, items):
    for item in items:
        try:
            fn(*item)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_delta_many_equals_per_point_delta(name, seed):
    rng = np.random.default_rng(seed)
    ls, pts, sig = _draw(name, rng)
    _, reach = DOMAINS[name]
    # per-point directions and scales, every bracket long enough
    scale = reach * (1.0 + rng.random(len(pts)))
    got = delta_many(ls, pts, sig, scale)
    want = np.array([delta(ls, p, s, h) for p, s, h in zip(pts, sig, scale)])
    assert np.array_equal(got, want)
    ref = [_scalar_delta(ls, p, s, h) for p, s, h in zip(pts, sig, scale)]
    assert np.array_equal(got, ref)
    assert np.all(got >= 0.0) and np.any(got == 0.0) and np.any(got > 0.0)
    # one shared direction and scale, from interior points only
    inner = pts[ls.f(pts) < -1e-9]
    got = delta_many(ls, inner, sig[0], 2.0 * reach)
    assert np.array_equal(got, [delta(ls, p, sig[0], 2.0 * reach) for p in inner])


def test_delta_just_outside_is_zero():
    # ROOT_TOL < F(x) <= 1e-10: accepted as on the boundary, and the scan
    # hits at its first node, so the bracket is [0, 0], not [tmax, 0]
    ls = circle()
    near = [(1.0 + 2.5e-11, 0.0), (1.0 + 5e-13, 0.0)]
    for p in near:
        assert ROOT_TOL < ls.value(p) <= 1e-10
        assert delta(ls, p, (1.0, 0.0)) == 0.0
    pts = np.array(near + [(0.5, 0.0), (0.0, 0.3), (0.6, 0.8)])
    sig = np.array([(1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.6, 0.8)])
    got = delta_many(ls, pts, sig)
    assert np.array_equal(got, [delta(ls, p, s) for p, s in zip(pts, sig)])
    assert np.array_equal(got, [_scalar_delta(ls, p, s, 1.0) for p, s in zip(pts, sig)])
    assert got[0] == got[1] == 0.0 and np.all(got[2:4] > 0.0)


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_delta_many_raises_first_per_point_error(name):
    # short brackets: some points find no crossing; the batch reports the
    # first of them, with the message the per-point loop gives
    rng = np.random.default_rng(7)
    ls, pts, sig = _draw(name, rng, 60)
    scale = 0.02 + 0.1 * rng.random(len(pts))
    edges = rng.integers(0, 1000, len(pts))
    want = _first_error(lambda p, s, h, e: delta(ls, p, s, scale=h, context=f" (edge {e})"),
                        zip(pts, sig, scale, edges))
    assert want is not None and "no boundary crossing" in want
    with pytest.raises(ValueError) as info:
        delta_many(ls, pts, sig, scale=scale, edges=edges)
    assert str(info.value) == want


# -- errors of the batched passes name the edge -------------------------------

def _disk_case(case, monkeypatch):
    """(level set, mesh, correction config) that make one root search fail."""
    ls = circle()
    mesh = build_disk_approx_mesh(ls, 24, 3)
    cfg = CorrectionConfig(kstar=1, sigma_strategy="edge_normal")
    if case == "outside":
        # push one boundary vertex out of the disk
        verts = mesh.vertices.copy()
        v = mesh.edges[mesh.boundary_edges[5]][0]
        verts[v] *= 1.1
        mesh = build_mesh(verts, mesh.cells)
    elif case == "inward":
        # a gradient pointing into the domain gives an inward sigma
        ls = LevelSetDomain("inward", ls.f, lambda p: -circle().grad(p),
                            ls.interior_point, ls.bounding_box)
        cfg = CorrectionConfig(kstar=1, sigma_strategy="distance_gradient")
    elif case == "short":
        monkeypatch.setattr(levelset_module, "DELTA_MAX_FACTOR", 1e-6)
    elif case == "stalled":
        # a jump across the circle: the scan brackets it, Newton has no slope
        ls = LevelSetDomain("step", lambda p: np.where(circle().f(p) < 0.0, -1.0, 1.0),
                            lambda p: np.zeros((len(p), 2)), ls.interior_point,
                            ls.bounding_box)
    return ls, mesh, cfg


def _per_edge_error(ls, mesh, cfg, exactness):
    """The first error of the per-edge loop of per-point searches."""
    def one(e, p):
        h = mesh.cell_diameters[mesh.edge_cells[e, 0]]
        delta(ls, p, choose_sigma(ls, mesh, [e], cfg)[0], h, context=f" (edge {e})")

    items = [(e, p) for e in mesh.boundary_edges
             for p in segment_rules(*mesh.vertices[mesh.edges[e]], exactness)[0]]
    return _first_error(one, items)


KINDS = {"outside": "outside the domain", "inward": "no boundary crossing",
         "short": "no boundary crossing", "stalled": "rootfinder stalled"}


@pytest.mark.parametrize("case", sorted(KINDS))
@pytest.mark.parametrize("pass_name", ["tau_report", "correction_data"])
def test_batched_pass_error_names_edge_and_point(case, pass_name, monkeypatch):
    ls, mesh, cfg = _disk_case(case, monkeypatch)
    k = 2
    bc = WeakBcConfig(method="nitsche", k=k, gamma=1e3)
    exactness = 7 if pass_name == "tau_report" else bc.resolved_edge_exactness
    want = _per_edge_error(ls, mesh, cfg, exactness)
    assert want is not None and KINDS[case] in want
    with pytest.raises(ValueError) as info:
        if pass_name == "tau_report":
            tau_report(ls, mesh, cfg)
        else:
            els = build_all_elements(mesh, k)
            correction_data(mesh, els, MultiplierSpace.create(mesh, k), ls, bc, cfg)
    msg = str(info.value)
    assert msg == want
    edge = int(msg.rsplit("(edge ", 1)[1].rstrip(")"))
    assert edge in set(mesh.boundary_edges.tolist())
    if case == "outside":
        pushed = np.flatnonzero(np.hypot(*mesh.vertices.T) > 1.05)
        assert np.isin(mesh.edges[edge], pushed).any()


# -- a non-convex domain: the star r = 1 + 0.2 cos 5 theta ---------------------

def _star() -> LevelSetDomain:
    def f(p):
        theta = np.arctan2(p[:, 1], p[:, 0])
        return np.hypot(p[:, 0], p[:, 1]) - (1.0 + 0.2 * np.cos(5.0 * theta))

    def grad(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        r, s = np.sqrt(r2), np.sin(5.0 * np.arctan2(p[:, 1], p[:, 0]))
        return np.column_stack([p[:, 0] / r - s * p[:, 1] / r2, p[:, 1] / r + s * p[:, 0] / r2])

    return LevelSetDomain("star", f, grad, np.zeros(2), (-1.2, -1.2, 1.2, 1.2), False)


def _dense_gaps(ls, x, sigma, tmax, root_tol, nodes=20001):
    """First crossing on a 20,001-node scan of [0, tmax], bisected to width
    1e-10; 0 where |F(x)| <= root_tol.  The scan runs 32 points at a time."""
    lo, hi = np.zeros(len(x)), np.zeros(len(x))
    for part in np.array_split(np.arange(len(x)), max(1, len(x) // 32)):
        ts = np.linspace(0.0, tmax[part], nodes, axis=1)
        hit = ls.f((x[part, None] + ts[..., None] * sigma[part, None])
                   .reshape(-1, 2)).reshape(ts.shape) >= 0.0
        assert hit.any(axis=1).all()
        first, rows = np.argmax(hit, axis=1), np.arange(len(part))
        lo[part], hi[part] = ts[rows, np.maximum(first - 1, 0)], ts[rows, first]
    while np.any(hi - lo > 1e-10):
        mid = 0.5 * (lo + hi)
        up = ls.f(x + mid[:, None] * sigma) >= 0.0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return np.where(np.abs(ls.f(x)) <= root_tol, 0.0, 0.5 * (lo + hi))


def _star_gaps(base, steps, sigma):
    ls = _star()
    mesh = build_squares_approx_mesh(ls, base, steps)
    edges = mesh.boundary_edges
    pts = [segment_rules(*mesh.vertices[mesh.edges[e]], 7)[0] for e in edges]
    cfg = CorrectionConfig(sigma_strategy=sigma)
    return ls, mesh, edges, pts, cfg, boundary_gaps(ls, mesh, edges, pts, cfg)


def test_star_gradient_is_exact():
    ls, rng = _star(), np.random.default_rng(4)
    p = rng.uniform(-1.1, 1.1, (200, 2))
    p = p[np.hypot(p[:, 0], p[:, 1]) > 0.1]
    h = 1e-6
    fd = np.column_stack([(ls.f(p + h * e) - ls.f(p - h * e)) / (2 * h) for e in np.eye(2)])
    assert np.max(np.abs(fd - ls.grad(p))) <= 1e-7


@pytest.mark.parametrize("steps", [0, 1, 2])
@pytest.mark.parametrize("base", [4, 8, 16])
def test_star_gaps_match_dense_search(base, steps):
    ls, mesh, edges, pts, cfg, (sigmas, gaps) = _star_gaps(base, steps, "distance_gradient")
    nq = [len(p) for p in pts]
    scale = np.repeat(mesh.cell_diameters[mesh.edge_cells[edges, 0]], nq)
    want = _dense_gaps(ls, np.concatenate(pts), np.repeat(sigmas, nq, axis=0),
                       DELTA_MAX_FACTOR * scale, ROOT_TOL)
    assert np.max(np.abs(np.concatenate(gaps) - want)) <= 1e-10


def test_star_edge_normal_miss_names_edge():
    # base 8 leaves out a square at a notch: the normal of an edge it exposes
    # runs through the domain for longer than the bracket
    with pytest.raises(ValueError, match=r"^no boundary crossing within .* \(edge \d+\)$") as info:
        _star_gaps(8, 0, "edge_normal")
    x, y, edge = re.search(r"from \[(\S+), (\S+)\] along .* \(edge (\d+)\)$",
                           str(info.value)).groups()
    mesh = build_squares_approx_mesh(_star(), 8, 0)
    assert int(edge) in set(mesh.boundary_edges.tolist())
    # the named point is a quadrature point of the named edge
    a, b = mesh.vertices[mesh.edges[int(edge)]]
    t = np.linalg.norm([float(x), float(y)] - a) / np.linalg.norm(b - a)
    assert 0.0 < t < 1.0 and np.allclose(a + t * (b - a), [float(x), float(y)], rtol=0, atol=1e-12)


# -- one boundary pass per level -------------------------------------------------

@pytest.mark.parametrize("method,correction,sigma,passes", [
    ("nitsche", True, "normal", 1),
    ("bh", True, "normal", 1),
    ("nitsche", False, "normal", 0),
    ("bh", True, "distance-gradient", 1),
], ids=["nitsche-True-1", "bh-True-1", "nitsche-False-0", "bh-True-distance-gradient-1"])
def test_run_study_level_builds_boundary_data_once(monkeypatch, method, correction, sigma,
                                                   passes):
    counts = {"root_passes": 0, "workspaces": 0, "edge_rules": 0, "sigma_grads": 0,
              "dofmaps": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def sigma_counted(levelset, *args):
        grad = counted("sigma_grads", levelset.grad)
        return choose_sigma(dataclasses.replace(levelset, grad=grad), *args)

    edge_workspaces = counted("workspaces", weakbc_module.edge_workspaces)
    monkeypatch.setattr(levelset_module, "delta_many",
                        counted("root_passes", levelset_module.delta_many))
    monkeypatch.setattr(levelset_module, "choose_sigma", sigma_counted)
    monkeypatch.setattr(weakbc_module, "segment_rules",
                        counted("edge_rules", weakbc_module.segment_rules))
    monkeypatch.setattr(GlobalDofMap, "__init__", counted("dofmaps", GlobalDofMap.__init__))
    for module in (weakbc_module, study_module):  # curved builds its table through weakbc
        monkeypatch.setattr(module, "edge_workspaces", edge_workspaces)
    spec = ProblemSpec(problem="disk", k=2, mesh="disk", method=method,
                       correction=correction, sigma=sigma)
    rep = run_study(spec, 1)
    assert rep.levels[0].error is None
    assert (rep.levels[0].tau_worst_edge is not None) == correction
    # the correction data is the only root search, with one gradient call for
    # all its directions, and the tau audit reads its gaps; one stacked
    # quadrature call for the level's boundary edges serves the assembly, the
    # recovery and the boundary norm; the cell table's DOF map serves them all
    assert counts == {"root_passes": passes, "workspaces": 1, "edge_rules": 1,
                      "sigma_grads": passes if sigma == "distance-gradient" else 0,
                      "dofmaps": 1}


@pytest.mark.parametrize("mesh,k,extra", [
    ("squares", 2, {}), ("disk", 2, {}), ("squares", 1, {}), ("disk", 3, {}),
    ("squares", 4, {"sigma": "normal", "kstar": 3}), ("disk", 4, {}),
], ids=["squares-2", "disk-2", "squares-1", "disk-3", "squares-4", "disk-4"])
def test_run_study_tau_comes_from_the_correction_gaps(monkeypatch, mesh, k, extra):
    tables = []

    def kept(*args, **kwargs):
        tables.append(correction_data(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(study_module, "correction_data", kept)
    spec = ProblemSpec(problem="quarter-disk" if mesh == "squares" else "disk", k=k, mesh=mesh,
                       correction=True, **extra)
    rep = run_study(spec, 2)
    assert len(tables) == 2
    for lv, table in zip(rep.levels, tables):
        assert lv.error is None
        # the table's own gaps, at its 2k+2 rule
        assert table.gaps.shape == table.weights.shape
        taus = [max(row) / h for row, h in zip(table.gaps.tolist(), table.htilde.tolist())]
        worst = taus.index(max(taus))
        assert lv.tau_hat == taus[worst] and lv.tau_worst_edge == table.edge[worst]
        if k == 2:  # the same 4-point Gauss rule as the exactness-7 audit
            m, ls = study_module._build_level_mesh(spec, study_module.PROBLEMS[spec.problem],
                                                   lv.level)
            audit = tau_report(ls, m, spec.correction_config(
                "h_linear" if mesh == "squares" else "h_squared"))
            assert (lv.tau_hat, lv.tau_worst_edge) == (audit.tau_hat, audit.worst_edge)


def test_run_study_records_the_edge_of_a_failing_gap_search(monkeypatch):
    # a squares ladder: the short bracket would also stop the disk generator,
    # which places its boundary vertices with the same search
    monkeypatch.setattr(levelset_module, "DELTA_MAX_FACTOR", 1e-6)
    spec = ProblemSpec(problem="quarter-disk", k=2, mesh="squares", correction=True,
                       sigma="normal")
    lv = run_study(spec, 1).levels[0]
    match = re.fullmatch(r"ValueError: no boundary crossing within .* \(edge (\d+)\)", lv.error)
    assert match is not None, lv.error
    mesh, _ = study_module._build_level_mesh(spec, study_module.PROBLEMS["quarter-disk"], 0)
    assert int(match.group(1)) in set(mesh.boundary_edges.tolist())
    # what the level computed before the search stays recorded
    assert lv.quality["N_P"] == mesh.n_cells and lv.n_dofs > 0
    assert lv.tau_hat is None and lv.tau_worst_edge is None and lv.e1 is None
