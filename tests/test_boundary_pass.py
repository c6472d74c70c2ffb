"""The batched boundary-gap pass: `delta_many` against per-point `delta`,
edge-naming errors of the batched passes, and one pass per study level."""

import dataclasses

import numpy as np
import pytest

import polyvem.curved as curved_module
import polyvem.levelset as levelset_module
import polyvem.study as study_module
import polyvem.weakbc as weakbc_module
from polyvem import build_disk_approx_mesh
from polyvem.curved import correction_data
from polyvem.element import build_all_elements
from polyvem.levelset import (
    CorrectionConfig,
    LevelSetDomain,
    choose_sigma,
    circle,
    delta,
    delta_many,
    ellipse,
    quarter_disk,
    tau_report,
)
from polyvem.mesh import build_mesh
from polyvem.quadrature import segment_rule
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


def _scalar_delta(ls, x, sigma, cfg, scale):
    """Point-at-a-time statement of the gap search the kernel must reproduce
    bit for bit: sign scan, bisection, Newton polish (errors left out)."""
    if abs(ls.value(x)) <= cfg.root_tol:
        return 0.0
    ts = np.linspace(0.0, cfg.delta_max_factor * scale, 65)
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
    cfg = CorrectionConfig()
    # per-point directions and scales, every bracket long enough
    scale = reach * (1.0 + rng.random(len(pts)))
    got = delta_many(ls, pts, sig, cfg, scale)
    want = np.array([delta(ls, p, s, cfg, h) for p, s, h in zip(pts, sig, scale)])
    assert np.array_equal(got, want)
    ref = [_scalar_delta(ls, p, s, cfg, h) for p, s, h in zip(pts, sig, scale)]
    assert np.array_equal(got, ref)
    assert np.all(got >= 0.0) and np.any(got == 0.0) and np.any(got > 0.0)
    # one shared direction and scale, from interior points only
    inner = pts[ls.f(pts) < -1e-9]
    got = delta_many(ls, inner, sig[0], cfg, 2.0 * reach)
    assert np.array_equal(got, [delta(ls, p, sig[0], cfg, 2.0 * reach) for p in inner])


def test_delta_just_outside_is_zero():
    # root_tol < F(x) <= 1e-10: accepted as on the boundary, and the scan
    # hits at its first node, so the bracket is [0, 0], not [tmax, 0]
    ls, cfg = circle(), CorrectionConfig()
    near = [(1.0 + 2.5e-11, 0.0), (1.0 + 5e-13, 0.0)]
    for p in near:
        assert cfg.root_tol < ls.value(p) <= 1e-10
        assert delta(ls, p, (1.0, 0.0)) == 0.0
    pts = np.array(near + [(0.5, 0.0), (0.0, 0.3), (0.6, 0.8)])
    sig = np.array([(1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.6, 0.8)])
    got = delta_many(ls, pts, sig, cfg)
    assert np.array_equal(got, [delta(ls, p, s, cfg) for p, s in zip(pts, sig)])
    assert np.array_equal(got, [_scalar_delta(ls, p, s, cfg, 1.0) for p, s in zip(pts, sig)])
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

def _disk_case(case):
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
        cfg = CorrectionConfig(kstar=1, sigma_strategy="edge_normal", delta_max_factor=1e-6)
    elif case == "stalled":
        # a jump across the circle: the scan brackets it, Newton has no slope
        ls = LevelSetDomain("step", lambda p: np.where(circle().f(p) < 0.0, -1.0, 1.0),
                            lambda p: np.zeros((len(p), 2)), ls.interior_point,
                            ls.bounding_box)
    return ls, mesh, cfg


def _per_edge_error(ls, mesh, cfg, exactness):
    """The first error of the per-edge loop of per-point searches."""
    def one(e, p):
        h = mesh.cell_diameters[mesh.boundary_edge_cell(e)]
        delta(ls, p, choose_sigma(ls, mesh, [e], cfg)[0], cfg, h, context=f" (edge {e})")

    items = [(e, p) for e in mesh.boundary_edges
             for p in segment_rule(*mesh.vertices[mesh.edges[e]], exactness).points]
    return _first_error(one, items)


KINDS = {"outside": "outside the domain", "inward": "no boundary crossing",
         "short": "no boundary crossing", "stalled": "rootfinder stalled"}


@pytest.mark.parametrize("case", sorted(KINDS))
@pytest.mark.parametrize("pass_name", ["tau_report", "correction_data"])
def test_batched_pass_error_names_edge_and_point(case, pass_name):
    ls, mesh, cfg = _disk_case(case)
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


# -- one boundary pass per level -------------------------------------------------

@pytest.mark.parametrize("method,correction,sigma,passes", [
    ("nitsche", True, "normal", 2),
    ("bh", True, "normal", 2),
    ("nitsche", False, "normal", 0),
    ("bh", True, "distance-gradient", 2),
], ids=["nitsche-True-2", "bh-True-2", "nitsche-False-0", "bh-True-distance-gradient-2"])
def test_run_study_level_builds_boundary_data_once(monkeypatch, method, correction, sigma,
                                                   passes):
    counts = {"root_passes": 0, "workspaces": 0, "edge_rules": 0, "sigma_grads": 0}
    boundary_edges = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def sigma_counted(levelset, *args):
        grad = counted("sigma_grads", levelset.grad)
        return choose_sigma(dataclasses.replace(levelset, grad=grad), *args)

    edge_workspaces = counted("workspaces", weakbc_module.edge_workspaces)

    def ws(mesh, *args):
        boundary_edges.append(len(mesh.boundary_edges))
        return edge_workspaces(mesh, *args)

    monkeypatch.setattr(levelset_module, "delta_many",
                        counted("root_passes", levelset_module.delta_many))
    monkeypatch.setattr(levelset_module, "choose_sigma", sigma_counted)
    monkeypatch.setattr(weakbc_module, "segment_rule",
                        counted("edge_rules", weakbc_module.segment_rule))
    for module in (weakbc_module, curved_module, study_module):
        monkeypatch.setattr(module, "edge_workspaces", ws)
    spec = ProblemSpec(problem="disk", k=2, mesh="disk", method=method,
                       correction=correction, sigma=sigma)
    rep = run_study(spec, 1)
    assert rep.levels[0].error is None
    assert (rep.levels[0].tau_worst_edge is not None) == correction
    # the tau audit and the correction data are the only root searches, each
    # with one gradient call for all its directions; one quadrature rule per
    # boundary edge serves the assembly, the recovery and the boundary norms
    assert counts == {"root_passes": passes, "workspaces": 1,
                      "edge_rules": boundary_edges[0],
                      "sigma_grads": passes if sigma == "distance-gradient" else 0}
