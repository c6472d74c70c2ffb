import numpy as np
import pytest

import polyvem.levelset as levelset_module
from polyvem import build_disk_approx_mesh, build_structured_mesh
from polyvem.levelset import (
    CorrectionConfig,
    LevelSetDomain,
    choose_sigma,
    circle,
    delta,
    ellipse,
    half_plane,
    intersection,
    kstar_default,
    named_levelset,
    quarter_disk,
    tau_report,
)


def test_delta_axis():
    assert abs(delta(circle(), (0.6, 0.0), (1.0, 0.0)) - 0.4) <= 1e-12


def test_delta_diagonal_closed_form():
    want = np.sqrt(0.75) - 0.5
    assert abs(delta(circle(), (0.5, 0.5), (1.0, 0.0)) - want) <= 1e-12


def test_delta_on_boundary_zero():
    x = (np.cos(0.7), np.sin(0.7))
    assert delta(circle(), x, (1.0, 0.0)) == 0.0


def test_delta_rejects_outside_point():
    with pytest.raises(ValueError, match="outside"):
        delta(circle(), (1.2, 0.0), (1.0, 0.0))


def test_delta_rejects_inward_direction():
    with pytest.raises(ValueError, match="crossing"):
        delta(circle(), (0.5, 0.0), (-1.0, 0.0), scale=0.2)


def test_delta_ellipse():
    ls = ellipse(2.0, 1.0)
    # from (0, 0.5) upward: hits y = 1 at t = 0.5
    assert abs(delta(ls, (0.0, 0.5), (0.0, 1.0)) - 0.5) <= 1e-12


def test_delta_continuity_along_edge():
    # no root-jumping: gap values at nearby points differ proportionally
    ls = circle()
    th = np.linspace(0.2, 0.4, 33)
    chord_pts = np.column_stack([0.9 * np.cos(th), 0.9 * np.sin(th)])
    sigma = np.array([np.cos(0.3), np.sin(0.3)])
    vals = np.array([delta(ls, p, sigma) for p in chord_pts])
    spacing = np.max(np.hypot(*np.diff(chord_pts, axis=0).T))
    assert np.max(np.abs(np.diff(vals))) <= 5.0 * spacing


def test_quarter_disk_branches():
    ls = quarter_disk()
    # on the straight sides F = 0
    assert abs(ls.value((0.0, 0.5))) <= 1e-15
    assert abs(ls.value((0.5, 0.0))) <= 1e-15
    # inside negative, outside arc positive
    assert ls.value((0.3, 0.3)) < 0
    assert ls.value((0.8, 0.8)) > 0
    # near the arc the circle branch is active and the gradient is radial
    np.testing.assert_allclose(ls.gradient((0.7, 0.7)), [1.4, 1.4], atol=1e-14)
    # near a straight side the half-plane branch wins
    np.testing.assert_allclose(ls.gradient((0.7, 0.05)), [0.0, -1.0], atol=1e-14)


def test_intersection_bounding_box():
    ls = quarter_disk()
    np.testing.assert_allclose(ls.bounding_box, (0.0, 0.0, 1.0, 1.0))


def test_half_plane():
    hp = half_plane((0.0, 0.0), (-1.0, 0.0))
    assert hp.value((0.5, 3.0)) < 0
    assert hp.value((-0.1, 0.0)) > 0


def test_named_levelset():
    assert named_levelset("circle").name == "circle"
    assert named_levelset("quarter_disk").name == "quarter_disk"
    assert named_levelset("ellipse", a=2.0, b=1.0).name == "ellipse"
    with pytest.raises(ValueError):
        named_levelset("torus")


def test_choose_sigma_edge_normal_and_radial():
    ls = circle()
    mesh = build_disk_approx_mesh(ls, 8, 1)
    cfg_n = CorrectionConfig(sigma_strategy="edge_normal")
    cfg_g = CorrectionConfig(sigma_strategy="distance_gradient")
    for e in mesh.boundary_edges:
        sn = choose_sigma(ls, mesh, [e], cfg_n)[0]
        np.testing.assert_allclose(sn, mesh.edge_normals[e])
        sg = choose_sigma(ls, mesh, [e], cfg_g)[0]
        mid = mesh.edge_midpoints[e]
        np.testing.assert_allclose(sg, mid / np.hypot(*mid), atol=1e-14)
    # all edges in one call: row j is edge j's direction, bit for bit
    for cfg in (cfg_n, cfg_g):
        got = choose_sigma(ls, mesh, mesh.boundary_edges, cfg)
        assert got.shape == (len(mesh.boundary_edges), 2)
        assert np.array_equal(got, [choose_sigma(ls, mesh, [e], cfg)[0]
                                    for e in mesh.boundary_edges])


def test_choose_sigma_names_first_edge_with_vanishing_gradient():
    # the gradient is zeroed at the midpoints of two boundary edges; the
    # error names the first of them in the order the edges are given
    base = circle()
    mesh = build_disk_approx_mesh(base, 12, 2)
    edges = mesh.boundary_edges
    flat = mesh.edge_midpoints[[edges[7], edges[3]]]

    def grad(p):
        g = base.grad(p)
        g[(p[:, None, :] == flat[None]).all(axis=2).any(axis=1)] = 0.0
        return g

    ls = LevelSetDomain("flat-spots", base.f, grad, base.interior_point, base.bounding_box)
    cfg = CorrectionConfig(sigma_strategy="distance_gradient")
    for order in (edges, edges[::-1]):
        first = order[np.isin(order, [edges[3], edges[7]])][0]
        with pytest.raises(ValueError, match=rf"vanishes at midpoint of edge {first}$"):
            choose_sigma(ls, mesh, order, cfg)
    with pytest.raises(ValueError, match=rf"edge {edges[3]}$"):
        tau_report(ls, mesh, cfg)
    # edge normals do not consult the gradient
    choose_sigma(ls, mesh, edges, CorrectionConfig(sigma_strategy="edge_normal"))


def test_sigma_gradient_brackets_where_normal_may_not():
    # a tall thin cell near the arc of the quarter disk: along the vertical
    # edge's outward normal (pointing away from the domain interior along x)
    # the ray can run parallel to the boundary for a long way, while the
    # radial direction reaches the arc quickly
    ls = quarter_disk()
    x = np.array([0.0625, 0.96])
    radial = ls.gradient(x)
    radial = radial / np.hypot(*radial)
    d = delta(ls, x, radial, scale=0.25)
    assert 0 < d < 0.1


def test_tau_zero_on_exact_polygonal_domain():
    # level set whose zero set contains the mesh boundary: gaps vanish
    square = intersection(
        [half_plane((0, 0), (-1, 0)), half_plane((0, 0), (0, -1)),
         half_plane((1, 1), (1, 0)), half_plane((1, 1), (0, 1))],
        "unit_square", interior_point=(0.5, 0.5),
    )
    mesh = build_structured_mesh((0, 0, 1, 1), 2, 2)
    cfg = CorrectionConfig(sigma_strategy="edge_normal")
    rep = tau_report(square, mesh, cfg)
    assert rep.tau_hat == 0.0
    assert not rep.exceeded


def test_tau_decreases_under_disk_refinement():
    ls = circle()
    cfg = CorrectionConfig(sigma_strategy="edge_normal")
    taus = []
    for n in (8, 16, 32):
        mesh = build_disk_approx_mesh(ls, n, max(1, n // 8))
        taus.append(tau_report(ls, mesh, cfg).tau_hat)
    assert taus[0] > taus[1] > taus[2]


def test_tau_warns_above_threshold(monkeypatch):
    ls = circle()
    mesh = build_disk_approx_mesh(ls, 8, 1)
    cfg = CorrectionConfig(sigma_strategy="edge_normal")
    monkeypatch.setattr(levelset_module, "TAU_THRESHOLD", 1e-4)
    with pytest.warns(UserWarning, match="tau_hat"):
        tau_report(ls, mesh, cfg)


@pytest.mark.parametrize("k,regime,want", [
    (1, "h_squared", 0),
    (2, "h_squared", 1),
    (3, "h_squared", 1),
    (4, "h_squared", 2),
    (1, "h_linear", 1),
    (3, "h_linear", 3),
])
def test_kstar_default(k, regime, want):
    assert kstar_default(k, regime) == want


def test_kstar_default_rejects():
    with pytest.raises(ValueError):
        kstar_default(0, "h_squared")
    with pytest.raises(ValueError):
        kstar_default(2, "bogus")


def test_correction_config_validation():
    with pytest.raises(ValueError):
        CorrectionConfig(kstar=-1)
    for kstar in (1.5, True):  # once a TypeError in correction_data, and a silent 1
        with pytest.raises(ValueError, match=rf"^kstar must be an integer >= 0, got {kstar!r}$"):
            CorrectionConfig(kstar=kstar)
    with pytest.raises(ValueError):
        CorrectionConfig(sigma_strategy="zigzag")
