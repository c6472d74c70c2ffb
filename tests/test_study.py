import gc
import json
import re
import weakref

import numpy as np
import pytest

from polyvem.element import GlobalDofMap, build_all_elements
from polyvem.generators import build_voronoi_mesh
from polyvem.levelset import TAU_THRESHOLD
from polyvem.linsys import solve
from polyvem.study import (
    PROBLEMS,
    ProblemSpec,
    compute_errors,
    estimate_rates,
    multiplier_error,
    report_to_csv,
    report_to_json,
    run_study,
)
from polyvem.weakbc import (MultiplierSpace, WeakBcConfig, assemble_nitsche,
                            recover_multiplier)
from conftest import interpolant, random_polynomial

# published errors and mean mesh sizes of the reference study the rate
# formula is checked against (fourth-order runs on a sequence of four
# meshes, both stabilization variants)
REF_HBAR = [5.614744e-01, 2.720203e-01, 1.348243e-01, 6.718889e-02]
REF_E1_DRECIPE = [4.185013e-04, 2.072005e-05, 1.127496e-06, 6.560872e-08]
REF_ECR1_DRECIPE = [4.147400, 4.147436, 4.083548]
REF_E0_DRECIPE = [6.265923e-06, 1.841304e-07, 5.650313e-09, 1.752637e-10]
REF_ECR0_DRECIPE = [4.867238, 4.963544, 4.986866]
REF_E1_EUCLID = [4.992212e-02, 2.799140e-03, 1.051680e-04, 3.862017e-06]
REF_ECR1_EUCLID = [3.975704, 4.675151, 4.744492]
REF_E0_EUCLID = [2.047646e-04, 2.472961e-06, 4.035922e-08, 8.923135e-10]
REF_ECR0_EUCLID = [6.094256, 5.863124, 5.473012]


def test_estimate_rates_simple():
    assert abs(estimate_rates([0.1, 0.025], [0.2, 0.1])[0] - 2.0) <= 1e-14


def test_estimate_rates_constant_errors():
    assert abs(estimate_rates([0.5, 0.5], [0.2, 0.1])[0]) <= 1e-14


def test_estimate_rates_zero_error_undefined():
    rates = estimate_rates([0.1, 0.0], [0.2, 0.1])
    assert rates[0] is None


def test_estimate_rates_floor():
    rates = estimate_rates([1e-13, 5e-14], [0.2, 0.1], floor=1e-11)
    assert rates[0] is None


def test_run_study_patch_spec_exact():
    # exact polynomial reproduction on every level; rates not applicable
    spec = ProblemSpec(problem="patch", k=2, method="nitsche", gamma=1000.0,
                       mesh="structured")
    rep = run_study(spec, 2)
    for lv in rep.levels:
        assert lv.error is None
        assert lv.e1 <= 1e-9 and lv.e0 <= 1e-9
    assert all(r is None for r in rep.rates_e1)
    assert all(r is None for r in rep.rates_e0)


def test_estimate_rates_validation():
    with pytest.raises(ValueError):
        estimate_rates([1.0], [0.5])
    with pytest.raises(ValueError):
        estimate_rates([1.0, 0.5], [0.5, 0.5])


@pytest.mark.parametrize("errs,ecrs", [
    (REF_E1_DRECIPE, REF_ECR1_DRECIPE),
    (REF_E0_DRECIPE, REF_ECR0_DRECIPE),
    (REF_E1_EUCLID, REF_ECR1_EUCLID),
    (REF_E0_EUCLID, REF_ECR0_EUCLID),
])
def test_estimate_rates_reproduces_published_values(errs, ecrs):
    got = estimate_rates(errs, REF_HBAR)
    for g, w in zip(got, ecrs):
        assert abs(g - w) <= 1e-3


def test_compute_errors_exact_polynomial(unit_square_2x2):
    rng = np.random.default_rng(0)
    k = 2
    u, grad, _ = random_polynomial(k, rng)
    els = build_all_elements(unit_square_2x2, k)
    dofs = interpolant(unit_square_2x2, els, u)
    e1, e0 = compute_errors(unit_square_2x2, els, dofs, u, grad)
    assert e1 <= 1e-10 and e0 <= 1e-10


def test_public_level_calls_build_one_dofmap(monkeypatch):
    # a level solved through the public calls, without an edge table: the
    # element table's DOF map serves the assembly, the recovery and both
    # error measures, which once built one each
    built = []
    init = GlobalDofMap.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(GlobalDofMap, "__init__", counted)
    mesh = build_voronoi_mesh(None, 24, lloyd_iters=1, rng_seed=2)
    prob, cfg = PROBLEMS["test1-2d"], WeakBcConfig(k=2)
    mult = MultiplierSpace.create(mesh, cfg.resolved_kprime)
    els = build_all_elements(mesh, cfg.k)
    u = solve(assemble_nitsche(mesh, els, cfg, prob.f, prob.g, mult=mult))
    lam = recover_multiplier(u, mesh, els, cfg, prob.g, mult=mult)
    e1, e0 = compute_errors(mesh, els, u, prob.u, prob.grad_u)
    merr = multiplier_error(mesh, els, mult, lam, prob.grad_u, cfg.resolved_edge_exactness)
    assert len(built) == 1 and 0.0 < max(e1, e0, merr) < 1.0


def test_compute_errors_zero_solution_is_one(unit_square_2x2):
    prob = PROBLEMS["test1-2d"]
    els = build_all_elements(unit_square_2x2, 1)
    e1, e0 = compute_errors(unit_square_2x2, els, np.zeros(els.dofmap.n_dofs),
                            prob.u, prob.grad_u)
    assert abs(e1 - 1.0) <= 1e-12 and abs(e0 - 1.0) <= 1e-12


def test_compute_errors_rejects_zero_exact(unit_square_2x2):
    els = build_all_elements(unit_square_2x2, 1)
    zero = lambda p: np.zeros(len(p))
    zgrad = lambda p: np.zeros((len(p), 2))
    with pytest.raises(ValueError, match="zero norm"):
        compute_errors(unit_square_2x2, els, np.zeros(els.dofmap.n_dofs), zero, zgrad)


def test_problem_validation():
    for prob in PROBLEMS.values():
        rng = np.random.default_rng(1)
        pts = rng.random((16, 2)) * 0.4 + 0.25
        prob.validate(pts)


def test_problem_validation_catches_mismatch():
    from polyvem.study import Problem
    bad = Problem("bad", u=lambda p: p[:, 0] ** 2,
                  grad_u=lambda p: np.column_stack([2 * p[:, 0], 0 * p[:, 0]]),
                  f=lambda p: np.ones(len(p)),  # should be -2
                  domain_kind="polygon")
    with pytest.raises(ValueError, match="f != -lap u"):
        bad.validate(np.array([[0.3, 0.4]]))


def test_run_study_structured_interpolation_rates():
    spec = ProblemSpec(problem="test1-2d", k=1, method="nitsche", gamma=100.0,
                       mesh="structured")
    rep = run_study(spec, 3)
    assert all(lv.error is None for lv in rep.levels)
    assert rep.rates_e1[-1] >= 0.9
    assert rep.rates_e0[-1] >= 1.8
    assert rep.notes["l2_projector"]


def test_run_study_deterministic():
    spec = ProblemSpec(problem="test1-2d", k=1, method="nitsche", gamma=100.0,
                       mesh="voronoi", rng_seed=13)
    r1 = run_study(spec, 2)
    r2 = run_study(spec, 2)
    assert [lv.e1 for lv in r1.levels] == [lv.e1 for lv in r2.levels]
    assert [lv.e0 for lv in r1.levels] == [lv.e0 for lv in r2.levels]


@pytest.mark.parametrize("field,value", [
    ("method", "BH"), ("kprime", "k-2"), ("sigma", "gradient"),
    ("mesh", "bogus"), ("stab", "d-recipe"), ("kstar", "two"), ("kstar", 3), ("kstar", -1),
])
def test_problem_spec_rejects_unknown_options(field, value):
    # each of these once fell back silently to the default behaviour or
    # failed every level of the study separately
    with pytest.raises(ValueError, match=rf"unknown {field} {re.escape(repr(value))}"):
        ProblemSpec("test1-2d", 2, **{field: value})


@pytest.mark.parametrize("field,value,low", [
    ("k", 2.5, 1), ("k", 0, 1), ("refine_steps", -1, 0), ("lloyd_iters", -2, 0),
    ("lloyd_iters", 1.0, 0), ("rng_seed", -1, 0), ("rng_seed", 1.5, 0),
])
def test_problem_spec_rejects_bad_numeric_fields(field, value, low):
    # these once failed every level of the study (k=2.5, refine_steps=-1) or
    # ran as if 0 (lloyd_iters=-2)
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= {low}, "
                                         rf"got {re.escape(repr(value))}$"):
        ProblemSpec(**{"problem": "test1-2d", "k": 2, field: value})


@pytest.mark.parametrize("make,field,value", [
    (ProblemSpec, "k", True), (ProblemSpec, "refine_steps", False),
    (ProblemSpec, "lloyd_iters", True), (ProblemSpec, "kstar", True), (ProblemSpec, "rng_seed", True),
    (ProblemSpec, "gamma", -1), (ProblemSpec, "gamma", np.inf), (ProblemSpec, "alpha", np.nan),
    (ProblemSpec, "alpha", 0.0), (ProblemSpec, "alpha", True),
    (WeakBcConfig, "k", True), (WeakBcConfig, "kprime", True), (WeakBcConfig, "kprime", 1.0),
    (WeakBcConfig, "alpha", np.nan),
    (WeakBcConfig, "alpha", -1e-3), (WeakBcConfig, "gamma", np.inf), (WeakBcConfig, "gamma", "1e3"),
    (ProblemSpec, "correction", True),  # on a structured mesh: once skipped silently
])
def test_bad_study_parameters_fail_up_front(make, field, value):
    # bools once passed as integers, gamma=-1 failed only when the study
    # built its config, and nan or inf penalties were accepted
    base = {"problem": "test1-2d", "k": 2} if make is ProblemSpec else {"method": "barbosa_hughes", "k": 1}
    with pytest.raises(ValueError, match=rf"^(unknown )?{field} "):
        make(**{**base, field: value})


@pytest.mark.parametrize("levels", [0, -2, True, 1.5])
def test_run_study_rejects_bad_level_counts(levels):
    # 0 and -2 once gave an empty report, True one level, 1.5 a TypeError
    with pytest.raises(ValueError, match=rf"^levels must be an integer >= 1, got {levels!r}$"):
        run_study(ProblemSpec("test1-2d", 1), levels)


def test_ladder_sizes_continue_past_the_tables():
    from polyvem.study import DISK_BOUNDARY, SQUARES_BASE, VORONOI_SEEDS, _ladder_size
    assert [_ladder_size(VORONOI_SEEDS, lv, 4) for lv in range(6)] == [16, 64, 256, 1024, 4096, 16384]
    assert [_ladder_size(DISK_BOUNDARY, lv, 2) for lv in range(6)] == [12, 24, 48, 96, 192, 384]
    assert [_ladder_size(SQUARES_BASE, lv, 2) for lv in range(6)] == [4, 8, 16, 32, 64, 128]


def test_problem_spec_option_spellings():
    for method in ("bh", "barbosa_hughes"):
        for kprime in ("k-1", "km1"):
            cfg = ProblemSpec("test1-2d", 2, method=method, kprime=kprime).bc_config()
            assert (cfg.method, cfg.kprime) == ("barbosa_hughes", 1)
    assert ProblemSpec("test1-2d", 2, method="nitsche", kprime="k-1").bc_config().kprime == 2
    for sigma, strategy in (("normal", "edge_normal"), ("edge_normal", "edge_normal"),
                            ("distance-gradient", "distance_gradient"),
                            ("distance_gradient", "distance_gradient")):
        ccfg = ProblemSpec("disk", 2, sigma=sigma).correction_config("h_squared")
        assert ccfg.sigma_strategy == strategy
    for kstar in (0, 2, np.int64(1)):
        ccfg = ProblemSpec("disk", 2, kstar=kstar).correction_config("h_squared")
        assert ccfg.kstar == kstar and type(ccfg.kstar) is int
    assert ProblemSpec("test1-2d", 2, mesh="voronoi", stab="euclidean").stab == "euclidean"


def test_report_json_and_csv(tmp_path):
    spec = ProblemSpec(problem="test1-2d", k=1, method="bh", alpha=0.001,
                       mesh="structured")
    rep = run_study(spec, 2)
    jpath = tmp_path / "r.json"
    text = report_to_json(rep, jpath)
    doc = json.loads(jpath.read_text())
    assert doc["spec"]["problem"] == "test1-2d"
    assert len(doc["levels"]) == 2
    assert doc["levels"][0]["e1"] > doc["levels"][1]["e1"]
    assert doc["rates"]["e1"]
    csv_text = report_to_csv(rep)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("mesh,N_P,h,hbar,e1u,ecr1,e0u,ecr0")
    assert len(lines) == 3


def test_run_study_records_level_failure(monkeypatch):
    import polyvem.study as study_mod
    calls = {"n": 0}
    orig = study_mod._build_level_mesh

    def flaky(spec, problem, level):
        calls["n"] += 1
        if level == 0:
            raise RuntimeError("synthetic mesh failure")
        return orig(spec, problem, level)

    def failing_errors(mesh, *args):
        if mesh.n_cells == 64:  # level 1
            raise ValueError("synthetic error failure")
        return orig_errors(mesh, *args)

    orig_errors = study_mod.compute_errors
    monkeypatch.setattr(study_mod, "_build_level_mesh", flaky)
    monkeypatch.setattr(study_mod, "compute_errors", failing_errors)
    spec = ProblemSpec(problem="test1-2d", k=1, method="nitsche", gamma=100.0,
                       mesh="structured")
    rep = run_study(spec, 3)
    # a mesh failure leaves nothing computed
    assert rep.levels[0].error == "RuntimeError: synthetic mesh failure"
    assert rep.levels[0].quality == {} and rep.levels[0].n_dofs == 0
    # a later failure keeps the quality and size computed before it
    bad = rep.levels[1]
    assert bad.error == "ValueError: synthetic error failure"
    assert bad.quality["N_P"] == 64 and bad.n_dofs == 81
    assert bad.e1 is None and bad.seconds > 0.0
    assert rep.levels[2].error is None


@pytest.mark.parametrize("method", ["bh", "nitsche"])
def test_level_data_die_before_the_next_level_starts(monkeypatch, method):
    # level L's system (with its LU factor) and cell table must be freed,
    # by reference counting alone, before level L+1 builds its mesh
    import polyvem.study as study_mod
    alive = []
    orig_mesh, orig_solve, orig_elements = (study_mod._build_level_mesh, study_mod.solve,
                                            study_mod.build_all_elements)

    def build_mesh(spec, problem, level):
        assert all(ref() is None for ref in alive), f"an earlier level lives on at level {level}"
        return orig_mesh(spec, problem, level)

    def solve(system):
        alive.append(weakref.ref(system))
        return orig_solve(system)

    def build_elements(*args, **kwargs):
        elements = orig_elements(*args, **kwargs)
        alive.append(weakref.ref(elements))
        return elements

    monkeypatch.setattr(study_mod, "_build_level_mesh", build_mesh)
    monkeypatch.setattr(study_mod, "solve", solve)
    monkeypatch.setattr(study_mod, "build_all_elements", build_elements)
    spec = ProblemSpec(problem="test1-2d", k=2, method=method, mesh="voronoi")
    gc.disable()
    try:
        rep = run_study(spec, 3)
    finally:
        gc.enable()
    assert [lv.error for lv in rep.levels] == [None] * 3 and len(alive) == 6
    assert all(ref() is None for ref in alive)


def test_condest_recorded_on_request():
    spec = ProblemSpec(problem="test1-2d", k=1, method="nitsche", gamma=100.0,
                       mesh="structured", condest=True)
    rep = run_study(spec, 1)
    assert rep.levels[0].condest is not None and rep.levels[0].condest > 1.0


def test_matrix_export(tmp_path):
    prefix = tmp_path / "mat"
    spec = ProblemSpec(problem="test1-2d", k=1, method="nitsche", gamma=100.0,
                       mesh="structured", export_matrix=str(prefix))
    run_study(spec, 1)
    assert (tmp_path / "mat.level0.mtx").exists()


def test_run_study_flags_tau_above_the_threshold():
    # squares k = 4 with normal sigma and k* = 3 reads tau_hat 0.537 on level 0
    spec = ProblemSpec(problem="quarter-disk", k=4, mesh="squares", correction=True,
                       sigma="normal", kstar=3)
    rep = run_study(spec, 1)
    (lv,) = rep.levels
    assert lv.error is None and lv.tau_hat > TAU_THRESHOLD
    assert rep.notes["tau_exceeded"] == [
        dict(level=0, tau_hat=lv.tau_hat, worst_edge=lv.tau_worst_edge)]
    assert json.loads(report_to_json(rep))["notes"]["tau_exceeded"][0]["level"] == 0
    # the benchmark's corrected squares ladder stays below it on every level
    bench = ProblemSpec(problem="quarter-disk", k=2, method="nitsche", gamma=1000.0,
                        mesh="squares", correction=True, kstar="auto",
                        sigma="distance-gradient")
    rep = run_study(bench, 4)
    assert all(lv.error is None and lv.tau_hat <= TAU_THRESHOLD for lv in rep.levels)
    assert "tau_exceeded" not in rep.notes
