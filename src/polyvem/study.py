"""Manufactured-solution convergence studies: problem registry, error
metrics, refinement ladders, rate estimation and report serialization.

Errors are the relative broken H1 error of the L2-projected gradient and the
relative L2 error of the energy-projected solution.  The L2 projector of full
degree k is not computable on this element, so the energy projection stands
in for it; every report records that substitution in its metadata.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .curved import correction_data
from .element import STABILIZATIONS, _mv, build_all_elements, error_integrals
from .generators import (
    build_disk_approx_mesh,
    build_squares_approx_mesh,
    build_structured_mesh,
    build_voronoi_mesh,
)
from .levelset import CorrectionConfig, kstar_default, named_levelset, tau_from_gaps
from .linsys import condest_1norm, export_matrix_market, solve
from .mesh import check_number, quality_report
from .weakbc import (
    EdgeTable,
    MultiplierSpace,
    WeakBcConfig,
    assemble_bh,
    assemble_nitsche,
    edge_workspaces,
    recover_multiplier,
)

__all__ = [
    "Problem",
    "ProblemSpec",
    "ConvergenceReport",
    "PROBLEMS",
    "compute_errors",
    "multiplier_error",
    "estimate_rates",
    "run_study",
    "report_to_json",
    "report_to_csv",
]


@dataclass(frozen=True)
class Problem:
    """Exact solution with matching source and boundary data."""

    name: str
    u: callable
    grad_u: callable
    f: callable
    domain_kind: str          # 'polygon' or 'levelset'
    levelset_name: str | None = None

    @property
    def g(self):
        return self.u

    def validate(self, points: np.ndarray, rtol: float = 1e-4) -> None:
        """Finite-difference check that f = -lap u at sample points."""
        h = 1e-4
        p = np.asarray(points, dtype=float)
        lap = np.zeros(len(p))
        for d in (0, 1):
            for s in (1.0, -1.0):
                q = p.copy()
                q[:, d] += s * h
                lap += self.u(q)
        lap = (lap - 4.0 * self.u(p)) / h**2
        ref = np.maximum(np.abs(self.f(p)), 1.0)
        err = np.max(np.abs(self.f(p) + lap) / ref)
        if err > rtol:
            raise ValueError(f"problem {self.name}: f != -lap u (fd error {err:.2e})")


def _test1_2d() -> Problem:
    c = 1.0 / (2.0 * np.pi**2)

    def u(p):
        return c * np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])

    def grad_u(p):
        return np.column_stack([
            -c * np.pi * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
            -c * np.pi * np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
        ])

    def f(p):
        return np.cos(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1])

    return Problem("test1-2d", u, grad_u, f, "polygon")


def _patch() -> Problem:
    # linear solution: reproduced exactly by every order on any mesh
    def u(p):
        return 2.0 * p[:, 0] + 3.0 * p[:, 1] - 1.0

    def grad_u(p):
        return np.broadcast_to(np.array([2.0, 3.0]), (len(p), 2)).copy()

    def f(p):
        return np.zeros(len(p))

    return Problem("patch", u, grad_u, f, "polygon")


def _radial(name: str, levelset_name: str) -> Problem:
    def u(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return np.cos(np.pi * r2 / 4.0)

    def grad_u(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        s = -0.5 * np.pi * np.sin(np.pi * r2 / 4.0)
        return np.column_stack([s * p[:, 0], s * p[:, 1]])

    def f(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return np.pi * np.sin(np.pi * r2 / 4.0) + (np.pi**2 * r2 / 4.0) * np.cos(np.pi * r2 / 4.0)

    return Problem(name, u, grad_u, f, "levelset", levelset_name)


PROBLEMS = {
    "test1-2d": _test1_2d(),
    "patch": _patch(),
    "disk": _radial("disk", "circle"),
    "quarter-disk": _radial("quarter-disk", "quarter_disk"),
}


_SPELLINGS = {  # ProblemSpec string option -> {spelling: what it selects}; kprime: k - k'
    "method": {"nitsche": "nitsche", "bh": "barbosa_hughes", "barbosa_hughes": "barbosa_hughes"},
    "kprime": {"k": 0, "k-1": 1, "km1": 1},
    "sigma": {"normal": "edge_normal", "edge_normal": "edge_normal",
              "distance-gradient": "distance_gradient", "distance_gradient": "distance_gradient"},
    "mesh": {m: m for m in ("structured", "voronoi", "disk", "squares")},
    "stab": {s: s for s in STABILIZATIONS},
}


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one convergence study."""

    problem: str
    k: int
    method: str = "nitsche"            # 'nitsche' or 'bh'
    gamma: float = 1000.0
    alpha: float = 0.001
    kprime: str = "k"                  # 'k' or 'k-1'
    mesh: str = "structured"           # structured | voronoi | disk | squares
    correction: bool = False
    kstar: str | int = "auto"
    sigma: str = "distance-gradient"   # 'normal' or 'distance-gradient'
    refine_steps: int = 2
    stab: str = "d_recipe"
    rng_seed: int = 0
    lloyd_iters: int = 2
    condest: bool = False
    export_matrix: str | None = None

    def __post_init__(self):
        for name, low in (("k", 1), ("refine_steps", 0), ("lloyd_iters", 0), ("rng_seed", 0)):
            check_number(name, getattr(self, name), low, integer=True)
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("gamma", "alpha"):
            check_number(name, getattr(self, name), 0)
        for name, known in _SPELLINGS.items():
            if getattr(self, name) not in known:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; known: {list(known)}")
        if self.kstar != "auto":
            if (isinstance(self.kstar, bool) or not isinstance(self.kstar, (int, np.integer))
                    or not 0 <= self.kstar <= self.k):
                raise ValueError(f"unknown kstar {self.kstar!r}; known: 'auto' or an int "
                                 f"in [0, {self.k}]")
            object.__setattr__(self, "kstar", int(self.kstar))
        if self.correction and self.mesh in ("structured", "voronoi"):
            raise ValueError(f"correction needs a curved mesh family, got mesh {self.mesh!r}")

    def bc_config(self) -> WeakBcConfig:
        method = _SPELLINGS["method"][self.method]
        kp = self.k if method == "nitsche" else self.k - _SPELLINGS["kprime"][self.kprime]
        return WeakBcConfig(method=method, k=self.k, kprime=kp,
                            alpha=self.alpha, gamma=self.gamma)

    def correction_config(self, delta_regime: str) -> CorrectionConfig:
        ks = kstar_default(self.k, delta_regime) if self.kstar == "auto" else self.kstar
        return CorrectionConfig(kstar=ks, sigma_strategy=_SPELLINGS["sigma"][self.sigma])

    def as_dict(self) -> dict:
        return asdict(self)


# mesh ladders per generator: level -> constructor arguments
VORONOI_SEEDS = (16, 64, 256, 1024)
DISK_BOUNDARY = (12, 24, 48, 96)
SQUARES_BASE = (4, 8, 16, 32)


def _ladder_size(table: tuple, level: int, growth: int) -> int:
    """Entry `level` of a ladder table, grown geometrically past its end."""
    last = len(table) - 1
    return table[level] if level <= last else table[last] * growth ** (level - last)


def _build_level_mesh(spec: ProblemSpec, problem: Problem, level: int):
    if spec.mesh == "structured":
        n = 4 * 2**level
        return build_structured_mesh((0.0, 0.0, 1.0, 1.0), n, n), None
    if spec.mesh == "voronoi":
        return build_voronoi_mesh(None, _ladder_size(VORONOI_SEEDS, level, 4),
                                  lloyd_iters=spec.lloyd_iters, rng_seed=spec.rng_seed), None
    if spec.mesh == "disk":
        ls = named_levelset(problem.levelset_name or "circle")
        n = _ladder_size(DISK_BOUNDARY, level, 2)
        return build_disk_approx_mesh(ls, n, max(1, round(n / 6))), ls
    ls = named_levelset(problem.levelset_name or "quarter_disk")
    return build_squares_approx_mesh(ls, _ladder_size(SQUARES_BASE, level, 2),
                                     spec.refine_steps), ls


def compute_errors(mesh, elements, u_dofs, exact_u, exact_grad) -> tuple[float, float]:
    """Relative broken-H1 and L2 errors of a discrete solution.

    The gradient error uses the L2 projection of the discrete gradient onto
    P_{k-1}; the L2 error uses the energy projection of the solution (the
    full-degree L2 projector is not computable from these DOFs).
    """
    local = [u_dofs[elements.dofmap.batch_dofs(b.cells)] for b in elements.batches]
    parts = error_integrals(elements, local, exact_u, exact_grad)
    num1, den1, num0, den0 = np.cumsum(parts, axis=0)[-1]  # summed in cell order
    if den1 <= 0.0 or den0 <= 0.0:
        raise ValueError("exact solution has zero norm; relative errors undefined")
    return float(np.sqrt(num1 / den1)), float(np.sqrt(num0 / den0))


def multiplier_error(mesh, elements, mult: MultiplierSpace, coeffs: np.ndarray,
                     exact_grad, exactness: int, table: EdgeTable | None = None) -> float:
    """|| -grad(u).nu - lambda_h || in the mesh-dependent multiplier norm
    (sum_f htilde ||.||^2_f)^(1/2) over the level's edge table (built here
    when None); block j of `coeffs` belongs to boundary edge j."""
    if table is None:
        table = edge_workspaces(mesh, elements, mult, exactness)
    grad = np.asarray(exact_grad(table.points.reshape(-1, 2)), dtype=float)
    flux = -_mv(grad.reshape(table.points.shape), mesh.edge_normals[table.edge])
    err2 = (_mv(table.psi, coeffs.reshape(len(table.edge), -1)) - flux) ** 2
    per_edge = table.htilde * (table.weights[:, None, :] @ err2[..., None])[:, 0, 0]
    return float(np.sqrt(np.cumsum(per_edge)[-1]))  # summed in edge order


def estimate_rates(errors, hbars, floor: float = 0.0) -> list:
    """log-ratio convergence rates between consecutive levels.

    A rate is None (exact / not applicable) when an error of the pair does
    not exceed `floor`; the default 0.0 marks only genuinely zero errors.
    The studies pass a roundoff floor so that patch-test runs, whose errors
    sit at solver precision, do not report meaningless slopes.
    """
    if len(errors) != len(hbars):
        raise ValueError("errors and mesh sizes must align")
    if len(errors) < 2:
        raise ValueError("need at least two levels")
    out = []
    for i in range(len(errors) - 1):
        e0, e1 = errors[i], errors[i + 1]
        h0, h1 = hbars[i], hbars[i + 1]
        if h0 <= 0 or h1 <= 0 or h0 == h1:
            raise ValueError("mesh sizes must be positive and decreasing")
        if e0 <= floor or e1 <= floor:
            out.append(None)
        else:
            out.append(float(np.log(e0 / e1) / np.log(h0 / h1)))
    return out


@dataclass
class LevelResult:
    level: int
    quality: dict
    n_dofs: int
    e1: float | None = None
    e0: float | None = None
    multiplier_err: float | None = None
    tau_hat: float | None = None
    tau_worst_edge: int | None = None
    condest: float | None = None
    seconds: float = 0.0
    error: str | None = None


@dataclass
class ConvergenceReport:
    spec: dict
    levels: list = field(default_factory=list)
    rates_e1: list = field(default_factory=list)
    rates_e0: list = field(default_factory=list)
    rates_mult: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def _run_level(spec: ProblemSpec, problem: Problem, cfg: WeakBcConfig,
               result: LevelResult, notes: dict) -> None:
    """Solve level `result.level` and fill `result` as it goes; a tau_hat
    above the threshold is listed in `notes`.  The level's mesh, tables,
    system, LU factor and solution are locals here, so they are freed when
    it returns, before the next level's mesh is built."""
    level = result.level
    mesh, ls = _build_level_mesh(spec, problem, level)
    result.quality = quality_report(mesh).as_dict()
    elements = build_all_elements(mesh, spec.k, stab=spec.stab)
    nu = result.n_dofs = elements.dofmap.n_dofs
    mult = MultiplierSpace.create(mesh, cfg.resolved_kprime)
    # one boundary pass: the edge table and its gaps serve every consumer
    table = edge_workspaces(mesh, elements, mult, cfg.resolved_edge_exactness)
    if spec.correction:
        ccfg = spec.correction_config("h_linear" if spec.mesh == "squares" else "h_squared")
        table = correction_data(mesh, elements, mult, ls, cfg, ccfg, table=table)
        tau = tau_from_gaps(table.edge, table.gaps, table.htilde)
        result.tau_hat, result.tau_worst_edge = tau.tau_hat, tau.worst_edge
        if tau.exceeded:  # the corrected problem may be unstable on this level
            notes.setdefault("tau_exceeded", []).append(
                dict(level=level, tau_hat=tau.tau_hat, worst_edge=tau.worst_edge))

    if cfg.method == "barbosa_hughes":
        system = assemble_bh(mesh, elements, mult, cfg, problem.f, problem.g, table=table)
        x = solve(system)
        u_dofs, lam = x[:nu], x[nu:]
    else:
        system = assemble_nitsche(mesh, elements, cfg, problem.f, problem.g,
                                  table=table, mult=mult)
        u_dofs = solve(system)
        lam = recover_multiplier(u_dofs, mesh, elements, cfg, problem.g,
                                 mult=mult, table=table)

    result.e1, result.e0 = compute_errors(mesh, elements, u_dofs, problem.u, problem.grad_u)
    result.multiplier_err = multiplier_error(mesh, elements, mult, lam, problem.grad_u,
                                             cfg.resolved_edge_exactness, table)
    if spec.condest:
        result.condest = condest_1norm(system)
    if spec.export_matrix:
        export_matrix_market(system, f"{spec.export_matrix}.level{level}.mtx")


def run_study(spec: ProblemSpec, levels: int) -> ConvergenceReport:
    """Generate meshes, solve and collect errors over a refinement ladder.

    A failing level is recorded, with the exception type and message and the
    results computed before the failure, and the study continues with the
    remaining levels (each level is independent).  A corrected level whose
    tau_hat exceeds `levelset.TAU_THRESHOLD` is listed, with tau_hat and its
    worst edge, under `notes["tau_exceeded"]`.
    """
    check_number("levels", levels, 1, integer=True)
    problem = PROBLEMS[spec.problem]
    rng = np.random.default_rng(123)
    sample = rng.random((32, 2)) * 0.5 + 0.2
    problem.validate(sample)

    report = ConvergenceReport(spec=spec.as_dict())
    report.notes["l2_projector"] = (
        "e0 uses the energy projection of u_h; the degree-k L2 projector is "
        "not computable on this space"
    )
    cfg = spec.bc_config()
    for level in range(levels):
        t0 = time.perf_counter()
        result = LevelResult(level=level, quality={}, n_dofs=0)
        try:
            _run_level(spec, problem, cfg, result, report.notes)
        except Exception as exc:  # noqa: BLE001 - level failures are recorded
            # the level keeps what it computed before the failure
            result.error = f"{type(exc).__name__}: {exc}"
        result.seconds = time.perf_counter() - t0
        report.levels.append(result)

    good = [lv for lv in report.levels if lv.error is None]
    if len(good) >= 2:
        hb = [lv.quality["h_mean"] for lv in good]
        report.rates_e1 = estimate_rates([lv.e1 for lv in good], hb, floor=1e-11)
        report.rates_e0 = estimate_rates([lv.e0 for lv in good], hb, floor=1e-11)
        report.rates_mult = estimate_rates([lv.multiplier_err for lv in good], hb,
                                           floor=1e-11)
    return report


def report_to_json(report: ConvergenceReport, path=None) -> str:
    doc = {
        "spec": report.spec,
        "notes": report.notes,
        "levels": [asdict(lv) for lv in report.levels],
        "rates": {
            "e1": report.rates_e1,
            "e0": report.rates_e0,
            "multiplier": report.rates_mult,
        },
    }
    text = json.dumps(doc, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def report_to_csv(report: ConvergenceReport, path=None) -> str:
    """Table rows: mesh, N_P, h, hbar, e1, ecr, e0, ecr."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["mesh", "N_P", "h", "hbar", "e1u", "ecr1", "e0u", "ecr0"])
    good = [lv for lv in report.levels if lv.error is None]
    for i, lv in enumerate(good):
        r1 = report.rates_e1[i - 1] if i > 0 and i - 1 < len(report.rates_e1) else None
        r0 = report.rates_e0[i - 1] if i > 0 and i - 1 < len(report.rates_e0) else None
        writer.writerow([
            f"level{lv.level}",
            lv.quality.get("N_P"),
            lv.quality.get("h"),
            lv.quality.get("h_mean"),
            lv.e1,
            "" if r1 is None else r1,
            lv.e0,
            "" if r0 is None else r0,
        ])
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
