"""Traced replica of `run_study`'s level pipeline.

Each level is rebuilt from the public API of every layer, in the order
`run_study` calls it, and every call is timed as one span.  The meshes come
from the public generators and the public ladder constants (`VORONOI_SEEDS`,
`SQUARES_BASE`), never from the study's private mesh helper, so the spans
describe the same program the untraced run measures; the correctness gate
checks that the errors agree with `run_study`'s to 1e-12 relative.

Solver statistics (fill, backward error) are computed after a level's wall
clock stops, so that work is not charged to any layer.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager

import numpy as np
import scipy.sparse.linalg as spla

import polyvem.levelset as levelset_module
from polyvem.curved import assemble_bdt_bh, assemble_bdt_nitsche, recover_multiplier_curved
from polyvem.element import GlobalDofMap, build_all_elements
from polyvem.generators import build_squares_approx_mesh, build_voronoi_mesh
from polyvem.levelset import named_levelset, tau_report
from polyvem.linsys import solve
from polyvem.mesh import quality_report
from polyvem.study import (
    PROBLEMS,
    SQUARES_BASE,
    VORONOI_SEEDS,
    compute_errors,
    multiplier_error,
)
from polyvem.weakbc import MultiplierSpace, assemble_bh, assemble_nitsche, recover_multiplier


def _ladder_size(table: tuple, level: int, growth: int) -> int:
    # past the end of the table the ladder keeps refining by `growth`
    last = len(table) - 1
    return table[level] if level <= last else table[-1] * growth ** (level - last)


def ladder_mesh(spec, problem, level: int):
    """The level's mesh and level set (None on polygons), as the study builds them."""
    if spec.mesh == "voronoi":
        seeds = _ladder_size(VORONOI_SEEDS, level, 4)
        mesh = build_voronoi_mesh(None, seeds, lloyd_iters=spec.lloyd_iters,
                                  rng_seed=spec.rng_seed)
        return mesh, None
    if spec.mesh == "squares":
        ls = named_levelset(problem.levelset_name or "quarter_disk")
        base = _ladder_size(SQUARES_BASE, level, 2)
        return build_squares_approx_mesh(ls, base, spec.refine_steps), ls
    raise ValueError(f"no traced ladder for mesh family {spec.mesh!r}")


class _Spans:
    """Spans of one level: (name, start, end) in seconds from the level start."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start - self.t0, time.perf_counter() - self.t0))


class DeltaCounter:
    """Counts calls to `polyvem.levelset.delta` while active.

    `delta_many` looks `delta` up in its module on every call, so replacing
    the module attribute counts every root search of the level-set layer.
    """

    def __init__(self):
        self.calls = 0
        self._original = None

    def _counted(self, *args, **kwargs):
        self.calls += 1
        return self._original(*args, **kwargs)

    def __enter__(self):
        self._original = levelset_module.delta
        levelset_module.delta = self._counted
        return self

    def __exit__(self, *exc):
        levelset_module.delta = self._original


def linsys_stats(system, x) -> dict:
    """Size, nnz, LU fill and the backward error ||Ax-b|| / (||A|| ||x|| + ||b||)
    in the infinity norm."""
    lu = system.factor()
    fill = lu.L.nnz
    fill += lu.U.nnz  # one triangular factor copy alive at a time
    A, b = system.matrix, system.rhs
    resid = float(np.max(np.abs(A @ x - b), initial=0.0))
    denom = spla.norm(A, np.inf) * np.max(np.abs(x), initial=0.0) + np.max(np.abs(b), initial=0.0)
    return {
        "linsys_n": int(system.n),
        "linsys_nnz": int(A.nnz),
        "lu_fill": int(fill),
        "backward_error": resid / float(denom) if denom > 0 else 0.0,
    }


def trace_level(spec, level: int, counter: DeltaCounter) -> dict:
    problem = PROBLEMS[spec.problem]
    cfg = spec.bc_config()
    record = {"level": level, "error": None, "boundary_edges": 0}
    span = _Spans()
    calls_before = counter.calls
    system = x = None
    try:
        with span("generators.mesh_s"):
            mesh, ls = ladder_mesh(spec, problem, level)
        with span("element.build_s"):
            elements = build_all_elements(mesh, spec.k, stab=spec.stab)
        with span("element.dofmap_s"):
            dofmap = GlobalDofMap(mesh, spec.k)
        with span("weakbc.multspace_s"):
            mult = MultiplierSpace.create(mesh, cfg.resolved_kprime)
        with span("mesh.quality_s"):
            quality_report(mesh).as_dict()
        record.update(cells=mesh.n_cells, n_dofs=dofmap.n_dofs)

        use_corr = spec.correction and ls is not None
        if use_corr:
            ccfg = spec.correction_config("h_linear" if spec.mesh == "squares" else "h_squared")
            with span("levelset.tau_s"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tau = tau_report(ls, mesh, ccfg)
            record["boundary_edges"] = len(tau.edge_indices)
        layer = "curved" if use_corr else "weakbc"
        bh = cfg.method == "barbosa_hughes"

        with span(f"{layer}.assemble_s"):
            if bh and use_corr:
                system = assemble_bdt_bh(mesh, elements, mult, ls, cfg, ccfg, problem.f, problem.g)
            elif bh:
                system = assemble_bh(mesh, elements, mult, cfg, problem.f, problem.g)
            elif use_corr:
                system = assemble_bdt_nitsche(mesh, elements, ls, cfg, ccfg, problem.f,
                                              problem.g, mult=mult)
            else:
                system = assemble_nitsche(mesh, elements, cfg, problem.f, problem.g, mult=mult)
        with span("linsys.factor_s"):
            system.factor()
        with span("linsys.solve_s"):
            x = solve(system)
        if bh:
            u_dofs, lam = x[:dofmap.n_dofs], x[dofmap.n_dofs:]
        else:
            u_dofs = x
            with span(f"{layer}.recover_s"):
                if use_corr:
                    lam = recover_multiplier_curved(u_dofs, mesh, elements, ls, cfg, ccfg,
                                                    problem.g, mult=mult)
                else:
                    lam = recover_multiplier(u_dofs, mesh, elements, cfg, problem.g, mult=mult)
        with span("study.errors_s"):
            e1, e0 = compute_errors(mesh, elements, u_dofs, problem.u, problem.grad_u)
            merr = multiplier_error(mesh, elements, mult, lam, problem.grad_u,
                                    cfg.resolved_edge_exactness)
        record.update(e1=e1, e0=e0, multiplier_err=merr)
    except Exception as exc:  # noqa: BLE001 - a failed level is recorded, as run_study does
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["wall_s"] = time.perf_counter() - span.t0
    record["spans"] = span.spans
    record["delta_calls"] = counter.calls - calls_before
    if x is not None:
        record.update(linsys_stats(system, x))
    return record


def trace_ladder(spec, levels: int) -> list:
    """One traced record per level of the ladder."""
    with DeltaCounter() as counter:
        return [trace_level(spec, level, counter) for level in range(levels)]
