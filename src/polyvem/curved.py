"""Taylor boundary correction for polygonal approximations of curved domains.

On each boundary edge the correction field is

    c(u)(x) = sum_{j=1..kstar} delta(x)^j / j! * d_sigma^j (Pi-nabla u)(x),

with delta the gap to the true boundary along the constant per-edge outward
direction sigma, evaluated pointwise at the edge quadrature nodes.  The
boundary datum is composed with the foot point, g~(x) = g(x + delta(x) sigma).
The corrected multiplier system gains c(u) in the multiplier row only (and is
therefore non-symmetric); eliminating the multiplier yields the corrected
penalty system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import directional_derivative_matrix
from .element import GlobalDofMap
from .levelset import CorrectionConfig, LevelSetDomain, boundary_gaps
from .linsys import LinearSystem
from .mesh import PolygonalMesh
from .weakbc import (
    MultiplierSpace,
    WeakBcConfig,
    assemble_bh,
    assemble_nitsche,
    edge_workspaces,
    recover_multiplier,
)

__all__ = [
    "EdgeCorrection",
    "correction_data",
    "assemble_bdt_bh",
    "assemble_bdt_nitsche",
    "recover_multiplier_curved",
]


@dataclass(frozen=True)
class EdgeCorrection:
    edge: int
    sigma: np.ndarray
    deltas: np.ndarray        # gap at each quadrature point
    foot_points: np.ndarray   # x + delta(x) sigma, on the true boundary
    values: np.ndarray | None  # (nq, n_cell_dofs) correction field, None if kstar = 0
    block: np.ndarray | None   # (k'+1, n_cell_dofs) multiplier-row coupling


def correction_data(mesh: PolygonalMesh, elements: list, mult: MultiplierSpace,
                    levelset: LevelSetDomain, cfg_bc: WeakBcConfig,
                    cfg_corr: CorrectionConfig, works: list | None = None) -> tuple:
    """Per-edge correction quantities on the shared edge quadrature.

    Returns (works, corrections); delta is found at every quadrature node of
    every boundary edge in one batched root search, and the result is meant
    to be shared by the assembly and the multiplier recovery of a level.
    """
    if cfg_corr.kstar > cfg_bc.k:
        raise ValueError("kstar must not exceed the space order k")
    exact = cfg_corr.edge_exactness or cfg_bc.resolved_edge_exactness
    if works is None:
        works = edge_workspaces(mesh, elements, GlobalDofMap(mesh, cfg_bc.k), mult, exact)
    sigmas, gaps = boundary_gaps(levelset, mesh, [w.edge for w in works],
                                 [w.points for w in works], cfg_corr)
    out = []
    for w, sigma, ds in zip(works, sigmas, gaps):
        foot = w.points + ds[:, None] * sigma[None, :]
        values = None
        block = None
        if cfg_corr.kstar >= 1:
            el = elements[w.cell]
            m1 = directional_derivative_matrix(el.basis, sigma, 1)
            evals = el.basis.eval(w.points)
            cur = el.pinabla
            values = np.zeros((len(w.points), el.n_dofs))
            for j in range(1, cfg_corr.kstar + 1):
                cur = m1 @ cur
                values += (ds**j / math.factorial(j))[:, None] * (evals @ cur)
            block = w.psi.T @ (w.weights[:, None] * values)
        out.append(EdgeCorrection(w.edge, sigma, ds, foot, values, block))
    return works, out


def _boundary_terms(corrections: list, g) -> tuple:
    """g at the foot points, and the correction fields (None when kstar = 0)."""
    gvals = [np.asarray(g(c.foot_points), dtype=float) for c in corrections]
    values = [c.values for c in corrections]
    return gvals, None if all(v is None for v in values) else values


def assemble_bdt_bh(mesh: PolygonalMesh, elements: list, mult: MultiplierSpace,
                    levelset: LevelSetDomain, cfg_bc: WeakBcConfig,
                    cfg_corr: CorrectionConfig, f, g, data: tuple | None = None) -> LinearSystem:
    """Corrected multiplier saddle system on an inscribed polygonal mesh.

    `data` is the (works, corrections) pair of `correction_data`; it is
    computed here when None.
    """
    works, corrs = data or correction_data(mesh, elements, mult, levelset, cfg_bc, cfg_corr)
    gvals, values = _boundary_terms(corrs, g)
    blocks = None if values is None else [c.block for c in corrs]
    return assemble_bh(mesh, elements, mult, cfg_bc, f, g, works=works,
                       correction_blocks=blocks, g_values=gvals)


def assemble_bdt_nitsche(mesh: PolygonalMesh, elements: list,
                         levelset: LevelSetDomain, cfg_bc: WeakBcConfig,
                         cfg_corr: CorrectionConfig, f, g,
                         mult: MultiplierSpace | None = None,
                         data: tuple | None = None) -> LinearSystem:
    """Corrected penalty system; equals the edge-local condensation of the
    corrected multiplier system for k' = k, gamma = 1/alpha."""
    if mult is None:
        mult = MultiplierSpace.create(mesh, cfg_bc.resolved_kprime)
    works, corrs = data or correction_data(mesh, elements, mult, levelset, cfg_bc, cfg_corr)
    gvals, values = _boundary_terms(corrs, g)
    return assemble_nitsche(mesh, elements, cfg_bc, f, g, works=works, mult=mult,
                            correction_values=values, g_values=gvals)


def recover_multiplier_curved(u_dofs: np.ndarray, mesh: PolygonalMesh, elements: list,
                              levelset: LevelSetDomain, cfg_bc: WeakBcConfig,
                              cfg_corr: CorrectionConfig, g,
                              mult: MultiplierSpace | None = None,
                              data: tuple | None = None) -> np.ndarray:
    if mult is None:
        mult = MultiplierSpace.create(mesh, cfg_bc.resolved_kprime)
    works, corrs = data or correction_data(mesh, elements, mult, levelset, cfg_bc, cfg_corr)
    gvals, values = _boundary_terms(corrs, g)
    return recover_multiplier(u_dofs, mesh, elements, cfg_bc, g, mult=mult,
                              works=works, correction_values=values, g_values=gvals)
