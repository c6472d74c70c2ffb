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
from dataclasses import replace

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
    "correction_data",
    "assemble_bdt_bh",
    "assemble_bdt_nitsche",
    "recover_multiplier_curved",
]


def correction_data(mesh: PolygonalMesh, elements: list, mult: MultiplierSpace,
                    levelset: LevelSetDomain, cfg_bc: WeakBcConfig,
                    cfg_corr: CorrectionConfig, works: list | None = None) -> list:
    """Edge workspaces of the corrected problem, one per boundary edge.

    Each is a flat workspace (`works`, built here when None) whose
    `data_points` are the foot points x + delta(x) sigma and whose
    `correction` is the Taylor field (None when kstar = 0); the other arrays
    are shared with the flat workspace.  delta is found at every quadrature
    node of every boundary edge in one batched root search, and the result
    is meant to be shared by the assembly and the multiplier recovery of a
    level.
    """
    if cfg_corr.kstar > cfg_bc.k:
        raise ValueError("kstar must not exceed the space order k")
    if works is None:
        works = edge_workspaces(mesh, elements, GlobalDofMap(mesh, cfg_bc.k), mult,
                                cfg_bc.resolved_edge_exactness)
    sigmas, gaps = boundary_gaps(levelset, mesh, [w.edge for w in works],
                                 [w.points for w in works], cfg_corr)
    out = []
    for w, sigma, ds in zip(works, sigmas, gaps):
        values = None
        if cfg_corr.kstar >= 1:
            el = elements[w.cell]
            m1 = directional_derivative_matrix(el.basis, sigma, 1)
            evals = el.basis.eval(w.points)
            cur = el.pinabla
            values = np.zeros((len(w.points), el.n_dofs))
            for j in range(1, cfg_corr.kstar + 1):
                cur = m1 @ cur
                values += (ds**j / math.factorial(j))[:, None] * (evals @ cur)
        out.append(replace(w, data_points=w.points + ds[:, None] * sigma[None, :],
                           correction=values))
    return out


def assemble_bdt_bh(mesh: PolygonalMesh, elements: list, mult: MultiplierSpace,
                    levelset: LevelSetDomain, cfg_bc: WeakBcConfig,
                    cfg_corr: CorrectionConfig, f, g, data: list | None = None) -> LinearSystem:
    """Corrected multiplier saddle system on an inscribed polygonal mesh.

    `data` is the workspace list of `correction_data`; it is computed here
    when None.
    """
    works = data or correction_data(mesh, elements, mult, levelset, cfg_bc, cfg_corr)
    return assemble_bh(mesh, elements, mult, cfg_bc, f, g, works=works)


def assemble_bdt_nitsche(mesh: PolygonalMesh, elements: list,
                         levelset: LevelSetDomain, cfg_bc: WeakBcConfig,
                         cfg_corr: CorrectionConfig, f, g,
                         mult: MultiplierSpace | None = None,
                         data: list | None = None) -> LinearSystem:
    """Corrected penalty system; equals the edge-local condensation of the
    corrected multiplier system for k' = k, gamma = 1/alpha."""
    mult = mult or MultiplierSpace.create(mesh, cfg_bc.resolved_kprime)
    works = data or correction_data(mesh, elements, mult, levelset, cfg_bc, cfg_corr)
    return assemble_nitsche(mesh, elements, cfg_bc, f, g, works=works, mult=mult)


def recover_multiplier_curved(u_dofs: np.ndarray, mesh: PolygonalMesh, elements: list,
                              levelset: LevelSetDomain, cfg_bc: WeakBcConfig,
                              cfg_corr: CorrectionConfig, g,
                              mult: MultiplierSpace | None = None,
                              data: list | None = None) -> np.ndarray:
    mult = mult or MultiplierSpace.create(mesh, cfg_bc.resolved_kprime)
    works = data or correction_data(mesh, elements, mult, levelset, cfg_bc, cfg_corr)
    return recover_multiplier(u_dofs, mesh, elements, cfg_bc, g, mult=mult, works=works)
