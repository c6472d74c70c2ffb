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
from .element import CellTable, GlobalDofMap
from .levelset import CorrectionConfig, LevelSetDomain, boundary_gaps
from .linsys import LinearSystem
from .mesh import PolygonalMesh
from .weakbc import (
    EdgeBatch,
    EdgeTable,
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


def correction_data(mesh: PolygonalMesh, elements: CellTable, mult: MultiplierSpace,
                    levelset: LevelSetDomain, cfg_bc: WeakBcConfig,
                    cfg_corr: CorrectionConfig, table: EdgeTable | None = None) -> EdgeTable:
    """The edge table of the corrected problem.

    It is the flat table (`table`, built here when None) with `data_points`
    moved to the foot points x + delta(x) sigma and with the Taylor
    `correction` of each batch (None when kstar = 0); every other array is
    shared with the flat table.  delta is found at every quadrature node of
    every boundary edge in one batched root search, and the result is meant
    to be shared by the assembly and the multiplier recovery of a level.
    """
    if cfg_corr.kstar > cfg_bc.k:
        raise ValueError("kstar must not exceed the space order k")
    if table is None:
        table = edge_workspaces(mesh, elements, GlobalDofMap(mesh, cfg_bc.k), mult,
                                cfg_bc.resolved_edge_exactness)
    sigmas, gaps = boundary_gaps(levelset, mesh, table.edge, table.points, cfg_corr)
    correction = None
    if cfg_corr.kstar >= 1:
        correction = tuple(_taylor_field(elements, table, b, sigmas[b.rows], gaps[b.rows],
                                         cfg_corr.kstar) for b in table.batches)
    return replace(table, data_points=table.points + gaps[..., None] * sigmas[:, None, :],
                   correction=correction)


def _taylor_field(elements: CellTable, table: EdgeTable, batch: EdgeBatch, sigma: np.ndarray,
                  ds: np.ndarray, kstar: int) -> np.ndarray:
    """sum_j ds^j / j! * d_sigma^j Pi-nabla at the quadrature points of a batch."""
    cells = table.cell[batch.rows]
    basis = elements.basis(cells)
    m1 = directional_derivative_matrix(basis, sigma, 1)
    evals = basis.eval(table.points[batch.rows])
    cur = elements.gather("pinabla", cells)
    values = np.zeros(batch.normal_deriv.shape)
    for j in range(1, kstar + 1):
        cur = m1 @ cur
        values += (ds**j / math.factorial(j))[..., None] * (evals @ cur)
    return values


def assemble_bdt_bh(mesh: PolygonalMesh, elements: CellTable, mult: MultiplierSpace,
                    levelset: LevelSetDomain, cfg_bc: WeakBcConfig,
                    cfg_corr: CorrectionConfig, f, g,
                    data: EdgeTable | None = None) -> LinearSystem:
    """Corrected multiplier saddle system on an inscribed polygonal mesh.

    `data` is the table of `correction_data`; it is computed here when None.
    """
    table = data or correction_data(mesh, elements, mult, levelset, cfg_bc, cfg_corr)
    return assemble_bh(mesh, elements, mult, cfg_bc, f, g, table=table)


def assemble_bdt_nitsche(mesh: PolygonalMesh, elements: CellTable,
                         levelset: LevelSetDomain, cfg_bc: WeakBcConfig,
                         cfg_corr: CorrectionConfig, f, g,
                         mult: MultiplierSpace | None = None,
                         data: EdgeTable | None = None) -> LinearSystem:
    """Corrected penalty system; equals the edge-local condensation of the
    corrected multiplier system for k' = k, gamma = 1/alpha."""
    mult = mult or MultiplierSpace.create(mesh, cfg_bc.resolved_kprime)
    table = data or correction_data(mesh, elements, mult, levelset, cfg_bc, cfg_corr)
    return assemble_nitsche(mesh, elements, cfg_bc, f, g, table=table, mult=mult)


def recover_multiplier_curved(u_dofs: np.ndarray, mesh: PolygonalMesh, elements: CellTable,
                              levelset: LevelSetDomain, cfg_bc: WeakBcConfig,
                              cfg_corr: CorrectionConfig, g,
                              mult: MultiplierSpace | None = None,
                              data: EdgeTable | None = None) -> np.ndarray:
    mult = mult or MultiplierSpace.create(mesh, cfg_bc.resolved_kprime)
    table = data or correction_data(mesh, elements, mult, levelset, cfg_bc, cfg_corr)
    return recover_multiplier(u_dofs, mesh, elements, cfg_bc, g, mult=mult, table=table)
