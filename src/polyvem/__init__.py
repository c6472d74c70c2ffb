"""Polygonal virtual element solver for the Poisson problem with weakly
imposed Dirichlet boundary conditions and curved-boundary correction."""

from .basis import directional_derivative_matrix
from .element import CellTable, GlobalDofMap, build_all_elements
from .generators import (
    build_disk_approx_mesh,
    build_squares_approx_mesh,
    build_structured_mesh,
    build_voronoi_mesh,
)
from .levelset import (
    CorrectionConfig,
    LevelSetDomain,
    choose_sigma,
    delta,
    kstar_default,
    named_levelset,
    tau_report,
)
from .mesh import (
    MeshQualityReport,
    PolygonalMesh,
    mesh_from_json,
    mesh_to_json,
    quality_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
