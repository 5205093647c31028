"""Adaptive virtual element solver for Steklov eigenvalue problems."""

from .mesh import (
    BoundaryTag,
    MeshError,
    MeshQualityReport,
    PolygonalMesh,
    build_topology,
    load_mesh,
    quality_report,
    save_mesh,
)
from .vem import GlobalSystem, assemble, project
from .eigensolver import (
    ConvergenceError,
    EigensolverError,
    SpectralPair,
    residual_norm,
    solve_smallest_positive,
)
from .estimator import edge_residuals, element_indicators
from .adaptivity import (
    mark,
    normalize_refinement_edges,
    prolong,
    refine_fem,
    refine_uniform,
    refine_vem,
)
from .experiments import (
    NOTCHED_REFERENCE,
    ConvergenceRecord,
    ExperimentConfig,
    ExperimentResult,
    RateFit,
    emit_outputs,
    exact_eigenvalue_square,
    fit_rate,
    initial_mesh,
    notched_reference_eigenvalue,
    run_experiment,
)
from .render import mesh_to_svg

__version__ = "0.1.0"
