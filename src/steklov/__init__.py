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
from .vem import (
    GlobalSystem,
    LocalElementOperators,
    assemble,
    local_boundary_mass,
    local_operators,
    local_projector,
    project_solution,
    projected_gradients,
)
from .eigensolver import (
    ConvergenceError,
    EigensolverError,
    SolverOptions,
    SpectralPair,
    dense_reference_solve,
    normalize_pair,
    residual_norm,
    solve_smallest_positive,
)
from .estimator import (
    GlobalEstimate,
    edge_residuals,
    element_indicators,
    global_estimate,
)
from .adaptivity import (
    MarkSet,
    RefinementRecord,
    mark,
    normalize_refinement_edges,
    refine_fem,
    refine_uniform,
    refine_vem,
)
from .experiments import (
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
