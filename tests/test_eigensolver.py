"""Eigensolver: agreement with dense references, invariants, failure modes."""

import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from steklov import eigensolver
from steklov.adaptivity import prolong, refine_uniform, refine_vem
from steklov.eigensolver import (
    ConvergenceError,
    EigensolverError,
    residual_norm,
    solve_smallest_positive,
)
from steklov.experiments import ExperimentConfig, initial_mesh, run_experiment
from steklov.mesh import PolygonalMesh, _edge_table, build_topology
from steklov.vem import assemble

from fem_oracle import boundary_mass as oracle_boundary_mass
from fem_oracle import dense_reference_solve, dense_steklov_solve, lowest_pairs
from fem_oracle import p1_stiffness as oracle_stiffness


def spectral_dofs(system):
    """The ascending dofs on Gamma0: the rows that the boundary mass stores."""
    return np.flatnonzero(system.boundary_mass.getnnz(axis=1))


def small_meshes():
    """A handful of meshes under 200 dofs mixing triangles and polygons."""
    square = initial_mesh("square")
    notched = initial_mesh("notched")
    vem_once = refine_vem(square, range(8))
    yield square
    yield notched
    yield vem_once
    yield refine_uniform(square)


def test_sparse_matches_dense_reference():
    for mesh in small_meshes():
        system = assemble(mesh)
        dense = dense_reference_solve(system)
        pair = solve_smallest_positive(system)
        # dense spectrum starts with the zero mode of the constant vector
        assert abs(dense[0]) < 1e-8
        assert abs(pair.value - dense[1]) < 1e-8 * max(1.0, dense[1])


def test_matches_fem_oracle_eigensolve():
    mesh = initial_mesh("square")
    system = assemble(mesh)
    triangles = mesh.cell_vertices.reshape(-1, 3)
    K = oracle_stiffness(mesh.vertices, triangles)
    g = mesh.gamma0_edge_ids()
    gamma0 = list(zip(mesh.edge_a[g].tolist(), mesh.edge_b[g].tolist()))
    M = oracle_boundary_mass(mesh.vertices, gamma0)
    values, vectors = dense_steklov_solve(K, M)
    pair = solve_smallest_positive(system)
    assert abs(pair.value - values[0]) < 1e-9 * values[0]
    # eigenvectors agree up to sign in the M norm
    w = pair.vector
    v = vectors[:, 0]
    align = w @ M @ v
    assert abs(abs(align) - 1.0) < 1e-8


def test_finite_spectrum_size_is_gamma0_dofs_minus_one():
    for mesh in small_meshes():
        system = assemble(mesh)
        dense = dense_reference_solve(system)
        n_zero = int(np.sum(np.abs(dense) < 1e-8))
        n_positive = int(np.sum(dense > 1e-8))
        assert n_zero == 1
        assert n_positive == len(spectral_dofs(system)) - 1


def test_bad_tol_and_seed_are_refused_by_name():
    system = assemble(initial_mesh("square"))
    for tol in (0.0, -1.0, math.inf):
        with pytest.raises(EigensolverError, match="tol must be positive"):
            solve_smallest_positive(system, tol=tol)
    with pytest.raises(EigensolverError, match="seed must be non-negative, got -1"):
        solve_smallest_positive(system, seed=-1)
    for seed in (1.5, True, np.float64(2.0)):
        with pytest.raises(EigensolverError, match="seed must be an integer"):
            solve_smallest_positive(system, seed=seed)
    # a bool or non-number tol is refused by name rather than by numpy,
    # ARPACK or a loose residual test
    for tol in (True, "1e-10", None):
        with pytest.raises(EigensolverError, match="tol must be a number"):
            solve_smallest_positive(system, tol=tol)


def test_solution_invariants():
    system = assemble(initial_mesh("square"))
    pair = solve_smallest_positive(system)
    M = system.boundary_mass
    w = pair.vector

    # residual contract
    assert pair.residual <= 1e-10
    assert abs(residual_norm(system, pair.value, w) - pair.residual) < 1e-14

    # unit boundary mass norm
    assert abs(w @ (M @ w) - 1.0) < 1e-10

    # deflation: M-orthogonal to constants
    assert abs(np.ones_like(w) @ (M @ w)) <= 1e-8 * np.linalg.norm(M @ w)

    # sign convention: first sizable spectral dof is positive
    lead = next(d for d in spectral_dofs(system) if abs(w[d]) > 1e-8)
    assert w[lead] > 0.0


def test_normalize_refuses_zero_boundary_mass():
    system = assemble(initial_mesh("square"))
    interior = np.zeros(system.n_dofs)
    # a vector supported away from the spectral boundary has no mass norm
    interior_dof = next(
        d for d in range(system.n_dofs) if d not in set(spectral_dofs(system))
    )
    interior[interior_dof] = 1.0
    with pytest.raises(EigensolverError, match="zero boundary mass"):
        eigensolver._normalize(system, interior)


def test_seeded_runs_are_bitwise_reproducible():
    system = assemble(initial_mesh("square"))
    a = solve_smallest_positive(system, seed=7)
    b = solve_smallest_positive(system, seed=7)
    assert a.value == b.value
    assert np.array_equal(a.vector, b.vector)


@pytest.fixture
def one_restart(monkeypatch):
    """Cap ARPACK at a single restart; the solver's own bound is fixed."""
    eigsh = eigensolver.spla.eigsh

    def capped(*args, **kwargs):
        return eigsh(*args, **{**kwargs, "maxiter": 1})

    monkeypatch.setattr(eigensolver.spla, "eigsh", capped)


def test_convergence_error_reports_best_residual(one_restart):
    # a single sweep at an unreachable tolerance must fail honestly
    mesh = initial_mesh("square")
    system = assemble(mesh)
    with pytest.raises(ConvergenceError) as info:
        solve_smallest_positive(system, tol=1e-16)
    assert info.value.best_residual > 0.0
    assert "best residual" in str(info.value)


def test_residual_norm_zero_vector_is_infinite():
    system = assemble(initial_mesh("square"))
    assert residual_norm(system, 1.0, np.zeros(system.n_dofs)) == np.inf


def test_exactness_on_two_dof_boundary():
    # one square cell, spectral boundary on top: the pencil has exactly one
    # positive eigenvalue, so the Lanczos basis spans everything at once
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    mesh = build_topology(verts, [[0, 1, 2, 3]], [(2, 3)])
    system = assemble(mesh)
    dense = dense_reference_solve(system)
    pair = solve_smallest_positive(system)
    assert abs(pair.value - dense[1]) < 1e-10 * dense[1]


def test_disconnected_system_ends_in_a_named_error():
    # build_topology refuses a disconnected mesh; one built around it, two
    # unit squares that share no vertex, still fails by name: with gamma0
    # only on the left square's top K + M is singular, with gamma0 on both
    # tops the right square's constant is a second mode at mu = 1
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [2.0, 0.0], [3.0, 0.0], [3.0, 1.0], [2.0, 1.0]])
    cell_ptr, tails = np.array([0, 4, 8]), np.arange(8)
    edges = _edge_table(verts, cell_ptr, tails)  # every edge is a boundary edge
    a, b = edges[1:3]
    for both, message in ((False, "factorization of the shifted matrix failed"),
                          (True, "mu = 1: the constant mode escaped deflation")):
        top = (verts[a, 1] == 1.0) & (verts[b, 1] == 1.0) & (both | (verts[a, 0] <= 1.0))
        system = assemble(PolygonalMesh(verts, cell_ptr, tails, *edges, top))
        with pytest.raises(EigensolverError, match=message):
            solve_smallest_positive(system)


def test_pencil_without_a_spectral_edge_is_refused_by_name():
    # build_topology refuses a mesh with no gamma0 edge; one built around it,
    # a unit square tagged gamma1 all round, has no spectral dof and so no
    # finite positive eigenvalue
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cell_ptr, tails = np.array([0, 4]), np.arange(4)
    edges = _edge_table(verts, cell_ptr, tails)
    gamma0 = np.zeros(len(edges[0]), dtype=bool)
    system = assemble(PolygonalMesh(verts, cell_ptr, tails, *edges, gamma0))
    assert len(spectral_dofs(system)) == 0
    with pytest.raises(EigensolverError, match="no finite positive eigenvalue: 0 spectral-boundary dofs"):
        solve_smallest_positive(system)


def test_boundary_mass_of_zeros_is_refused_by_name():
    # M scaled by zero keeps its stored rows, so the pencil keeps its
    # spectral dofs but has no mass on them
    system = assemble(initial_mesh("square"))
    empty = dataclasses.replace(system, boundary_mass=system.boundary_mass * 0.0)
    assert empty.boundary_mass.nnz == system.boundary_mass.nnz
    assert len(spectral_dofs(empty)) == len(spectral_dofs(system)) >= 2
    with pytest.raises(EigensolverError, match="^boundary mass matrix has no positive mass$"):
        solve_smallest_positive(empty)


def quad_split_notched():
    """The notched mesh with every cell quad-split four times: 3,753 dofs."""
    mesh = initial_mesh("notched")
    for _ in range(4):
        mesh = refine_vem(mesh, range(mesh.n_cells))
    return mesh


def test_arpack_stall_is_a_convergence_error(one_restart):
    # one restart is too few on 3,753 dofs: ARPACK gives up with no pair, and
    # the error reports an infinite best residual
    system = assemble(quad_split_notched())
    with pytest.raises(ConvergenceError, match="best residual inf") as info:
        solve_smallest_positive(system)
    assert info.value.best_residual == np.inf


@pytest.fixture
def factors(monkeypatch):
    """Per ``splu`` call of the solver: ``{"columns": ..., "fill": ...}``,
    the number of column solves and ``L.nnz + U.nnz`` of the factor.  The
    oracle's ``lowest_pairs`` is not counted: scipy's shift-invert mode
    calls the ``splu`` it imported, not this module attribute."""
    calls = []
    splu = spla.splu

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            calls[-1]["columns"] += 1 if rhs.ndim == 1 else rhs.shape[1]
            return self.lu.solve(rhs)

        def __getattr__(self, name):
            return getattr(self.lu, name)

    def counting_splu(matrix, *args, **kwargs):
        lu = splu(matrix, *args, **kwargs)
        calls.append({"columns": 0, "fill": lu.L.nnz + lu.U.nnz})
        return CountingLU(lu)

    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls


def test_column_solves_per_call_stay_within_budget(factors):
    system = assemble(quad_split_notched())
    pair = solve_smallest_positive(system)
    assert system.n_dofs == 3753 and pair.residual <= 1e-10
    assert len(factors) == 1 and 0 < factors[0]["columns"] <= 30


# column solves of each step of a 13-step adaptive run, as README records
# them: the cold ARPACK solve of step 0, then shifted inverse iteration
WARM_SOLVE_BUDGETS = {
    ("notched", "adaptive-vem"): [11, 12, 6, 4, 4, 4, 4] + [3] * 6,
    ("square", "adaptive-fem"): [11] + [5] * 12,
}


@pytest.mark.parametrize("test, method", sorted(WARM_SOLVE_BUDGETS))
def test_adaptive_runs_factor_once_per_step_within_the_recorded_solves(factors, test, method):
    # a warm step whose certificate fails falls back to ARPACK and factors
    # twice, and ARPACK's warm Lanczos takes about 16 solves: every output
    # would stay right, only slower
    budget = WARM_SOLVE_BUDGETS[test, method]
    result = run_experiment(ExperimentConfig(test=test, method=method, steps=len(budget)))
    assert len(result.records) == len(budget) == len(factors)
    columns = [call["columns"] for call in factors]
    assert all(0 < used <= most for used, most in zip(columns, budget)), columns


@functools.cache
def split_notched_pair():
    """The notched mesh quad-split three times (969 dofs), and once more."""
    coarse = initial_mesh("notched")
    for _ in range(3):
        coarse = refine_vem(coarse, range(coarse.n_cells))
    return coarse, refine_vem(coarse, range(coarse.n_cells))


def test_warm_start_from_the_prolonged_coarse_solution(factors):
    coarse, fine = split_notched_pair()
    coarse_pair = solve_smallest_positive(assemble(coarse))
    system = assemble(fine)
    cold = solve_smallest_positive(system)
    warm = solve_smallest_positive(system, start=prolong(coarse, fine, coarse_pair.vector))
    assert system.n_dofs == 3753 and warm.residual <= 1e-10
    assert abs(warm.value - cold.value) <= 1e-12 * cold.value
    # inverse iteration shifted at the start's Rayleigh quotient: one factor
    # of K - sigma M and 3 column solves, where ARPACK's warm Lanczos took 16
    assert len(factors) == 3 and 0 < factors[2]["columns"] <= 4


def test_warm_start_above_the_second_eigenvalue_falls_back(factors):
    coarse, fine = split_notched_pair()
    coarse_second = lowest_pairs(assemble(coarse), 2)[1]
    system = assemble(fine)
    first, second = lowest_pairs(system, 2)
    start = prolong(coarse, fine, coarse_second.vector)
    # the start's Rayleigh quotient, which deflating the constants only
    # raises, lies above lambda_2
    K, M = system.stiffness, system.boundary_mass
    assert start @ (K @ start) / (start @ (M @ start)) > second.value
    warm = solve_smallest_positive(system, start=start)
    assert abs(warm.value - first.value) <= 1e-12 * first.value
    # K - sigma M has 3 negative pivots, so it is refused before any solve
    # and ARPACK factorizes K + M
    assert len(factors) == 2 and factors[0]["columns"] == 0 < factors[1]["columns"]


def test_warm_start_nearer_the_second_eigenvalue_falls_back(factors):
    # sigma lies between lambda_1 and lambda_2, nearer lambda_2: the pivots
    # pass, the iteration converges to lambda_2 > sigma and is refused
    system = assemble(split_notched_pair()[1])
    first, second = lowest_pairs(system, 2)
    start = np.sqrt(0.1) * first.vector + np.sqrt(0.9) * second.vector
    warm = solve_smallest_positive(system, start=start)
    assert abs(warm.value - first.value) <= 1e-12 * first.value
    assert len(factors) == 2 and factors[0]["columns"] > 0 < factors[1]["columns"]


def test_warm_start_with_unequal_pivot_orders_falls_back(monkeypatch):
    # diag(U) carries the inertia only when rows and columns are permuted alike
    coarse, fine = split_notched_pair()
    coarse_pair = solve_smallest_positive(assemble(coarse))
    system = assemble(fine)
    cold = solve_smallest_positive(system)
    splu = spla.splu
    made = []

    class RowPivotedLU:
        def __init__(self, lu):
            self.lu = lu
            self.perm_r = lu.perm_r[::-1]

        def __getattr__(self, name):
            return getattr(self.lu, name)

    def row_pivoted_splu(*args, **kwargs):
        made.append(RowPivotedLU(splu(*args, **kwargs)))
        return made[-1]

    monkeypatch.setattr(spla, "splu", row_pivoted_splu)
    warm = solve_smallest_positive(system, start=prolong(coarse, fine, coarse_pair.vector))
    # K - sigma M is refused, and ARPACK factorizes K + M
    assert len(made) == 2 and abs(warm.value - cold.value) <= 1e-12 * cold.value


def test_warm_start_whose_shifted_matrix_cannot_be_factored_falls_back(monkeypatch):
    # a K - sigma M that SuperLU refuses ends the warm solve, and ARPACK
    # factorizes K + M
    coarse, fine = split_notched_pair()
    coarse_pair = solve_smallest_positive(assemble(coarse))
    system = assemble(fine)
    cold = solve_smallest_positive(system)
    factorize = eigensolver._factorize
    matrices = []

    def failing_first(matrix):
        matrices.append(matrix)
        if len(matrices) == 1:
            raise EigensolverError("factorization of the shifted matrix failed (singular matrix)")
        return factorize(matrix)

    monkeypatch.setattr(eigensolver, "_factorize", failing_first)
    warm = solve_smallest_positive(system, start=prolong(coarse, fine, coarse_pair.vector))
    assert len(matrices) == 2
    assert abs(matrices[1] - (system.stiffness + system.boundary_mass)).max() == 0.0
    assert abs(warm.value - cold.value) <= 1e-12 * cold.value and warm.residual <= 1e-10


def test_warm_start_at_an_unreachable_tolerance_ends_in_convergence_error(factors):
    # the warm iteration stops at its cap and ARPACK runs, whose residual
    # the error reports
    coarse, fine = split_notched_pair()
    coarse_pair = solve_smallest_positive(assemble(coarse))
    with pytest.raises(ConvergenceError, match="best residual") as info:
        solve_smallest_positive(assemble(fine), tol=1e-16, start=prolong(coarse, fine, coarse_pair.vector))
    assert info.value.best_residual > 0.0
    assert len(factors) == 3 and factors[1]["columns"] == eigensolver._WARM_SOLVES
    assert factors[2]["columns"] > 0


def test_factor_fill_stays_within_budget(factors):
    # reverse Cuthill-McKee plus minimum degree on A^T + A: 190,274 entries,
    # where COLAMD on the refiners' numbering needs 248,090
    solve_smallest_positive(assemble(quad_split_notched()))
    assert len(factors) == 1 and factors[0]["fill"] <= 200_000


def test_start_vector_of_the_wrong_length_is_refused():
    system = assemble(initial_mesh("square"))
    n = system.n_dofs
    with pytest.raises(EigensolverError, match="start vector must have shape"):
        solve_smallest_positive(system, start=np.ones(n + 1))
    nan = np.ones(n)
    nan[3] = np.nan
    for bad in (nan, np.full(n, np.inf)):
        with pytest.raises(EigensolverError, match="start vector must be finite"):
            solve_smallest_positive(system, start=bad)
    # constants are the deflated zero mode: nothing is left to iterate on
    for constant in (np.zeros(n), np.ones(n), 3 * np.ones(n), np.full(n, -1e6)):
        with pytest.raises(EigensolverError, match="start vector is zero once the constant mode is deflated"):
            solve_smallest_positive(system, start=constant)
    # a start that vanishes on gamma0 has no component along any eigenvector,
    # and ARPACK used to end on it in an unnamed "Starting vector is zero"
    interior = np.ones(n)
    interior[spectral_dofs(system)] = 0.0
    with pytest.raises(EigensolverError, match="start vector vanishes on the spectral boundary"):
        solve_smallest_positive(system, start=interior)
