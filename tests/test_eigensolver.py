"""Eigensolver: agreement with dense references, invariants, failure modes."""

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
from steklov.experiments import initial_mesh
from steklov.mesh import TAGS, BoundaryTag, PolygonalMesh, _edge_table, build_topology
from steklov.vem import assemble

from fem_oracle import boundary_mass as oracle_boundary_mass
from fem_oracle import dense_reference_solve, dense_steklov_solve
from fem_oracle import p1_stiffness as oracle_stiffness


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
        count = min(3, len(system.gamma0_dofs) - 1)
        pairs = solve_smallest_positive(system, count=count)
        # dense spectrum starts with the zero mode of the constant vector
        assert abs(dense[0]) < 1e-8
        for j, pair in enumerate(pairs):
            assert abs(pair.value - dense[1 + j]) < 1e-8 * max(1.0, dense[1 + j])


def test_matches_fem_oracle_eigensolve():
    mesh = initial_mesh("square")
    system = assemble(mesh)
    triangles = mesh.cell_vertices.reshape(-1, 3)
    K = oracle_stiffness(mesh.vertices, triangles)
    g = mesh.gamma0_edge_ids()
    gamma0 = list(zip(mesh.edge_a[g].tolist(), mesh.edge_b[g].tolist()))
    M = oracle_boundary_mass(mesh.vertices, gamma0)
    values, vectors = dense_steklov_solve(K, M, count=2)
    pairs = solve_smallest_positive(system, count=2)
    for pair, ref in zip(pairs, values):
        assert abs(pair.value - ref) < 1e-9 * ref
    # eigenvectors agree up to sign in the M norm
    w = pairs[0].vector
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
        assert n_positive == len(system.gamma0_dofs) - 1


def test_count_exceeding_spectrum_raises():
    system = assemble(initial_mesh("square"))
    n_pos = len(system.gamma0_dofs) - 1
    with pytest.raises(EigensolverError, match="finite positive"):
        solve_smallest_positive(system, count=n_pos + 1)
    with pytest.raises(EigensolverError, match="at least 1"):
        solve_smallest_positive(system, count=0)
    for tol in (0.0, -1.0):
        with pytest.raises(EigensolverError, match="tol must be positive"):
            solve_smallest_positive(system, tol=tol)
    with pytest.raises(EigensolverError, match="seed must be non-negative, got -1"):
        solve_smallest_positive(system, seed=-1)
    for seed in (1.5, True, np.float64(2.0)):
        with pytest.raises(EigensolverError, match="seed must be an integer"):
            solve_smallest_positive(system, seed=seed)
    # a bool or a non-integral count, and a bool or non-number tol, are
    # refused by name rather than by numpy, ARPACK or a loose residual test
    for count in (True, 1.5, np.float64(1.0)):
        with pytest.raises(EigensolverError, match="count must be an integer"):
            solve_smallest_positive(system, count=count)
    for tol in (True, "1e-10", None):
        with pytest.raises(EigensolverError, match="tol must be a number"):
            solve_smallest_positive(system, tol=tol)


def test_solution_invariants():
    system = assemble(initial_mesh("square"))
    (pair,) = solve_smallest_positive(system, count=1)
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
    gamma0 = system.gamma0_dofs
    lead = next(d for d in gamma0 if abs(w[d]) > 1e-8)
    assert w[lead] > 0.0


def test_normalize_refuses_zero_boundary_mass():
    system = assemble(initial_mesh("square"))
    interior = np.zeros(system.n_dofs)
    # a vector supported away from the spectral boundary has no mass norm
    interior_dof = next(
        d for d in range(system.n_dofs) if d not in set(system.gamma0_dofs)
    )
    interior[interior_dof] = 1.0
    with pytest.raises(EigensolverError, match="zero boundary mass"):
        eigensolver._normalize(system, interior)


def test_multiple_eigenvalues_ascending_and_accurate():
    system = assemble(refine_uniform(initial_mesh("square")))
    dense = dense_reference_solve(system)
    pairs = solve_smallest_positive(system, count=4)
    values = [p.value for p in pairs]
    assert values == sorted(values)
    assert np.allclose(values, dense[1:5], rtol=1e-8)


def test_seeded_runs_are_bitwise_reproducible():
    system = assemble(initial_mesh("square"))
    a = solve_smallest_positive(system, count=2, seed=7)
    b = solve_smallest_positive(system, count=2, seed=7)
    for pa, pb in zip(a, b):
        assert pa.value == pb.value
        assert np.array_equal(pa.vector, pb.vector)


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
        solve_smallest_positive(system, count=1, tol=1e-16)
    assert info.value.best_residual > 0.0
    assert "best residual" in str(info.value)


def test_residual_norm_zero_vector_is_infinite():
    system = assemble(initial_mesh("square"))
    assert residual_norm(system, 1.0, np.zeros(system.n_dofs)) == np.inf


def test_exactness_on_two_dof_boundary():
    # one square cell, spectral boundary on top: the pencil has exactly one
    # positive eigenvalue, so the block spans everything and converges fast
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]

    def tags(pa, pb):
        if abs(pa[1] - 1.0) < 1e-12 and abs(pb[1] - 1.0) < 1e-12:
            return BoundaryTag.GAMMA0
        return BoundaryTag.GAMMA1

    mesh = build_topology(verts, [[0, 1, 2, 3]], tags)
    system = assemble(mesh)
    dense = dense_reference_solve(system)
    (pair,) = solve_smallest_positive(system)
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
        tags = np.where(top, TAGS.index(BoundaryTag.GAMMA0), TAGS.index(BoundaryTag.GAMMA1)).astype(np.int8)
        system = assemble(PolygonalMesh(verts, cell_ptr, tails, *edges, tags))
        with pytest.raises(EigensolverError, match=message):
            solve_smallest_positive(system)


def quad_split_notched():
    """The notched mesh with every cell quad-split four times: 3,753 dofs."""
    mesh = initial_mesh("notched")
    for _ in range(4):
        mesh = refine_vem(mesh, range(mesh.n_cells))
    return mesh


def test_arpack_stall_is_a_convergence_error(one_restart):
    # one restart is too few for six pairs: ARPACK gives up with a partial
    # set, whose residuals the error reports
    system = assemble(quad_split_notched())
    with pytest.raises(ConvergenceError, match="of 6 positive pairs found") as info:
        solve_smallest_positive(system, count=6)
    assert info.value.best_residual > 0.0


@pytest.fixture
def factors(monkeypatch):
    """Per ``splu`` call of the solver: ``{"columns": ..., "fill": ...}``,
    the number of column solves and ``L.nnz + U.nnz`` of the factor."""
    calls = []
    splu = spla.splu

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            calls[-1]["columns"] += 1 if rhs.ndim == 1 else rhs.shape[1]
            return self.lu.solve(rhs)

    def counting_splu(matrix, *args, **kwargs):
        lu = splu(matrix, *args, **kwargs)
        calls.append({"columns": 0, "fill": lu.L.nnz + lu.U.nnz})
        return CountingLU(lu)

    monkeypatch.setattr(spla, "splu", counting_splu)
    return calls


def test_column_solves_per_call_stay_within_budget(factors):
    system = assemble(quad_split_notched())
    (pair,) = solve_smallest_positive(system)
    assert system.n_dofs == 3753 and pair.residual <= 1e-10
    assert len(factors) == 1 and 0 < factors[0]["columns"] <= 30


def test_warm_start_from_the_prolonged_coarse_solution(factors):
    coarse = initial_mesh("notched")
    for _ in range(3):
        coarse = refine_vem(coarse, range(coarse.n_cells))
    (coarse_pair,) = solve_smallest_positive(assemble(coarse))
    fine = refine_vem(coarse, range(coarse.n_cells))
    system = assemble(fine)
    (cold,) = solve_smallest_positive(system)
    (warm,) = solve_smallest_positive(system, start=prolong(coarse, fine, coarse_pair.vector))
    assert system.n_dofs == 3753 and warm.residual <= 1e-10
    assert abs(warm.value - cold.value) <= 1e-12 * cold.value
    # the prolonged vector is 2e-3 off the fine eigenvector, so the ten-vector
    # Lanczos basis restarts once; only a start within round-off of the
    # eigenvector converges in its first pass (11 solves)
    assert len(factors) == 3 and 0 < factors[2]["columns"] <= 16 < factors[1]["columns"]


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
