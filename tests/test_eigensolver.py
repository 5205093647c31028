"""Eigensolver: agreement with dense references, invariants, failure modes."""

import numpy as np
import pytest

from steklov.adaptivity import refine_uniform, refine_vem
from steklov.eigensolver import (
    ConvergenceError,
    EigensolverError,
    SolverOptions,
    SpectralPair,
    dense_reference_solve,
    normalize_pair,
    residual_norm,
    solve_smallest_positive,
)
from steklov.experiments import initial_mesh
from steklov.mesh import BoundaryTag, build_topology
from steklov.vem import assemble

from fem_oracle import boundary_mass as oracle_boundary_mass
from fem_oracle import dense_steklov_solve
from fem_oracle import p1_stiffness as oracle_stiffness


def small_meshes():
    """A handful of meshes under 200 dofs mixing triangles and polygons."""
    square = initial_mesh("square")
    notched = initial_mesh("notched")
    vem_once, _ = refine_vem(square, range(8))
    yield square
    yield notched
    yield vem_once
    yield refine_uniform(square)


def test_sparse_matches_dense_reference():
    for mesh in small_meshes():
        system = assemble(mesh)
        dense = dense_reference_solve(system)
        count = min(3, len(system.gamma0_dofs) - 1)
        pairs = solve_smallest_positive(system, SolverOptions(count=count))
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
    pairs = solve_smallest_positive(system, SolverOptions(count=2))
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
        solve_smallest_positive(system, SolverOptions(count=n_pos + 1))
    with pytest.raises(EigensolverError, match="at least 1"):
        solve_smallest_positive(system, SolverOptions(count=0))


def test_solution_invariants():
    system = assemble(initial_mesh("square"))
    (pair,) = solve_smallest_positive(system, SolverOptions(count=1))
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
    assert pair.normalized


def test_normalize_pair_idempotent_and_guards():
    system = assemble(initial_mesh("square"))
    (pair,) = solve_smallest_positive(system, SolverOptions(count=1))
    again = normalize_pair(system, pair)
    assert np.array_equal(again.vector, pair.vector)

    interior = np.zeros(system.n_dofs)
    # a vector supported away from the spectral boundary has no mass norm
    interior_dof = next(
        d for d in range(system.n_dofs) if d not in set(system.gamma0_dofs)
    )
    interior[interior_dof] = 1.0
    broken = SpectralPair(value=1.0, vector=interior, residual=0.0, normalized=False)
    with pytest.raises(EigensolverError, match="zero boundary mass"):
        normalize_pair(system, broken)


def test_multiple_eigenvalues_ascending_and_accurate():
    system = assemble(refine_uniform(initial_mesh("square")))
    dense = dense_reference_solve(system)
    pairs = solve_smallest_positive(system, SolverOptions(count=4))
    values = [p.value for p in pairs]
    assert values == sorted(values)
    assert np.allclose(values, dense[1:5], rtol=1e-8)


def test_seeded_runs_are_bitwise_reproducible():
    system = assemble(initial_mesh("square"))
    a = solve_smallest_positive(system, SolverOptions(count=2, seed=7))
    b = solve_smallest_positive(system, SolverOptions(count=2, seed=7))
    for pa, pb in zip(a, b):
        assert pa.value == pb.value
        assert np.array_equal(pa.vector, pb.vector)


def test_convergence_error_reports_best_residual():
    # a single sweep at an unreachable tolerance must fail honestly
    mesh = initial_mesh("square")
    system = assemble(mesh)
    with pytest.raises(ConvergenceError) as info:
        solve_smallest_positive(
            system, SolverOptions(count=1, tol=1e-16, max_iterations=1)
        )
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
