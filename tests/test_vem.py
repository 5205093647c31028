"""Virtual element operators: gradients, complement, stiffness, assembly."""

import numpy as np
import pytest

from steklov.experiments import initial_mesh
from steklov.vem import _stiffness, assemble, project

from fem_oracle import boundary_mass as oracle_boundary_mass
from fem_oracle import p1_stiffness as oracle_stiffness
from refine_oracle import cycles
from vem_oracle import local_operators

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
REFERENCE_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def random_star_polygon(rng, n):
    # one vertex per angular sector keeps the origin inside and the cycle ccw
    angles = 2.0 * np.pi * (np.arange(n) + rng.uniform(0.0, 0.8, n)) / n
    radii = rng.uniform(0.5, 1.5, n)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def test_reference_triangle_matches_p1_stiffness():
    ops = local_operators(REFERENCE_TRIANGLE)
    assert ops.group.ids.tolist() == [0] and ops.group.dofs.tolist() == [[0, 1, 2]]
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    # on triangles the virtual space is plain P1: the stiffness is the FEM
    # matrix and the projection complement is zero
    assert np.allclose(ops.stiffness, expected, atol=1e-14)
    gradient, theta2 = ops.project([0.3, -1.0, 2.0])
    assert np.allclose(gradient, [-1.3, 1.7], atol=1e-14)
    assert theta2 == 0.0
    assert abs(ops.group.area[0] - 0.5) < 1e-15
    assert abs(ops.group.diameter[0] - np.sqrt(2.0)) < 1e-15


def test_triangle_stiffness_equals_fem_for_random_triangles():
    rng = np.random.default_rng(3)
    for _ in range(50):
        tri = rng.uniform(-1.0, 1.0, size=(3, 2))
        v01, v02 = tri[1] - tri[0], tri[2] - tri[0]
        if v01[0] * v02[1] - v01[1] * v02[0] < 1e-2:
            continue
        ops = local_operators(tri)
        fem = oracle_stiffness(tri, np.array([[0, 1, 2]]))
        assert np.allclose(ops.stiffness, fem, atol=1e-12)
        assert ops.project(rng.standard_normal(3))[1] == 0.0


def test_unit_square_operators_match_hand_construction():
    # independent scalar construction of D, B, the projector and stiffness,
    # written out with plain loops
    pts = UNIT_SQUARE
    n = 4
    h = np.sqrt(2.0)
    c = np.array([0.5, 0.5])
    D = np.ones((n, 3))
    for i in range(n):
        D[i, 1] = (pts[i, 0] - c[0]) / h
        D[i, 2] = (pts[i, 1] - c[1]) / h
    B = np.zeros((3, n))
    for i in range(n):
        nxt, prv = pts[(i + 1) % n], pts[(i - 1) % n]
        B[0, i] = 1.0 / n
        B[1, i] = (nxt[1] - prv[1]) / (2.0 * h)
        B[2, i] = -(nxt[0] - prv[0]) / (2.0 * h)
    G = B @ D
    P = np.linalg.solve(G, B)
    G_grad = G.copy()
    G_grad[0, :] = 0.0
    G_grad[:, 0] = 0.0
    Kc = P.T @ G_grad @ P
    S = (np.eye(n) - D @ P).T @ (np.eye(n) - D @ P)

    ops = local_operators(pts)
    assert np.allclose(ops.stiffness, 0.5 * (Kc + Kc.T) + 0.5 * (S + S.T), atol=1e-14)
    # the gradient is the scaled projector's monomial part, theta2 the
    # stabilization energy
    for w in np.random.default_rng(1).standard_normal((5, n)):
        gradient, theta2 = ops.project(w)
        assert np.allclose(gradient, P[1:] @ w / h, atol=1e-14)
        assert abs(theta2 - w @ S @ w) <= 1e-14 * (w @ w)
    assert abs(ops.group.area[0] - 1.0) < 1e-15


def test_projector_reproduces_affine_functions():
    rng = np.random.default_rng(11)
    for n in (3, 4, 5, 6, 8):
        pts = random_star_polygon(rng, n)
        ops = local_operators(pts)
        for _ in range(5):
            a, b, c = rng.uniform(-2.0, 2.0, 3)
            w = a + b * pts[:, 0] + c * pts[:, 1]
            gradient, theta2 = ops.project(w)
            assert np.allclose(gradient, [b, c], atol=1e-13)
            # the projection complement vanishes on affine data, so the
            # stabilization adds nothing there
            assert np.sqrt(theta2) <= 1e-13


def test_constants_in_stiffness_kernel():
    rng = np.random.default_rng(5)
    for n in (3, 4, 7):
        pts = random_star_polygon(rng, n)
        ops = local_operators(pts)
        assert np.allclose(ops.stiffness @ np.ones(n), 0.0, atol=1e-13)
        # symmetry and positive semidefiniteness
        assert np.allclose(ops.stiffness, ops.stiffness.T, atol=1e-14)
        assert np.linalg.eigvalsh(ops.stiffness).min() > -1e-12


def test_assembly_matches_fem_oracle_on_triangle_mesh():
    mesh = initial_mesh("square")
    system = assemble(mesh)
    triangles = mesh.cell_vertices.reshape(-1, 3)
    K_oracle = oracle_stiffness(mesh.vertices, triangles)
    assert np.allclose(system.stiffness.toarray(), K_oracle, atol=1e-12)

    g = mesh.gamma0_edge_ids()
    gamma0 = list(zip(mesh.edge_a[g].tolist(), mesh.edge_b[g].tolist()))
    # sanity: the spectral boundary of this mesh is the top side
    for a, b in gamma0:
        assert abs(mesh.vertices[a, 1] - 1.0) < 1e-12
        assert abs(mesh.vertices[b, 1] - 1.0) < 1e-12
    M_oracle = oracle_boundary_mass(mesh.vertices, gamma0)
    assert np.allclose(system.boundary_mass.toarray(), M_oracle, atol=1e-13)

    # row sums of the boundary mass give the first-order moments of the trace
    row_sums = np.asarray(system.boundary_mass.sum(axis=1)).ravel()
    total = sum(np.hypot(*(mesh.vertices[b] - mesh.vertices[a])) for a, b in gamma0)
    assert abs(row_sums.sum() - total) < 1e-13


def test_global_stiffness_invariants():
    mesh = initial_mesh("square")
    system = assemble(mesh)
    K = system.stiffness
    assert abs(K - K.T).max() < 1e-14
    ones = np.ones(system.n_dofs)
    assert np.max(np.abs(K @ ones)) < 1e-13
    assert system.n_dofs == mesh.n_vertices
    # the spectral dofs, the rows of M, are the endpoints of the Gamma0 edges
    g = mesh.gamma0_edge_ids()
    ends = np.unique(np.r_[mesh.edge_a[g], mesh.edge_b[g]])
    assert list(np.flatnonzero(system.boundary_mass.getnnz(axis=1))) == list(ends)


def test_batched_groups_match_single_cell_path_bitwise():
    from steklov.adaptivity import refine_vem

    # refine a few cells so the mesh mixes triangles, quads and pentagons
    mesh = refine_vem(initial_mesh("square"), [0, 3, 7])
    system = assemble(mesh)
    assert len(system.groups) > 1
    seen = []
    cells = cycles(mesh)
    for group in system.groups:
        stiffness = _stiffness(group)
        for k, cid in enumerate(group.ids):
            seen.append(cid)
            single = local_operators(mesh.vertices[cells[cid]])
            assert np.array_equal(group.dofs[k], cells[cid])
            for field in ("x", "y", "gx", "gy"):
                assert np.array_equal(getattr(single.group, field)[0], getattr(group, field)[k]), field
            assert np.array_equal(single.stiffness, stiffness[k])
            assert single.group.diameter[0] == group.diameter[k] == system.diameters[cid]
            assert single.group.area[0] == group.area[k]
    assert sorted(seen) == list(range(mesh.n_cells))


def test_projection_pipeline_exact_for_affine_fields():
    from steklov.adaptivity import refine_vem

    mesh = refine_vem(initial_mesh("square"), [1, 5, 9])
    system = assemble(mesh)
    a, b, c = 0.7, -1.3, 2.1
    w = a + b * mesh.vertices[:, 0] + c * mesh.vertices[:, 1]
    grads, theta2 = project(system, w)
    assert np.allclose(grads, [[b, c]] * mesh.n_cells, atol=1e-12)
    assert np.all(np.sqrt(theta2) <= 1e-12)
    # on triangles theta2 is not small but exactly zero, for any dof vector
    _, theta2 = project(system, np.random.default_rng(2).standard_normal(system.n_dofs))
    sizes = np.diff(mesh.cell_ptr)
    assert np.all(theta2[sizes == 3] == 0.0) and np.all(theta2[sizes > 3] > 0.0)


def test_project_validates_length():
    system = assemble(initial_mesh("square"))
    with pytest.raises(ValueError, match="dof vector"):
        project(system, np.zeros(3))
