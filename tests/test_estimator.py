"""Error estimator: frozen edge-residual values, oracle agreement, decay."""

from dataclasses import replace

import numpy as np
import pytest

from steklov.eigensolver import solve_smallest_positive
from steklov.estimator import edge_residuals, element_indicators
from steklov.experiments import initial_mesh
from steklov.mesh import build_topology
from steklov.vem import assemble

from fem_oracle import classical_indicators


def stacked_squares():
    """Two unit squares sharing the horizontal edge between vertices 2 and 3."""
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 2.0], [0.0, 2.0]]
    return build_topology(verts, [[0, 1, 2, 3], [3, 2, 4, 5]], [(0, 1), (1, 2), (2, 4), (4, 5), (5, 3), (3, 0)])


def edge_between(mesh, i, j):
    (eid,) = np.flatnonzero(
        ((mesh.edge_a == i) & (mesh.edge_b == j)) | ((mesh.edge_a == j) & (mesh.edge_b == i))
    )
    return eid


def interior_residual(mesh, residuals):
    """(value_a, value_b, norm2) of the single interior edge."""
    (eid,) = np.flatnonzero(mesh.edge_right >= 0)
    return tuple(values[eid] for values in residuals)


def test_interior_jump_frozen_value():
    # the bottom cell sees gradient (0, 2), the top cell (0, 0); the shared
    # edge has the bottom cell on its left with outward normal (0, 1), so the
    # half jump is 0.5 * (2 - 0) = 1 and its squared integral over the unit
    # length edge is exactly 1
    mesh = stacked_squares()
    gradients = np.array([[0.0, 2.0], [0.0, 0.0]])
    res = edge_residuals(mesh, gradients, 0.0, np.zeros(6))
    value_a, value_b, norm2 = interior_residual(mesh, res)
    assert value_a == 1.0
    assert value_b == 1.0
    assert abs(norm2 - 1.0) < 1e-15


def test_equal_gradients_give_zero_interior_jump():
    mesh = stacked_squares()
    gradients = np.array([[0.7, -1.2], [0.7, -1.2]])
    res = edge_residuals(mesh, gradients, 0.0, np.zeros(6))
    value_a, _, norm2 = interior_residual(mesh, res)
    assert abs(value_a) < 1e-15
    assert abs(norm2) < 1e-30


def test_spectral_edge_closed_form():
    # single square, spectral boundary everywhere, affine residual along the
    # top edge: lambda * w - flux with endpoint values j2, j3; exact integral
    # of its square is (j2^2 + j2*j3 + j3^2) / 3 on a unit edge
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    mesh = build_topology(verts, [[0, 1, 2, 3]], [(0, 1), (1, 2), (2, 3), (3, 0)])
    lam = 2.0
    w = np.array([0.3, -0.8, 0.5, 1.1])
    g = np.array([[3.0, -1.0]])
    value_a, value_b, norm2 = edge_residuals(mesh, g, lam, w)
    eid = edge_between(mesh, 2, 3)
    # outward normal of the top edge is (0, 1), flux is -1
    j_a = lam * w[mesh.edge_a[eid]] - (-1.0)
    j_b = lam * w[mesh.edge_b[eid]] - (-1.0)
    assert abs(value_a[eid] - j_a) < 1e-15
    assert abs(value_b[eid] - j_b) < 1e-15
    exact = (j_a**2 + j_a * j_b + j_b**2) / 3.0
    assert abs(norm2[eid] - exact) < 1e-14


def test_edge_norm_matches_gauss_legendre_integral():
    # norm2 is the closed form of the integral of an affine residual's
    # square; compare it with a 5-point Gauss-Legendre rule (exact up to
    # degree 9) on the edges of a refined mesh with random gradients
    from steklov.adaptivity import refine_vem

    mesh = refine_vem(initial_mesh("notched"), [0, 4, 9])
    rng = np.random.default_rng(17)
    gradients = rng.standard_normal((mesh.n_cells, 2))
    value_a, value_b, norm2 = edge_residuals(mesh, gradients, 1.7, rng.standard_normal(mesh.n_vertices))
    x, w = np.polynomial.legendre.leggauss(5)
    s = 0.5 * (x + 1.0)
    along = value_a[:, None] * (1.0 - s) + value_b[:, None] * s
    d = mesh.vertices[mesh.edge_b] - mesh.vertices[mesh.edge_a]
    expected = np.hypot(d[:, 0], d[:, 1]) * ((along * along) @ (0.5 * w))
    assert np.all(norm2 >= 0.0)
    assert np.allclose(norm2, expected, rtol=1e-13, atol=0.0)


def test_reflecting_edge_carries_spurious_flux():
    verts = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]
    mesh = build_topology(verts, [[0, 1, 2, 3]], [(2, 3)])  # spectral boundary on top
    g = np.array([[0.5, 1.5]])
    value_a, _, norm2 = edge_residuals(mesh, g, 1.0, np.zeros(4))
    bottom = edge_between(mesh, 0, 1)
    assert mesh.edge_right[bottom] < 0 and not mesh.edge_gamma0[bottom]
    # bottom edge outward normal is (0, -1): residual is -flux = 1.5
    assert abs(value_a[bottom] - 1.5) < 1e-15
    assert abs(norm2[bottom] - 2.0 * 1.5**2) < 1e-14


def test_uniform_gradient_field_has_no_interior_jumps():
    from steklov.adaptivity import refine_vem

    mesh = refine_vem(initial_mesh("square"), [2, 6])
    gradients = np.tile([1.3, -0.4], (mesh.n_cells, 1))
    value_a, value_b, _ = edge_residuals(mesh, gradients, 0.0, np.zeros(mesh.n_vertices))
    interior = mesh.edge_right >= 0
    assert np.any(interior)
    assert np.max(np.abs(value_a[interior])) < 1e-14
    assert np.max(np.abs(value_b[interior])) < 1e-14


def test_indicators_match_classical_fem_oracle():
    mesh = initial_mesh("square")
    system = assemble(mesh)
    pair = solve_smallest_positive(system)
    theta2, jump2 = element_indicators(system, pair)

    triangles = mesh.cell_vertices.reshape(-1, 3)
    g = mesh.gamma0_edge_ids()
    gamma0 = {(min(a, b), max(a, b)) for a, b in zip(mesh.edge_a[g].tolist(), mesh.edge_b[g].tolist())}
    oracle = classical_indicators(
        mesh.vertices, triangles, gamma0, pair.value, pair.vector
    )
    # on triangles the stabilization term is zero and the projected gradient
    # is the P1 gradient, so the classical estimator must match exactly
    assert np.all(theta2 == 0.0)
    assert np.allclose(theta2 + jump2, oracle, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("test", ["square", "notched"])
def test_element_indicators_refuse_a_vector_off_unit_boundary_mass(test):
    # doubling the vector would quadruple every indicator
    system = assemble(initial_mesh(test))
    pair = solve_smallest_positive(system)
    element_indicators(system, pair)
    doubled = replace(pair, vector=2.0 * pair.vector)
    with pytest.raises(ValueError, match="unit boundary mass, got w\\^T M w = ") as info:
        element_indicators(system, doubled)
    assert abs(float(str(info.value).rsplit(" ", 1)[1]) - 4.0) < 1e-12


def test_polygonal_mesh_has_positive_stabilization_term():
    from steklov.adaptivity import refine_vem

    mesh = refine_vem(initial_mesh("square"), range(32))
    system = assemble(mesh)
    pair = solve_smallest_positive(system)
    theta2, jump2 = element_indicators(system, pair)
    assert np.sum(theta2) > 0.0
    assert np.sum(jump2) > 0.0


def test_estimate_decreases_under_refinement():
    from steklov.adaptivity import refine_uniform

    mesh = initial_mesh("square")
    values = []
    for _ in range(3):
        system = assemble(mesh)
        pair = solve_smallest_positive(system)
        theta2, jump2 = element_indicators(system, pair)
        values.append(float(np.sum(theta2)) + float(np.sum(jump2)))
        mesh = refine_uniform(mesh)
    assert values[0] > values[1] > values[2]
    # first-order method: eta^2 should drop by roughly 4x per uniform step
    assert values[0] / values[1] > 2.5
