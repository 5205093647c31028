"""Residual a posteriori error estimator for the discrete Steklov pair.

For the lowest-order method the projected solution is affine on each cell, so
the interior residual vanishes identically and the estimator reduces to the
stabilization energy ``theta2 = |C w|^2`` of the projection complement (zero
on triangles) plus weighted edge terms:

* interior edges carry half the normal-flux jump of the projected gradients,
* spectral-boundary edges carry ``lambda_h * w - grad(Pi w) . n`` (affine
  along the edge),
* reflecting-boundary edges carry the spurious normal flux ``-grad(Pi w) . n``.

Each squared edge residual is integrated exactly (the closed form of the
square of an affine function) and every edge contributes to all incident
cells, scaled by that cell's diameter.  The estimate is stated for the
eigenfunction of unit L2(Gamma0) norm, ``w^T M w = 1``, which is checked on
the vector, since every term is quadratic in it.
"""

from __future__ import annotations

import numpy as np

from .eigensolver import SpectralPair, _dot
from .mesh import TAGS, BoundaryTag, PolygonalMesh
from .vem import GlobalSystem, project

__all__ = [
    "edge_residuals",
    "element_indicators",
]

_INTERIOR = TAGS.index(BoundaryTag.INTERIOR)
_GAMMA0 = TAGS.index(BoundaryTag.GAMMA0)


def edge_residuals(
    mesh: PolygonalMesh,
    gradients: np.ndarray,
    lambda_h: float,
    trace: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-edge affine residuals of a projected eigenpair.

    ``gradients`` holds the constant projected gradient of each cell and
    ``trace`` the dof vector of the eigenfunction.  Returns ``(value_a,
    value_b, norm2)`` indexed by edge id: the residual at both endpoints and
    the exact integral of its square over the edge.  The normal is the
    outward normal of each edge's left cell, so interior jumps are
    orientation independent up to sign and their squared norms are well
    defined.
    """
    a = mesh.edge_a
    b = mesh.edge_b
    vx, vy = mesh.vertices[:, 0], mesh.vertices[:, 1]
    tx = vx[b] - vx[a]
    ty = vy[b] - vy[a]
    length = np.hypot(tx, ty)
    nx = ty / length
    ny = -tx / length

    gx, gy = gradients[:, 0], gradients[:, 1]
    left = mesh.edge_left
    flux_left = gx[left] * nx + gy[left] * ny
    # a boundary edge reads its left cell as a stand-in right one and never uses it
    right = np.where(mesh.edge_right >= 0, mesh.edge_right, left)
    half_jump = 0.5 * (flux_left - (gx[right] * nx + gy[right] * ny))

    tag = mesh.edge_tag
    interior = tag == _INTERIOR
    spectral = tag == _GAMMA0
    value_a = np.where(interior, half_jump, np.where(spectral, lambda_h * trace[a] - flux_left, -flux_left))
    value_b = np.where(interior, half_jump, np.where(spectral, lambda_h * trace[b] - flux_left, -flux_left))

    norm2 = length * (value_a * value_a + value_a * value_b + value_b * value_b) / 3.0
    return value_a, value_b, norm2


def element_indicators(system: GlobalSystem, pair: SpectralPair) -> tuple[np.ndarray, np.ndarray]:
    """Squared error indicators ``(theta2, jump2)`` of every cell for one
    eigenpair: the stabilization energy of the projection complement and the
    diameter-weighted residuals of the cell's edges.  The cell's squared
    indicator is ``theta2 + jump2``.  A ``w^T M w`` off 1 by more than 1e-10
    raises ValueError; the sign of ``w`` is free, since no term depends on it."""
    mesh = system.mesh
    w = pair.vector
    m_norm2 = _dot(w, system.boundary_mass @ w)
    if not abs(m_norm2 - 1.0) <= 1e-10:
        raise ValueError(f"indicator evaluation expects unit boundary mass, got w^T M w = {m_norm2!r}")

    gradients, theta2 = project(system, w)
    _, _, norm2 = edge_residuals(mesh, gradients, pair.value, w)

    owner = np.repeat(np.arange(mesh.n_cells), np.diff(mesh.cell_ptr))
    edge_sums = np.bincount(owner, weights=norm2[mesh.cell_edges], minlength=mesh.n_cells)
    return theta2, system.diameters * edge_sums
