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
cells, scaled by that cell's diameter.
"""

from __future__ import annotations

import numpy as np

from .eigensolver import SpectralPair
from .mesh import TAGS, BoundaryTag, PolygonalMesh
from .vem import GlobalSystem, project

__all__ = [
    "edge_residuals",
    "element_indicators",
]

_INTERIOR = TAGS.index(BoundaryTag.INTERIOR)
_GAMMA0 = TAGS.index(BoundaryTag.GAMMA0)
_GAMMA1 = TAGS.index(BoundaryTag.GAMMA1)


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
    tag = mesh.edge_tag
    pa = mesh.vertices[a]
    pb = mesh.vertices[b]
    tangent = pb - pa
    length = np.hypot(tangent[:, 0], tangent[:, 1])
    nx = tangent[:, 1] / length
    ny = -tangent[:, 0] / length

    grad_left = gradients[mesh.edge_left]
    flux_left = grad_left[:, 0] * nx + grad_left[:, 1] * ny

    value_a = np.empty(len(a))
    value_b = np.empty(len(a))

    interior = tag == _INTERIOR
    grad_right = gradients[np.where(mesh.edge_right >= 0, mesh.edge_right, 0)]
    flux_right = grad_right[:, 0] * nx + grad_right[:, 1] * ny
    half_jump = 0.5 * (flux_left - flux_right)
    value_a[interior] = half_jump[interior]
    value_b[interior] = half_jump[interior]

    spectral = tag == _GAMMA0
    value_a[spectral] = lambda_h * trace[a[spectral]] - flux_left[spectral]
    value_b[spectral] = lambda_h * trace[b[spectral]] - flux_left[spectral]

    reflecting = tag == _GAMMA1
    value_a[reflecting] = -flux_left[reflecting]
    value_b[reflecting] = -flux_left[reflecting]

    norm2 = length * (value_a * value_a + value_a * value_b + value_b * value_b) / 3.0
    return value_a, value_b, norm2


def element_indicators(system: GlobalSystem, pair: SpectralPair) -> tuple[np.ndarray, np.ndarray]:
    """Squared error indicators ``(theta2, jump2)`` of every cell for one
    normalized eigenpair: the stabilization energy of the projection
    complement and the diameter-weighted residuals of the cell's edges.
    The cell's squared indicator is ``theta2 + jump2``."""
    if not pair.normalized:
        raise ValueError("indicator evaluation expects a boundary-mass-normalized pair")
    mesh = system.mesh
    w = pair.vector

    gradients, theta2 = project(system, w)
    _, _, norm2 = edge_residuals(mesh, gradients, pair.value, w)

    edge_sums = np.zeros(mesh.n_cells)
    owner = np.repeat(np.arange(mesh.n_cells), np.diff(mesh.cell_ptr))
    np.add.at(edge_sums, owner, norm2[mesh.cell_edges])
    return theta2, system.diameters * edge_sums
