"""Reference implementations of the VEM cell operators, and a one-cell view
of the package's kernels.

``batched_solve`` is the group-operator routine the package used before the
operators were written in closed form: it builds the dof matrix D of the
scaled monomials at the vertices and the projector equations B, solves
G = B D for the projector, takes the consistency part from the gradient
block of G and the stabilization from the complement I - D Pi, and
symmetrizes both.  The closed-form kernels of ``steklov.vem`` must agree with
it to round-off, which the properties in ``test_properties.py`` check on
random star-shaped polygons.

``assemble_stiffness`` is the package's former global stiffness assembly,
which took the cell geometry from an (m, n, 2) stack of vertex coordinates
shifted with ``np.roll``.  The assembly of ``steklov.vem``, which works on
coordinate columns, must reproduce it bit for bit on triangle meshes.

``local_operators`` runs the package's own kernels on a single vertex cycle,
for tests that look at one cell at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from steklov import vem
from steklov.mesh import MeshError, PolygonalMesh, cell_groups, polygon_geometry


@dataclass(frozen=True)
class OracleOperators:
    """Dense local operators of a stack of m same-size cells."""

    projector: np.ndarray      # (m, 3, n) scaled-monomial coefficients
    complement: np.ndarray     # (m, n, n) I - D Pi
    consistency: np.ndarray    # (m, n, n)
    stabilization: np.ndarray  # (m, n, n)
    stiffness: np.ndarray      # (m, n, n)
    diameter: np.ndarray       # (m,)
    centroid: np.ndarray       # (m, 2)
    area: np.ndarray           # (m,)


def batched_solve(pts: np.ndarray) -> OracleOperators:
    """Local operators of a stack of same-size cells, pts of shape (m, n, 2)."""
    m, n, _ = pts.shape
    shape = polygon_geometry(pts[..., 0], pts[..., 1])
    origin = np.column_stack([shape.origin_x, shape.origin_y])
    area, centroid, h = shape.area, np.column_stack(shape.centroid), shape.diameter
    if not np.all(area > 0.0):
        raise MeshError("non-positive area (degenerate or clockwise cycle)")
    x = shape.x
    y = shape.y

    # dof matrix: scaled monomial values at the vertices
    D = np.empty((m, n, 3))
    D[..., 0] = 1.0
    D[..., 1] = (x - centroid[:, :1]) / h[:, None]
    D[..., 2] = (y - centroid[:, 1:]) / h[:, None]

    # projector equations: vertex average (row 0) and boundary-integrated
    # gradient conditions (rows 1-2, trapezoid rule over the P1 trace)
    B = np.empty((m, 3, n))
    B[:, 0, :] = 1.0 / n
    B[:, 1, :] = (np.roll(y, -1, axis=1) - np.roll(y, 1, axis=1)) / (2.0 * h[:, None])
    B[:, 2, :] = -(np.roll(x, -1, axis=1) - np.roll(x, 1, axis=1)) / (2.0 * h[:, None])

    G = B @ D
    try:
        projector = np.linalg.solve(G, B)
    except np.linalg.LinAlgError:
        raise MeshError("projector system is singular (degenerate cell geometry)") from None

    # consistency uses only the gradient block of G; zero the affine-offset
    # row and column so the constant mode carries no energy
    G_grad = G.copy()
    G_grad[:, 0, :] = 0.0
    G_grad[:, :, 0] = 0.0
    pi_t = projector.transpose(0, 2, 1)
    consistency = pi_t @ G_grad @ projector
    consistency = 0.5 * (consistency + consistency.transpose(0, 2, 1))

    complement = np.eye(n)[None, :, :] - D @ projector
    stabilization = complement.transpose(0, 2, 1) @ complement
    stabilization = 0.5 * (stabilization + stabilization.transpose(0, 2, 1))

    return OracleOperators(
        projector=projector,
        complement=complement,
        consistency=consistency,
        stabilization=stabilization,
        stiffness=consistency + stabilization,
        diameter=h,
        centroid=centroid + origin,
        area=area,
    )


def assemble_stiffness(mesh: PolygonalMesh) -> sp.csr_matrix:
    """The global stiffness matrix as the package assembled it before its
    geometry moved onto coordinate columns."""
    n = mesh.n_vertices
    rows, cols, data = [], [], []
    for _, index in cell_groups(mesh.cell_ptr):
        size = index.shape[1]
        dofs = mesh.cell_vertices[index]
        pts = mesh.vertices[dofs]
        origin = pts.mean(axis=1)
        local = pts - origin[:, None, :]
        x, y = local[..., 0], local[..., 1]
        area = 0.5 * np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)
        two_area = 2.0 * area[:, None]
        gx = (np.roll(y, -1, axis=1) - np.roll(y, 1, axis=1)) / two_area
        gy = (np.roll(x, 1, axis=1) - np.roll(x, -1, axis=1)) / two_area
        stiffness = area[:, None, None] * (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :])
        if size > 3:
            complement = np.eye(size) - (1.0 / size + x[:, :, None] * gx[:, None, :] + y[:, :, None] * gy[:, None, :])
            stiffness = stiffness + complement.transpose(0, 2, 1) @ complement
        rows.append(np.repeat(dofs, size, axis=1).ravel())
        cols.append(np.tile(dofs, (1, size)).ravel())
        data.append(stiffness.ravel())
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()


@dataclass(frozen=True)
class LocalOperators:
    """The package's kernels on one ccw vertex cycle (n, 2)."""

    group: vem.CellGroup   # the one-cell group, dofs 0..n-1
    stiffness: np.ndarray  # (n, n)

    def project(self, w: np.ndarray) -> tuple[np.ndarray, float]:
        """Projected gradient (2,) and ``theta2 = |C w|^2`` of vertex values w."""
        gradient, theta2 = vem._project_group(self.group, np.asarray(w, dtype=float)[None])
        return gradient[0], float(theta2[0])


def local_operators(points: np.ndarray) -> LocalOperators:
    pts = np.asarray(points, dtype=float)
    group = vem._cell_group(pts[None, :, 0], pts[None, :, 1], np.arange(len(pts))[None], np.zeros(1, dtype=int))
    return LocalOperators(group=group, stiffness=vem._stiffness(group)[0])
