"""Lowest-order virtual element operators and global assembly.

Each polygonal cell carries one degree of freedom per vertex.  The local
energy projector maps a virtual function onto affine polynomials expressed in
the scaled monomial basis {1, (x - x_c)/h, (y - y_c)/h} centered at the cell
centroid.  Every operator has a closed form in the coordinates (x, y) of the
vertices relative to their mean.  The projected gradient of vertex basis
function i is the boundary integral of its piecewise-linear trace (trapezoid
rule, exact for affine test polynomials) over the area |E|,

    gx_i = (y_{i+1} - y_{i-1}) / (2 |E|),    gy_i = (x_{i-1} - x_{i+1}) / (2 |E|),

and the constant is fixed by matching the vertex average, so the projection
of the basis functions, evaluated at the vertices, is 1/n + x gx^T + y gy^T.
The local bilinear form is the exact affine consistency part
|E| (gx gx^T + gy gy^T) plus the plain euclidean (dofi-dofi) stabilization
C^T C of the projection complement C = I - (1/n + x gx^T + y gy^T).

Local operators are computed for whole groups of equal-size cells at once;
``local_operators`` is the one-cell group of the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .mesh import MeshError, PolygonalMesh, cell_groups, polygon_geometry

__all__ = [
    "CellGroup",
    "GlobalSystem",
    "local_operators",
    "assemble",
    "project_solution",
    "projected_gradients",
    "dump_matrix",
]


@dataclass(frozen=True)
class CellGroup:
    """Stacked local data of all cells sharing one vertex count."""

    ids: np.ndarray            # (m,) cell indices
    dofs: np.ndarray           # (m, n) vertex/dof indices
    projector: np.ndarray      # (m, 3, n)
    consistency: np.ndarray    # (m, n, n)
    stabilization: np.ndarray  # (m, n, n)
    stiffness: np.ndarray      # (m, n, n)
    diameter: np.ndarray       # (m,)
    centroid: np.ndarray       # (m, 2)
    area: np.ndarray           # (m,)


def _group_operators(pts: np.ndarray, dofs: np.ndarray, ids: np.ndarray) -> CellGroup:
    """Local operators of a stack of same-size cells, pts of shape (m, n, 2)."""
    n = pts.shape[1]
    origin, local, area, centroid, h, _ = polygon_geometry(pts)
    if not np.all(area > 0.0):
        bad = int(ids[np.nonzero(~(area > 0.0))[0][0]])
        raise MeshError(f"cell {bad} has non-positive area (degenerate or clockwise cycle)")
    x = local[..., 0]
    y = local[..., 1]

    # gradient of the projection of each basis function (trapezoid rule over
    # the P1 trace, exact for affine test functions)
    two_area = 2.0 * area[:, None]
    gx = (np.roll(y, -1, axis=1) - np.roll(y, 1, axis=1)) / two_area
    gy = (np.roll(x, 1, axis=1) - np.roll(x, -1, axis=1)) / two_area

    projector = np.empty((len(pts), 3, n))
    projector[:, 0] = 1.0 / n + gx * centroid[:, :1] + gy * centroid[:, 1:]
    projector[:, 1] = h[:, None] * gx
    projector[:, 2] = h[:, None] * gy

    consistency = area[:, None, None] * (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :])

    # I - (projection evaluated at the vertices), whose Gram matrix is the
    # dofi-dofi stabilization
    complement = np.eye(n) - (1.0 / n + x[:, :, None] * gx[:, None, :] + y[:, :, None] * gy[:, None, :])
    stabilization = complement.transpose(0, 2, 1) @ complement

    return CellGroup(
        ids=ids,
        dofs=dofs,
        projector=projector,
        consistency=consistency,
        stabilization=stabilization,
        stiffness=consistency + stabilization,
        diameter=h,
        centroid=centroid + origin,
        area=area,
    )


def local_operators(points: np.ndarray) -> CellGroup:
    """The one-cell :class:`CellGroup` of a ccw vertex cycle (n, 2)."""
    pts = np.asarray(points, dtype=float)
    return _group_operators(pts[None], np.arange(len(pts))[None], np.zeros(1, dtype=int))


@dataclass(frozen=True)
class GlobalSystem:
    """Assembled stiffness/boundary-mass pair plus the grouped cell operators.

    Dofs are the mesh vertices; ``gamma0_dofs`` lists those on the spectral
    boundary.
    """

    stiffness: sp.csr_matrix
    boundary_mass: sp.csr_matrix
    gamma0_dofs: np.ndarray
    groups: tuple[CellGroup, ...]
    diameters: np.ndarray  # per-cell diameter, indexed by cell id
    mesh: PolygonalMesh

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_vertices


def assemble(mesh: PolygonalMesh) -> GlobalSystem:
    """Assemble the global stiffness matrix and the spectral-boundary mass matrix.

    Cells are grouped by vertex count and processed in ascending cell order
    within each group; scattering order is fixed, so repeated assembly of the
    same mesh is bitwise reproducible.
    """
    n = mesh.n_vertices

    groups = []
    rows, cols, data = [], [], []
    diameters = np.empty(mesh.n_cells)
    for ids, index in cell_groups(mesh.cell_ptr):
        size = index.shape[1]
        dofs = mesh.cell_vertices[index]
        group = _group_operators(mesh.vertices[dofs], dofs, ids)
        groups.append(group)
        diameters[ids] = group.diameter
        rows.append(np.repeat(dofs, size, axis=1).ravel())
        cols.append(np.tile(dofs, (1, size)).ravel())
        data.append(group.stiffness.ravel())
    stiffness = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()

    # exact P1 trace mass of every spectral edge, entries in (edge, i, j) order
    gamma0 = mesh.gamma0_edge_ids()
    a = mesh.edge_a[gamma0]
    b = mesh.edge_b[gamma0]
    d = mesh.vertices[b] - mesh.vertices[a]
    length = np.hypot(d[:, 0], d[:, 1])
    mrows = np.column_stack([a, a, b, b]).ravel()
    mcols = np.column_stack([a, b, a, b]).ravel()
    mdata = ((length / 6.0)[:, None] * np.array([2.0, 1.0, 1.0, 2.0])).ravel()
    boundary_mass = sp.coo_matrix((mdata, (mrows, mcols)), shape=(n, n)).tocsr()

    return GlobalSystem(
        stiffness=stiffness,
        boundary_mass=boundary_mass,
        gamma0_dofs=mesh.gamma0_vertices(),
        groups=tuple(groups),
        diameters=diameters,
        mesh=mesh,
    )


def project_solution(system: GlobalSystem, w: np.ndarray) -> np.ndarray:
    """Per-cell affine coefficients (n_cells, 3) of the projected dof vector."""
    w = np.asarray(w, dtype=float)
    if w.shape != (system.n_dofs,):
        raise ValueError(f"dof vector must have length {system.n_dofs}")
    coeffs = np.empty((system.mesh.n_cells, 3))
    for group in system.groups:
        coeffs[group.ids] = np.einsum("mij,mj->mi", group.projector, w[group.dofs])
    return coeffs


def projected_gradients(system: GlobalSystem, coeffs: np.ndarray) -> np.ndarray:
    """Constant gradient (n_cells, 2) of each cell's projected affine function."""
    return coeffs[:, 1:] / system.diameters[:, None]


def dump_matrix(matrix: sp.spmatrix, path: str | Path) -> None:
    """Write a sparse matrix as 'row col value' text lines (sorted by position)."""
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for k in order:
            fh.write(f"{coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}\n")
