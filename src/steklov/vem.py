"""Lowest-order virtual element operators and global assembly.

Each polygonal cell carries one degree of freedom per vertex.  The local
energy projector maps a virtual function onto affine polynomials.  Every
operator has a closed form in the coordinates (x, y) of the vertices
relative to their mean.  The projected gradient of vertex basis function i is
the boundary integral of its piecewise-linear trace (trapezoid rule, exact
for affine test polynomials) over the area |E|,

    gx_i = (y_{i+1} - y_{i-1}) / (2 |E|),    gy_i = (x_{i-1} - x_{i+1}) / (2 |E|),

and the constant is fixed by matching the vertex average, so the projection
of a dof vector w, evaluated at the vertices, is mean(w) + x (gx.w) + y (gy.w)
and its complement is

    C w = w - mean(w) - x (gx.w) - y (gy.w).

The local bilinear form is the exact affine consistency part
|E| (gx gx^T + gy gy^T) plus the plain euclidean (dofi-dofi) stabilization
C^T C.  On a triangle every vertex function is affine, so C is zero in exact
arithmetic and neither the stiffness nor the indicator gets a stabilization
term there.

Cells are handled in groups of equal vertex count; a group keeps only its
geometry and gradients, and the stiffness is built from them during assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import PolygonalMesh, cell_groups, polygon_geometry

__all__ = [
    "CellGroup",
    "GlobalSystem",
    "assemble",
    "project",
]


@dataclass(frozen=True)
class CellGroup:
    """Per-cell arrays of all cells sharing one vertex count n."""

    ids: np.ndarray       # (m,) cell indices
    dofs: np.ndarray      # (m, n) vertex/dof indices
    x: np.ndarray         # (m, n) vertex coordinates relative to their mean
    y: np.ndarray         # (m, n)
    gx: np.ndarray        # (m, n) projected gradient of each basis function
    gy: np.ndarray        # (m, n)
    area: np.ndarray      # (m,)
    diameter: np.ndarray  # (m,)


def _cell_group(x: np.ndarray, y: np.ndarray, dofs: np.ndarray, ids: np.ndarray) -> CellGroup:
    """Geometry and projected gradients of a stack of same-size ccw cells of
    positive area, as build_topology and the refiners keep them, from the
    (m, n) coordinate columns of their vertices."""
    shape = polygon_geometry(x, y)
    two_area = 2.0 * shape.area[:, None]
    gx = (shape.next_y - np.roll(shape.y, 1, axis=1)) / two_area
    gy = (np.roll(shape.x, 1, axis=1) - shape.next_x) / two_area
    return CellGroup(
        ids=ids, dofs=dofs, x=shape.x, y=shape.y, gx=gx, gy=gy, area=shape.area, diameter=shape.diameter
    )


def _stiffness(group: CellGroup) -> np.ndarray:
    """Local stiffness matrices (m, n, n) of a group: the consistency part,
    plus the stabilization C^T C on cells with more than three vertices."""
    gx, gy = group.gx, group.gy
    consistency = group.area[:, None, None] * (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :])
    n = gx.shape[1]
    if n == 3:
        return consistency
    complement = np.eye(n) - (1.0 / n + group.x[:, :, None] * gx[:, None, :] + group.y[:, :, None] * gy[:, None, :])
    return consistency + complement.transpose(0, 2, 1) @ complement


def _project_group(group: CellGroup, local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradients (m, 2) and ``|C w|^2`` (m,) of the vertex values
    ``local`` (m, n) of a group's cells; ``|C w|^2`` is 0 on triangles."""
    gxw = np.einsum("mi,mi->m", group.gx, local)
    gyw = np.einsum("mi,mi->m", group.gy, local)
    theta2 = np.zeros(len(local))
    if local.shape[1] > 3:
        # subtracting the mean last also removes the offset that the rounded
        # vertex mean leaves in x and y
        rest = local - group.x * gxw[:, None] - group.y * gyw[:, None]
        complement = rest - rest.mean(axis=1, keepdims=True)
        theta2 = np.einsum("mi,mi->m", complement, complement)
    return np.column_stack([gxw, gyw]), theta2


@dataclass(frozen=True)
class GlobalSystem:
    """Assembled stiffness/boundary-mass pair plus the grouped cell data.

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
    vx, vy = (np.ascontiguousarray(column) for column in mesh.vertices.T)
    for ids, index in cell_groups(mesh.cell_ptr):
        size = index.shape[1]
        dofs = mesh.cell_vertices[index]
        group = _cell_group(vx[dofs], vy[dofs], dofs, ids)
        groups.append(group)
        diameters[ids] = group.diameter
        rows.append(np.repeat(dofs, size, axis=1).ravel())
        cols.append(np.tile(dofs, (1, size)).ravel())
        data.append(_stiffness(group).ravel())
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


def project(system: GlobalSystem, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient ``(gx.w, gy.w)`` of a dof vector on every cell
    (n_cells, 2) and the squared norm ``theta2 = |C w|^2`` (n_cells,) of its
    projection complement at the cell's vertices, exactly 0 on triangles."""
    w = np.asarray(w, dtype=float)
    if w.shape != (system.n_dofs,):
        raise ValueError(f"dof vector must have length {system.n_dofs}")
    gradients = np.empty((system.mesh.n_cells, 2))
    theta2 = np.empty(system.mesh.n_cells)
    for group in system.groups:
        gradients[group.ids], theta2[group.ids] = _project_group(group, w[group.dofs])
    return gradients, theta2

