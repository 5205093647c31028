"""Lowest-order virtual element operators and global assembly.

Each polygonal cell carries one degree of freedom per vertex.  The local
energy projector maps a virtual function onto affine polynomials expressed in
the scaled monomial basis {1, (x - x_c)/h, (y - y_c)/h} centered at the cell
centroid.  The gradient equations of the projector reduce to boundary
integrals of the piecewise-linear trace (trapezoid rule, exact for affine
test polynomials); the remaining degree of freedom is fixed by matching the
vertex average.  The local bilinear form is the exact affine consistency part
plus the plain euclidean (dofi-dofi) stabilization of the projection
complement.

Local operators are computed for whole groups of equal-size cells at once;
``local_operators`` is the single-cell view of the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .mesh import MeshError, PolygonalMesh, cell_groups

__all__ = [
    "LocalElementOperators",
    "CellGroup",
    "GlobalSystem",
    "local_operators",
    "local_projector",
    "local_boundary_mass",
    "assemble",
    "project_solution",
    "projected_gradients",
    "dump_matrix",
]


@dataclass(frozen=True)
class LocalElementOperators:
    """Projector and stiffness pieces of one cell.

    ``projector`` holds the coefficients of the projected basis functions in
    the scaled monomial basis, one column per vertex dof.  ``stiffness`` is
    ``consistency + stabilization``.
    """

    projector: np.ndarray       # (3, n)
    consistency: np.ndarray     # (n, n)
    stabilization: np.ndarray   # (n, n)
    stiffness: np.ndarray       # (n, n)
    diameter: float
    centroid: np.ndarray
    area: float

    @property
    def n_vertices(self) -> int:
        return self.projector.shape[1]


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
    m, n, _ = pts.shape
    # work in cell-local coordinates: shoelace moments of tiny cells far from
    # the global origin would otherwise cancel catastrophically
    ref = pts.mean(axis=1, keepdims=True)
    local = pts - ref
    x = local[..., 0]
    y = local[..., 1]
    x_next = np.roll(x, -1, axis=1)
    y_next = np.roll(y, -1, axis=1)
    x_prev = np.roll(x, 1, axis=1)
    y_prev = np.roll(y, 1, axis=1)

    cross = x * y_next - x_next * y
    area = 0.5 * np.sum(cross, axis=1)
    if not np.all(area > 0.0):
        bad = int(ids[np.nonzero(~(area > 0.0))[0][0]])
        raise MeshError(f"cell {bad} has non-positive area (degenerate or clockwise cycle)")
    cx = np.sum((x + x_next) * cross, axis=1) / (6.0 * area)
    cy = np.sum((y + y_next) * cross, axis=1) / (6.0 * area)

    diff = pts[:, :, None, :] - pts[:, None, :, :]
    h = np.sqrt(np.max(np.sum(diff * diff, axis=3), axis=(1, 2)))

    # dof matrix: scaled monomial values at the vertices
    D = np.empty((m, n, 3))
    D[..., 0] = 1.0
    D[..., 1] = (x - cx[:, None]) / h[:, None]
    D[..., 2] = (y - cy[:, None]) / h[:, None]

    # projector equations: vertex average (row 0) and boundary-integrated
    # gradient conditions (rows 1-2, trapezoid rule over the P1 trace)
    B = np.empty((m, 3, n))
    B[:, 0, :] = 1.0 / n
    B[:, 1, :] = (y_next - y_prev) / (2.0 * h[:, None])
    B[:, 2, :] = -(x_next - x_prev) / (2.0 * h[:, None])

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

    return CellGroup(
        ids=ids,
        dofs=dofs,
        projector=projector,
        consistency=consistency,
        stabilization=stabilization,
        stiffness=consistency + stabilization,
        diameter=h,
        centroid=np.column_stack([cx, cy]) + ref[:, 0, :],
        area=area,
    )


def local_operators(points: np.ndarray) -> LocalElementOperators:
    """Build all local operators for one cell given its ccw vertex coordinates."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    group = _group_operators(pts[None, :, :], np.arange(n)[None, :], np.zeros(1, dtype=int))
    return LocalElementOperators(
        projector=group.projector[0],
        consistency=group.consistency[0],
        stabilization=group.stabilization[0],
        stiffness=group.stiffness[0],
        diameter=float(group.diameter[0]),
        centroid=group.centroid[0],
        area=float(group.area[0]),
    )


def local_projector(points: np.ndarray) -> np.ndarray:
    """Energy-projector coefficient matrix (3, n) of one cell."""
    return local_operators(points).projector


def local_boundary_mass(p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Exact mass matrix of the two linear trace functions on one edge."""
    length = float(np.hypot(*(np.asarray(p1, float) - np.asarray(p0, float))))
    return (length / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])


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
