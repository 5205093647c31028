"""Marking and mesh refinement strategies.

Polygonal refinement splits every marked n-gon into n quadrilaterals fanning
out from its centroid through the edge midpoints; unmarked neighbours absorb
the new midpoints as ordinary (hanging) polygon vertices, so the mesh stays
edge-conforming by construction.  Triangular meshes are refined either
uniformly (four similar children) or adaptively by newest-vertex bisection
with conforming closure; the bisection edge of every stored triangle is the
edge between its first two cycle entries.  The initial meshes are stored that
way (each triangle's longest edge first) and every child lists its own
bisection edge first, so no pass over a mesh sets the convention up.

All three refiners work on edge ids (after Funken, Praetorius & Wissgott,
"Efficient implementation of adaptive P1-FEM in Matlab", CMAM 2011): the
split edges form a boolean array, the midpoint of split edge e gets a new
vertex id from the rank of e in the order the cells first reach it (the rule
that numbers the edges, ``mesh._first_appearance``), and the children are
written straight into compressed-row arrays from which the edge table of the
refined mesh is built.  A refiner cannot turn a valid mesh into an invalid
one, so its output skips the checks of ``build_topology``.
"""

from __future__ import annotations

import numbers
import warnings
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .mesh import (
    MeshError, PolygonalMesh, _edge_table, _first_appearance, _first_true, _marked_cells, cell_groups,
    polygon_geometry,
)

__all__ = [
    "mark",
    "refine_vem",
    "refine_fem",
    "refine_uniform",
    "prolong",
]


def mark(eta2: Sequence[float] | np.ndarray, fraction: float = 0.5) -> np.ndarray:
    """Maximum-strategy marking: the ascending int64 ids of the cells with
    eta >= fraction * max(eta).

    ``eta2`` holds the squared indicator of every cell, ``eta = sqrt(eta2)``.
    The comparison is inclusive, so the peak cell is always marked.  When all
    indicators vanish no cell is marked and a warning is issued (the run is
    either converged or degenerate).  Raises ``ValueError`` naming the lowest
    cell whose indicator is NaN, infinite or negative, and one naming a
    ``fraction`` that is a bool, not a number or outside (0, 1].
    """
    if isinstance(fraction, bool) or not isinstance(fraction, numbers.Real):
        raise ValueError(f"marking fraction must be a number, not {fraction!r}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"marking fraction must lie in (0, 1], got {fraction!r}")
    eta2 = np.asarray(eta2, dtype=float)
    bad = ~(np.isfinite(eta2) & (eta2 >= 0.0))
    if bad.any():
        cell = int(np.argmax(bad))
        raise ValueError(f"cell {cell} has an invalid indicator eta2 = {eta2[cell]!r}")
    etas = np.sqrt(eta2)
    peak = etas.max() if len(etas) else 0.0
    if peak == 0.0:
        warnings.warn("all error indicators are zero; nothing to mark", stacklevel=2)
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(etas >= fraction * peak)


def _refined_vertices(mesh: PolygonalMesh, midpoint: np.ndarray, n_extra: int = 0) -> np.ndarray:
    """The vertex array grown by the midpoints of the split edges (vertex
    ``midpoint[e]`` for edge e; -1 where e is not split), with ``n_extra``
    further rows left for the caller to fill."""
    split = np.flatnonzero(midpoint >= 0)
    points = np.empty((mesh.n_vertices + len(split) + n_extra, 2))
    points[: mesh.n_vertices] = mesh.vertices
    points[midpoint[split]] = 0.5 * (mesh.vertices[mesh.edge_a[split]] + mesh.vertices[mesh.edge_b[split]])
    return points


def _refined_mesh(
    mesh: PolygonalMesh, points: np.ndarray, cell_ptr: np.ndarray, cells: np.ndarray, midpoint: np.ndarray
) -> PolygonalMesh:
    """The mesh of compressed-row ccw ``cells`` on ``points``, refined from
    ``mesh`` with ``midpoint`` as in :func:`_refined_vertices`.

    The spectral boundary is the coarse Gamma0 pairs with each split pair
    (a, b) replaced by its halves (a, m) and (m, b), m its midpoint; the fine
    boundary edges are flagged by the key test of ``build_topology``.
    """
    n = len(points)
    cell_edges, edge_a, edge_b, edge_left, edge_right = _edge_table(points, cell_ptr, cells)
    gamma0 = mesh.gamma0_edge_ids()
    a, b, m = mesh.edge_a[gamma0], mesh.edge_b[gamma0], midpoint[gamma0]
    split = m >= 0
    lo, hi = np.sort([np.r_[a[~split], a[split], m[split]], np.r_[b[~split], m[split], b[split]]], axis=0)
    fine = np.flatnonzero(edge_right < 0)
    ends = np.sort([edge_a[fine], edge_b[fine]], axis=0)
    edge_gamma0 = np.zeros(len(edge_a), dtype=bool)
    edge_gamma0[fine] = np.isin(ends[0] * n + ends[1], lo * n + hi)
    return PolygonalMesh(points, cell_ptr, cells, cell_edges, edge_a, edge_b, edge_left, edge_right, edge_gamma0)


def refine_vem(mesh: PolygonalMesh, marks: Iterable[int]) -> PolygonalMesh:
    """Split each marked polygon into one quadrilateral per vertex.

    Every child is (centroid, edge midpoint, vertex, next edge midpoint);
    midpoints are shared between neighbouring cells, and unmarked neighbours
    keep their polygon with the midpoints inserted as additional vertices.
    New vertices are numbered marked cell by marked cell: its edge midpoints
    not yet numbered, in cycle order, then its centroid.  Raises
    :class:`MeshError` when a marked cell is not star-shaped with respect to
    its centroid, which would create inverted children.
    """
    marked = _marked_cells(marks, mesh.n_cells)
    if not len(marked):
        return mesh

    ptr, tails, edges = mesh.cell_ptr, mesh.cell_vertices, mesh.cell_edges
    sizes = np.diff(ptr)
    is_marked = np.zeros(mesh.n_cells, dtype=bool)
    is_marked[marked] = True
    in_marked = np.repeat(is_marked, sizes)
    halves = np.flatnonzero(in_marked)  # half-edges of the marked cells, in cell order

    # centroids by vertex count; a group's ids index `marked`
    marked_ptr = np.zeros(len(marked) + 1, dtype=np.int64)
    np.cumsum(sizes[marked], out=marked_ptr[1:])
    centroid = np.empty((len(marked), 2))
    star = np.empty(len(marked), dtype=bool)
    vx, vy = mesh.vertices.T
    for ids, index in cell_groups(marked_ptr):
        cycles = tails[halves[index]]
        shape = polygon_geometry(vx[cycles], vy[cycles])
        cx, cy = shape.centroid
        centroid[ids, 0], centroid[ids, 1] = shape.origin_x + cx, shape.origin_y + cy
        star[ids] = shape.kernel_radius(cx, cy) > 1e-12 * shape.diameter
    if not np.all(star):
        raise MeshError(
            f"cell {int(marked[_first_true(~star)])} is not star-shaped with respect to its centroid; "
            "quad refinement would invert a child"
        )

    # number the new vertices in the order the marked cells reach them: each
    # cell's edges (key: edge id), then its centroid (key: n_edges + its
    # position in `marked`)
    keys = np.insert(edges[halves], marked_ptr[1:], mesh.n_edges + np.arange(len(marked)))
    ids = np.full(mesh.n_edges + len(marked), -1, dtype=np.int64)
    ids[keys] = mesh.n_vertices + _first_appearance(keys)[0]
    midpoint, centroid_id = ids[: mesh.n_edges], ids[mesh.n_edges:]
    points = _refined_vertices(mesh, midpoint, n_extra=len(marked))
    points[centroid_id] = centroid

    # each half-edge writes its stretch of the new cell array: a marked
    # cell's k-th child (centroid, midpoint k - 1, vertex k, midpoint k), an
    # unmarked cell's vertex followed by the midpoint of a split edge
    hanging = ~in_marked & (midpoint[edges] >= 0)
    width = np.where(in_marked, 4, 1 + hanging)
    offset = np.zeros(len(tails) + 1, dtype=np.int64)
    np.cumsum(width, out=offset[1:])
    start = offset[:-1]
    cell_vertices = np.empty(offset[-1], dtype=np.int64)
    plain = ~in_marked
    cell_vertices[start[plain]] = tails[plain]
    cell_vertices[start[hanging] + 1] = midpoint[edges[hanging]]
    prev = np.arange(-1, len(tails) - 1)
    prev[ptr[:-1]] = ptr[1:] - 1
    s = start[halves]
    cell_vertices[s] = np.repeat(centroid_id, sizes[marked])
    cell_vertices[s + 1] = midpoint[edges[prev[halves]]]
    cell_vertices[s + 2] = tails[halves]
    cell_vertices[s + 3] = midpoint[edges[halves]]

    opens = in_marked.copy()  # half-edges that begin a new cell
    opens[ptr[:-1]] = True
    return _refined_mesh(mesh, points, np.append(start[opens], offset[-1]), cell_vertices, midpoint)


def _require_triangles(mesh: PolygonalMesh, operation: str) -> np.ndarray:
    """The (n_cells, 3) triangle array of a triangular mesh."""
    sizes = np.diff(mesh.cell_ptr)
    if np.any(sizes != 3):
        cid = int(np.flatnonzero(sizes != 3)[0])
        raise MeshError(f"{operation} requires a triangular mesh; cell {cid} has {sizes[cid]} vertices")
    return mesh.cell_vertices.reshape(-1, 3)


# Newest-vertex bisection children of a triangle (t0, t1, t2) whose edges
# (t0, t1), (t1, t2), (t2, t0) have midpoints m0, m1, m2, keyed by which
# edges are split (bit k for edge k).  Entries index (t0, t1, t2, m0, m1, m2);
# each child lists its own bisection edge first.  Closure makes every split
# triangle split its bisection edge, so these five patterns are all there is.
_BISECTION_CHILDREN = {
    0b000: [[0, 1, 2]],
    0b001: [[2, 0, 3], [1, 2, 3]],
    0b101: [[3, 2, 5], [0, 3, 5], [1, 2, 3]],
    0b011: [[2, 0, 3], [3, 1, 4], [2, 3, 4]],
    0b111: [[3, 2, 5], [0, 3, 5], [3, 1, 4], [2, 3, 4]],
}


def refine_fem(mesh: PolygonalMesh, marks: Iterable[int]) -> PolygonalMesh:
    """Newest-vertex bisection of the marked triangles with conforming closure.

    The bisection edge of each triangle is the edge between its first two
    cycle entries, as the initial meshes of :mod:`steklov.experiments` store
    them (longest edge first); children are emitted with their own bisection
    edges first, so repeated calls implement the usual newest-vertex
    hierarchy.  Closure marks the bisection edge of any triangle touching a
    marked edge until no mark is added, which terminates because marks only
    grow.  Midpoints are numbered triangle by triangle in the order (t0, t1),
    (t2, t0), (t1, t2), the order in which bisection reaches them.
    """
    tris = _require_triangles(mesh, "newest-vertex bisection")
    marked = _marked_cells(marks, mesh.n_cells)
    if not len(marked):
        return mesh

    edges = mesh.cell_edges.reshape(-1, 3)
    split = np.zeros(mesh.n_edges, dtype=bool)
    split[edges[marked, 0]] = True
    while True:
        grow = split[edges].any(axis=1) & ~split[edges[:, 0]]
        if not np.any(grow):
            break
        split[edges[grow, 0]] = True

    reached = edges[:, [0, 2, 1]].ravel()
    reached = reached[split[reached]]
    midpoint = np.full(mesh.n_edges, -1, dtype=np.int64)
    midpoint[reached] = mesh.n_vertices + _first_appearance(reached)[0]
    corners = np.concatenate([tris, midpoint[edges]], axis=1)
    pattern = split[edges] @ np.array([1, 2, 4])
    n_children = np.zeros(8, dtype=np.int64)
    n_children[list(_BISECTION_CHILDREN)] = [len(c) for c in _BISECTION_CHILDREN.values()]
    count = n_children[pattern]
    first = np.cumsum(count) - count
    cells = np.empty((count.sum(), 3), dtype=np.int64)
    for code, children in _BISECTION_CHILDREN.items():
        ids = np.flatnonzero(pattern == code)
        rows = first[ids][:, None] + np.arange(len(children))
        cells[rows] = corners[ids][:, children]

    points = _refined_vertices(mesh, midpoint)
    return _refined_mesh(mesh, points, np.arange(0, cells.size + 1, 3), cells.ravel(), midpoint)


def refine_uniform(mesh: PolygonalMesh) -> PolygonalMesh:
    """Red refinement: every triangle is split into four similar children.

    Edge ids are first-encounter ordered, so the midpoint of edge e is
    vertex ``n_vertices + e``.
    """
    tris = _require_triangles(mesh, "uniform refinement")
    midpoint = mesh.n_vertices + np.arange(mesh.n_edges)
    a, b, c = tris.T
    mab, mbc, mca = midpoint[mesh.cell_edges.reshape(-1, 3)].T
    cells = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca], axis=1)
    points = _refined_vertices(mesh, midpoint)
    return _refined_mesh(mesh, points, np.arange(0, cells.size + 1, 3), cells.ravel(), midpoint)


def prolong(coarse: PolygonalMesh, fine: PolygonalMesh, w: np.ndarray) -> np.ndarray:
    """Carry a vertex vector of ``coarse`` over to its refinement ``fine``.

    All three refiners keep the coarse vertices, with their ids, ahead of
    the new ones.  Coarse vertices keep their values; each new vertex takes
    the mean over its fine-mesh neighbours that already have one, in passes
    until every vertex has a value (an edge midpoint is reached in the first
    pass, a ``refine_vem`` centroid, whose neighbours are all midpoints, in
    the second).  Raises ``ValueError`` when ``fine`` does not start with
    the vertices of ``coarse`` or has a vertex no pass reaches.
    """
    n = coarse.n_vertices
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"coarse vector must have shape ({n},), got {w.shape}")
    if fine.n_vertices < n or not np.array_equal(fine.vertices[:n], coarse.vertices):
        raise ValueError("the fine mesh does not keep the coarse vertices first")
    values = np.zeros(fine.n_vertices)
    values[:n] = w
    known = np.zeros(fine.n_vertices, dtype=bool)
    known[:n] = True
    ends = np.concatenate([fine.edge_a, fine.edge_b])
    adjacency = sp.csr_matrix(
        (np.ones(len(ends)), (ends, np.roll(ends, fine.n_edges))), shape=(fine.n_vertices,) * 2
    )
    while not np.all(known):
        count = adjacency @ known
        fill = ~known & (count > 0)
        if not np.any(fill):
            raise ValueError(f"fine vertex {_first_true(~known)} is not connected to the coarse vertices")
        values[fill] = (adjacency @ values)[fill] / count[fill]
        known |= fill
    return values
