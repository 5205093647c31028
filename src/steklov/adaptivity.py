"""Marking and mesh refinement strategies.

Polygonal refinement splits every marked n-gon into n quadrilaterals fanning
out from its centroid through the edge midpoints; unmarked neighbours absorb
the new midpoints as ordinary (hanging) polygon vertices, so the mesh stays
edge-conforming by construction.  Triangular meshes are refined either
uniformly (four similar children) or adaptively by newest-vertex bisection
with conforming closure; the bisection edge of every stored triangle is the
edge between its first two cycle entries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .mesh import TAGS, BoundaryTag, MeshError, PolygonalMesh, build_topology, polygon_centroid

__all__ = [
    "MarkSet",
    "RefinementRecord",
    "mark",
    "refine_vem",
    "refine_fem",
    "refine_uniform",
    "normalize_refinement_edges",
]


@dataclass(frozen=True)
class MarkSet:
    """Cells selected for refinement plus the threshold that selected them."""

    cells: tuple[int, ...]
    threshold: float


def mark(eta2: Sequence[float] | np.ndarray, fraction: float = 0.5) -> MarkSet:
    """Maximum-strategy marking: select cells with eta >= fraction * max(eta).

    ``eta2`` holds the squared indicator of every cell, ``eta = sqrt(eta2)``.
    The comparison is inclusive, so the peak cell is always marked.  When all
    indicators vanish an empty set is returned with a warning (the run is
    either converged or degenerate).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("marking fraction must lie in (0, 1]")
    etas = np.sqrt(np.asarray(eta2, dtype=float))
    peak = float(etas.max()) if len(etas) else 0.0
    if peak == 0.0:
        warnings.warn("all error indicators are zero; nothing to mark", stacklevel=2)
        return MarkSet(cells=(), threshold=0.0)
    threshold = fraction * peak
    return MarkSet(cells=tuple(np.flatnonzero(etas >= threshold).tolist()), threshold=threshold)


@dataclass(frozen=True)
class RefinementRecord:
    """Parent-to-children map and bookkeeping of one refinement pass."""

    children: dict[int, tuple[int, ...]]
    new_vertex_ids: tuple[int, ...]
    hanging_cells: tuple[int, ...]  # unmarked cells that absorbed midpoints


def _marked_cell_set(marks: "MarkSet | Iterable[int]", n_cells: int) -> list[int]:
    cells = marks.cells if isinstance(marks, MarkSet) else tuple(marks)
    out = sorted(set(int(c) for c in cells))
    if out and (out[0] < 0 or out[-1] >= n_cells):
        raise MeshError("marked cell index out of range")
    return out


class _MidpointFactory:
    """Creates edge midpoints on demand, one vertex per undirected edge."""

    def __init__(self, vertices: np.ndarray):
        self.points = [p for p in vertices]
        self.cache: dict[tuple[int, int], int] = {}

    def midpoint(self, i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        if key not in self.cache:
            self.cache[key] = len(self.points)
            self.points.append(0.5 * (self.points[i] + self.points[j]))
        return self.cache[key]

    def append(self, point: np.ndarray) -> int:
        self.points.append(np.asarray(point, dtype=float))
        return len(self.points) - 1

    def has_midpoint(self, i: int, j: int) -> bool:
        key = (i, j) if i < j else (j, i)
        return key in self.cache


def _inherit_boundary_tags(
    mesh: PolygonalMesh, factory: _MidpointFactory | None = None
) -> dict[tuple[int, int], BoundaryTag]:
    """Boundary tag map for the refined mesh: split edges pass tags to both halves.

    Keys are sorted vertex pairs; without a factory this is the tag map of
    ``mesh`` itself.
    """
    boundary = np.flatnonzero(mesh.edge_right < 0)
    tags: dict[tuple[int, int], BoundaryTag] = {}
    for a, b, code in zip(
        mesh.edge_a[boundary].tolist(),
        mesh.edge_b[boundary].tolist(),
        mesh.edge_tag[boundary].tolist(),
    ):
        a, b = (a, b) if a < b else (b, a)
        tag = TAGS[code]
        if factory is not None and factory.has_midpoint(a, b):
            m = factory.midpoint(a, b)
            tags[tuple(sorted((a, m)))] = tag
            tags[tuple(sorted((m, b)))] = tag
        else:
            tags[(a, b)] = tag
    return tags


def refine_vem(
    mesh: PolygonalMesh, marks: "MarkSet | Iterable[int]"
) -> tuple[PolygonalMesh, RefinementRecord]:
    """Split each marked polygon into one quadrilateral per vertex.

    Every child is (centroid, edge midpoint, vertex, next edge midpoint);
    midpoints are shared between neighbouring cells, and unmarked neighbours
    keep their polygon with the midpoints inserted as additional vertices.
    Raises :class:`MeshError` when a marked cell is not star-shaped with
    respect to its centroid, which would create inverted children.
    """
    marked = _marked_cell_set(marks, mesh.n_cells)
    if not marked:
        return mesh, RefinementRecord(children={}, new_vertex_ids=(), hanging_cells=())

    cycles = mesh.cycles()
    factory = _MidpointFactory(mesh.vertices)
    centroid_id: dict[int, int] = {}
    for cid in marked:
        cyc = cycles[cid]
        pts = mesh.vertices[cyc]
        c = polygon_centroid(pts)
        n = len(cyc)
        diam2 = float(np.max(np.sum((pts - c) ** 2, axis=1)))
        for k in range(n):
            p, q = pts[k], pts[(k + 1) % n]
            cross = (p[0] - c[0]) * (q[1] - c[1]) - (p[1] - c[1]) * (q[0] - c[0])
            if cross <= 1e-12 * diam2:
                raise MeshError(
                    f"cell {cid} is not star-shaped with respect to its centroid; "
                    "quad refinement would invert a child"
                )
        for k in range(n):
            factory.midpoint(cyc[k], cyc[(k + 1) % n])
        centroid_id[cid] = factory.append(c)

    new_cells: list[list[int]] = []
    children: dict[int, tuple[int, ...]] = {}
    hanging: list[int] = []
    marked_set = set(marked)
    for cid, cyc in enumerate(cycles):
        n = len(cyc)
        if cid in marked_set:
            ids = []
            for k in range(n):
                m_prev = factory.midpoint(cyc[k - 1], cyc[k])
                m_next = factory.midpoint(cyc[k], cyc[(k + 1) % n])
                ids.append(len(new_cells))
                new_cells.append([centroid_id[cid], m_prev, cyc[k], m_next])
            children[cid] = tuple(ids)
        else:
            cycle: list[int] = []
            gained = False
            for k in range(n):
                a, b = cyc[k], cyc[(k + 1) % n]
                cycle.append(a)
                if factory.has_midpoint(a, b):
                    cycle.append(factory.midpoint(a, b))
                    gained = True
            children[cid] = (len(new_cells),)
            if gained:
                hanging.append(cid)
            new_cells.append(cycle)

    tags = _inherit_boundary_tags(mesh, factory)
    refined = build_topology(np.array(factory.points), new_cells, tags)
    record = RefinementRecord(
        children=children,
        new_vertex_ids=tuple(range(mesh.n_vertices, refined.n_vertices)),
        hanging_cells=tuple(hanging),
    )
    return refined, record


def _require_triangles(mesh: PolygonalMesh, operation: str) -> np.ndarray:
    """The (n_cells, 3) triangle array of a triangular mesh."""
    sizes = np.diff(mesh.cell_ptr)
    if np.any(sizes != 3):
        cid = int(np.flatnonzero(sizes != 3)[0])
        raise MeshError(f"{operation} requires a triangular mesh; cell {cid} has {sizes[cid]} vertices")
    return mesh.cell_vertices.reshape(-1, 3)


def normalize_refinement_edges(mesh: PolygonalMesh) -> PolygonalMesh:
    """Rotate every triangle cycle so its longest edge comes first.

    Establishes the newest-vertex bisection convention on a fresh
    triangulation: the bisection edge of a stored triangle is the edge between
    its first two vertices.  Meshes produced by :func:`refine_fem` already
    satisfy the convention and must not be re-normalized.
    """
    tris = _require_triangles(mesh, "refinement-edge normalization")
    pts = mesh.vertices[tris]
    edge = np.roll(pts, -1, axis=1) - pts  # edge k runs from vertex k to k + 1
    start = np.argmax(np.hypot(edge[..., 0], edge[..., 1]), axis=1)
    cells = np.take_along_axis(tris, (start[:, None] + np.arange(3)) % 3, axis=1)
    return build_topology(mesh.vertices.copy(), cells, _inherit_boundary_tags(mesh))


def refine_fem(mesh: PolygonalMesh, marks: "MarkSet | Iterable[int]") -> PolygonalMesh:
    """Newest-vertex bisection of the marked triangles with conforming closure.

    The bisection edge of each triangle is the edge between its first two
    cycle entries; children are emitted with their own bisection edges first,
    so repeated calls implement the usual newest-vertex hierarchy.  Closure
    iteratively marks the bisection edge of any triangle touching a marked
    edge, which terminates because marks only grow.
    """
    tris = _require_triangles(mesh, "newest-vertex bisection")
    marked = _marked_cell_set(marks, mesh.n_cells)
    if not marked:
        return mesh

    def edge_key(i: int, j: int) -> tuple[int, int]:
        return (i, j) if i < j else (j, i)

    cycles = tris.tolist()
    marked_edges = {edge_key(t[0], t[1]) for t in (cycles[c] for c in marked)}

    changed = True
    while changed:
        changed = False
        for tri in cycles:
            keys = [edge_key(tri[0], tri[1]), edge_key(tri[1], tri[2]), edge_key(tri[2], tri[0])]
            if any(k in marked_edges for k in keys) and keys[0] not in marked_edges:
                marked_edges.add(keys[0])
                changed = True

    factory = _MidpointFactory(mesh.vertices)

    def emit(tri: Sequence[int], out: list[list[int]]) -> None:
        t0, t1, t2 = tri
        if edge_key(t0, t1) not in marked_edges:
            out.append([t0, t1, t2])
            return
        m = factory.midpoint(t0, t1)
        # children are listed bisection-edge-first: (t2,t0) and (t1,t2)
        emit((t2, t0, m), out)
        emit((t1, t2, m), out)

    new_cells: list[list[int]] = []
    for tri in cycles:
        emit(tri, new_cells)

    tags = _inherit_boundary_tags(mesh, factory)
    return build_topology(np.array(factory.points), new_cells, tags)


def refine_uniform(mesh: PolygonalMesh) -> PolygonalMesh:
    """Red refinement: every triangle is split into four similar children."""
    tris = _require_triangles(mesh, "uniform refinement")
    factory = _MidpointFactory(mesh.vertices)
    new_cells: list[list[int]] = []
    for a, b, c in tris.tolist():
        mab = factory.midpoint(a, b)
        mbc = factory.midpoint(b, c)
        mca = factory.midpoint(c, a)
        new_cells.extend(
            [[a, mab, mca], [mab, b, mbc], [mca, mbc, c], [mab, mbc, mca]]
        )
    tags = _inherit_boundary_tags(mesh, factory)
    return build_topology(np.array(factory.points), new_cells, tags)
