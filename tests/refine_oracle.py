"""Loop-based reference implementation of the three refiners.

These are the per-cell Python refiners the package used before refinement
was vectorized on edge ids: midpoints come from a dict keyed by the sorted
vertex pair, created in the order the loops first ask for them, and the
newest-vertex bisection emits children by recursion.  The array refiners in
``steklov.adaptivity`` must reproduce their meshes exactly (vertices,
numbering, cycles and spectral boundary), which the properties in ``test_properties.py``
check over random mark sequences.  The oracle keeps its own per-cell
``polygon_centroid`` (the package's former helper), so the centroids it
checks against do not come from the vectorized geometry kernel.
``structurally_equal`` is the mesh comparison the tests share, and
``cycles`` and ``gamma0_pairs`` the list views of a mesh's cells and
spectral boundary they share.

``edge_numbering`` defines the edge arrays of any mesh from its cycles
alone: it walks the cells' cycles in order and numbers each vertex pair when
it first appears.  The oracle refiners build their meshes through
``build_topology``, whose edge arrays come from the package's edge table, so
the tests check the numbering against ``edge_numbering`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from steklov.mesh import MeshError, PolygonalMesh, build_topology


def cycles(mesh: PolygonalMesh) -> list[list[int]]:
    """All vertex cycles of ``mesh`` as lists of Python ints."""
    flat = mesh.cell_vertices.tolist()
    ptr = mesh.cell_ptr.tolist()
    return [flat[i:j] for i, j in zip(ptr[:-1], ptr[1:])]


def gamma0_pairs(mesh: PolygonalMesh) -> list[tuple[int, int]]:
    """The spectral-boundary edges of ``mesh`` as (edge_a, edge_b) pairs of
    Python ints, in edge order: the ``gamma0`` argument that rebuilds it."""
    g = mesh.gamma0_edge_ids()
    return list(zip(mesh.edge_a[g].tolist(), mesh.edge_b[g].tolist()))


def structurally_equal(mesh: PolygonalMesh, other: PolygonalMesh) -> bool:
    """Same vertices, cycles, edge endpoints and spectral boundary."""
    return all(
        np.array_equal(getattr(mesh, name), getattr(other, name))
        for name in ("vertices", "cell_ptr", "cell_vertices", "edge_a", "edge_b", "edge_gamma0")
    )


def edge_numbering(mesh: PolygonalMesh) -> dict[str, np.ndarray]:
    """The edge arrays of ``mesh`` from its cycles alone, cell by cell in
    cycle order: each sorted vertex pair gets the next edge id when it first
    appears, that first traversal gives ``edge_a``/``edge_b`` and the left
    cell, and a second traversal gives the right cell (-1 if there is none)."""
    number: dict[tuple[int, int], int] = {}
    edge_a: list[int] = []
    edge_b: list[int] = []
    edge_left: list[int] = []
    edge_right: list[int] = []
    cell_edges: list[int] = []
    for cid, cyc in enumerate(cycles(mesh)):
        for tail, head in zip(cyc, cyc[1:] + cyc[:1]):
            key = (tail, head) if tail < head else (head, tail)
            if key in number:
                edge_right[number[key]] = cid
            else:
                number[key] = len(edge_a)
                edge_a.append(tail)
                edge_b.append(head)
                edge_left.append(cid)
                edge_right.append(-1)
            cell_edges.append(number[key])
    arrays = {"edge_a": edge_a, "edge_b": edge_b, "edge_left": edge_left, "edge_right": edge_right,
              "cell_edges": cell_edges}
    return {name: np.array(values, dtype=np.int64) for name, values in arrays.items()}


def numbered_by_first_appearance(mesh: PolygonalMesh) -> bool:
    """The mesh's edge arrays are those of :func:`edge_numbering`."""
    return all(np.array_equal(getattr(mesh, name), values) for name, values in edge_numbering(mesh).items())


def polygon_centroid(points: np.ndarray) -> np.ndarray:
    """Area centroid of a simple polygon (shoelace moments, local coordinates)."""
    ref = points.mean(axis=0)
    local = points - ref
    x = local[:, 0]
    y = local[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    area = 0.5 * float(np.sum(cross))
    if area == 0.0:
        raise MeshError("centroid of a zero-area polygon is undefined")
    cx = float(np.sum((x + np.roll(x, -1)) * cross)) / (6.0 * area)
    cy = float(np.sum((y + np.roll(y, -1)) * cross)) / (6.0 * area)
    return ref + np.array([cx, cy])


@dataclass(frozen=True)
class OracleRecord:
    """Parent-to-children map and bookkeeping of one refinement pass."""

    children: dict[int, tuple[int, ...]]
    new_vertex_ids: tuple[int, ...]
    hanging_cells: tuple[int, ...]  # unmarked cells that absorbed midpoints


def _marked_cell_set(marks: Iterable[int], n_cells: int) -> list[int]:
    out = sorted(set(int(c) for c in marks))
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


def _inherited_gamma0(mesh: PolygonalMesh, factory: _MidpointFactory) -> list[tuple[int, int]]:
    """Spectral-boundary pairs of the refined mesh: a split gamma0 edge
    passes to both halves."""
    pairs = []
    for a, b in gamma0_pairs(mesh):
        if factory.has_midpoint(a, b):
            m = factory.midpoint(a, b)
            pairs += [(a, m), (m, b)]
        else:
            pairs.append((a, b))
    return pairs


def refine_vem(
    mesh: PolygonalMesh, marks: Iterable[int]
) -> tuple[PolygonalMesh, OracleRecord]:
    """Split each marked polygon into one quadrilateral per vertex."""
    marked = _marked_cell_set(marks, mesh.n_cells)
    if not marked:
        return mesh, OracleRecord(children={}, new_vertex_ids=(), hanging_cells=())

    cell_cycles = cycles(mesh)
    factory = _MidpointFactory(mesh.vertices)
    centroid_id: dict[int, int] = {}
    for cid in marked:
        cyc = cell_cycles[cid]
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
    for cid, cyc in enumerate(cell_cycles):
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

    refined = build_topology(np.array(factory.points), new_cells, _inherited_gamma0(mesh, factory))
    record = OracleRecord(
        children=children,
        new_vertex_ids=tuple(range(mesh.n_vertices, refined.n_vertices)),
        hanging_cells=tuple(hanging),
    )
    return refined, record


def refine_fem(mesh: PolygonalMesh, marks: Iterable[int]) -> PolygonalMesh:
    """Newest-vertex bisection of the marked triangles with conforming closure."""
    tris = mesh.cell_vertices.reshape(-1, 3)
    marked = _marked_cell_set(marks, mesh.n_cells)
    if not marked:
        return mesh

    def edge_key(i: int, j: int) -> tuple[int, int]:
        return (i, j) if i < j else (j, i)

    triangles = tris.tolist()
    marked_edges = {edge_key(t[0], t[1]) for t in (triangles[c] for c in marked)}

    changed = True
    while changed:
        changed = False
        for tri in triangles:
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
    for tri in triangles:
        emit(tri, new_cells)

    return build_topology(np.array(factory.points), new_cells, _inherited_gamma0(mesh, factory))


def refine_uniform(mesh: PolygonalMesh) -> PolygonalMesh:
    """Red refinement: every triangle is split into four similar children."""
    tris = mesh.cell_vertices.reshape(-1, 3)
    factory = _MidpointFactory(mesh.vertices)
    new_cells: list[list[int]] = []
    for a, b, c in tris.tolist():
        mab = factory.midpoint(a, b)
        mbc = factory.midpoint(b, c)
        mca = factory.midpoint(c, a)
        new_cells.extend(
            [[a, mab, mca], [mab, b, mbc], [mca, mbc, c], [mab, mbc, mca]]
        )
    return build_topology(np.array(factory.points), new_cells, _inherited_gamma0(mesh, factory))
