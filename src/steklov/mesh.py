"""Polygonal mesh container: topology construction, geometry, quality checks, JSON I/O.

Cells are simple polygons stored as counterclockwise vertex cycles.  Hanging
vertices created by local refinement are ordinary (possibly collinear) cycle
entries, so conformity always means exact edge matching: every interior edge
is traversed once in each direction by its two incident cells.

The mesh is a set of flat arrays: cells in compressed-row form (``cell_ptr``
into ``cell_vertices``) and one array per edge attribute.  Validation, the
edge table and the quality report work on groups of equal-length cycles,
which keeps them cheap on the fine meshes produced late in an adaptive run.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "MeshError",
    "BoundaryTag",
    "TAGS",
    "PolygonalMesh",
    "MeshQualityReport",
    "PolygonGeometry",
    "build_topology",
    "cell_groups",
    "polygon_geometry",
    "quality_report",
    "save_mesh",
    "load_mesh",
]

# Relative tolerance deciding when three points are treated as collinear:
# triangle area below COLLINEAR_REL * h^2 counts as zero.
COLLINEAR_REL = 1e-12


class MeshError(Exception):
    """Raised when mesh construction or validation fails."""


class BoundaryTag(Enum):
    INTERIOR = "interior"
    GAMMA0 = "gamma0"  # spectral boundary part (eigenvalue in the flux condition)
    GAMMA1 = "gamma1"  # reflecting boundary part (zero normal flux)


# edge_tag stores the position of each edge's tag in this tuple
TAGS = tuple(BoundaryTag)

# A boundary classifier is either an explicit map from the sorted vertex pair
# to a tag, or a geometric predicate receiving the two endpoint coordinates.
TagMap = Mapping[tuple[int, int], "BoundaryTag | str"]
TagRule = Callable[[np.ndarray, np.ndarray], "BoundaryTag | str"]


def cell_groups(cell_ptr: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cells grouped by vertex count, smallest count first.

    Each group is ``(ids, index)``: the ascending cell ids and the (m, n)
    positions of their cycles in the flat per-half-edge arrays, so that
    ``cell_vertices[index]`` stacks the group's cycles.
    """
    sizes = np.diff(cell_ptr)
    groups = []
    for n in np.flatnonzero(np.bincount(sizes)):
        ids = np.flatnonzero(sizes == n)
        groups.append((ids, cell_ptr[ids][:, None] + np.arange(n)))
    return groups


@dataclass(frozen=True, eq=False)
class PolygonalMesh:
    """Immutable conforming polygonal mesh in flat, read-only arrays.

    Cell c is the ccw cycle ``cell_vertices[cell_ptr[c]:cell_ptr[c + 1]]``;
    ``cell_edges`` is aligned with ``cell_vertices`` and holds the id of the
    edge from each cycle entry to the next.  Edge e runs from ``edge_a[e]`` to
    ``edge_b[e]``, the direction its ``edge_left`` cell traverses it;
    ``edge_right`` is the cell traversing (b, a), or -1 on the domain
    boundary, and ``edge_tag`` indexes :data:`TAGS`.

    Data from outside becomes a mesh through :func:`build_topology` (or
    :func:`load_mesh`), which validates orientation, simplicity, manifoldness,
    connectivity and boundary tags; the refiners build their output from the
    edge table directly.  The arrays are taken over and made read-only.
    """

    vertices: np.ndarray       # (n_vertices, 2)
    cell_ptr: np.ndarray       # (n_cells + 1,)
    cell_vertices: np.ndarray  # (n_halfedges,)
    cell_edges: np.ndarray     # (n_halfedges,)
    edge_a: np.ndarray         # (n_edges,) ...
    edge_b: np.ndarray
    edge_left: np.ndarray
    edge_right: np.ndarray
    edge_tag: np.ndarray

    def __post_init__(self):
        for arr in vars(self).values():
            arr.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return len(self.cell_ptr) - 1

    @property
    def n_edges(self) -> int:
        return len(self.edge_a)

    def gamma0_edge_ids(self) -> np.ndarray:
        return np.flatnonzero(self.edge_tag == TAGS.index(BoundaryTag.GAMMA0))

    def gamma0_vertices(self) -> np.ndarray:
        """Sorted vertex indices lying on the spectral boundary."""
        ids = self.gamma0_edge_ids()
        return np.unique(np.concatenate([self.edge_a[ids], self.edge_b[ids]]))


# ---------------------------------------------------------------------------
# polygon geometry on raw coordinate arrays


@dataclass(frozen=True, eq=False)
class PolygonGeometry:
    """Shape of a group of same-size vertex cycles, from :func:`polygon_geometry`.

    The fields are what every caller needs; ``diameter``, ``centroid`` and
    ``gap`` are derived from them on first use and kept.
    """

    origin_x: np.ndarray  # (m,) vertex mean
    origin_y: np.ndarray
    x: np.ndarray         # (m, n) coordinates relative to the vertex mean
    y: np.ndarray
    next_x: np.ndarray    # (m, n) those of the next vertex along the cycle
    next_y: np.ndarray
    cross: np.ndarray     # (m, n) shoelace terms x * next_y - next_x * y
    area: np.ndarray      # (m,) signed, positive when counterclockwise
    dist2: list           # (n, m) squared distance of vertex i to i + k, per offset k

    @functools.cached_property
    def diameter(self) -> np.ndarray:  # (m,) largest vertex distance
        return np.sqrt(functools.reduce(np.maximum, (np.max(d, axis=0) for d in self.dist2)))

    @functools.cached_property
    def gap(self) -> np.ndarray:  # (m,) smallest vertex distance
        return np.sqrt(functools.reduce(np.minimum, (np.min(d, axis=0) for d in self.dist2)))

    @functools.cached_property
    def centroid(self) -> tuple[np.ndarray, np.ndarray]:
        """Area centroid (cx, cy) relative to the vertex mean; not finite
        where the area is zero."""
        with np.errstate(divide="ignore", invalid="ignore"):
            six_area = 6.0 * self.area
            return (np.sum((self.x + self.next_x) * self.cross, axis=1) / six_area,
                    np.sum((self.y + self.next_y) * self.cross, axis=1) / six_area)

    def kernel_radius(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Smallest signed distance (positive inside) from each point (px,
        py), relative to the vertex mean, to the edge lines of its ccw cycle."""
        ex, ey = self.next_x - self.x, self.next_y - self.y
        cross = ex * (py[:, None] - self.y) - ey * (px[:, None] - self.x)
        return np.min(cross / np.hypot(ex, ey), axis=1)


def polygon_geometry(x: np.ndarray, y: np.ndarray) -> PolygonGeometry:
    """Shape of same-size vertex cycles given as (m, n) coordinate columns.

    Area is taken in the local coordinates: tiny cells far from the global
    origin would otherwise lose most significant digits to cancellation in
    the cross products.  Vertex distances are taken one offset k at a time
    (vertex i against vertex i + k), which reaches every pair for k <= n / 2
    without holding all n * n differences at once.  The vertex mean and the
    distances work on position-major (n, m) copies of the coordinates, so
    that no reduction runs along a short last axis, which numpy does slowly;
    the mean adds the positions in cycle order.
    """
    n = x.shape[1]
    xt, yt = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)
    origin_x, origin_y = sum(xt) / n, sum(yt) / n
    local_x, local_y = x - origin_x[:, None], y - origin_y[:, None]
    next_x, next_y = np.roll(local_x, -1, axis=1), np.roll(local_y, -1, axis=1)
    cross = local_x * next_y - next_x * local_y
    dist2 = []
    for k in range(1, n // 2 + 1):
        partner = np.roll(np.arange(n), -k)
        dx, dy = xt - xt[partner], yt - yt[partner]
        dist2.append(dx * dx + dy * dy)
    return PolygonGeometry(
        origin_x, origin_y, local_x, local_y, next_x, next_y, cross, 0.5 * np.sum(cross, axis=1), dist2
    )


# ---------------------------------------------------------------------------
# vectorized cycle validation


def _first_true(mask: np.ndarray) -> int:
    return int(np.nonzero(mask)[0][0])


def _segment_distance2(px, py, ax, ay, bx, by):
    """Squared distance from points (px, py) to segments (a, b), elementwise."""
    abx = bx - ax
    aby = by - ay
    denom = abx * abx + aby * aby
    t = ((px - ax) * abx + (py - ay) * aby) / np.where(denom == 0.0, 1.0, denom)
    t = np.clip(t, 0.0, 1.0)
    dx = px - (ax + t * abx)
    dy = py - (ay + t * aby)
    return dx * dx + dy * dy


_PAIR_CHUNK = 1 << 16  # (cell, edge pair) entries tested at once


def _check_simple_group(x: np.ndarray, y: np.ndarray, ids: np.ndarray, diam: np.ndarray) -> None:
    """Reject self-intersecting cycles, vectorized over a group given as (m, n)
    coordinate columns and over its pairs of non-adjacent edges.

    Adjacent edges may touch (shared endpoint, collinear hanging vertices);
    any contact between non-adjacent edges makes the cycle non-simple.  The
    error names the first offending edge pair (i, j) in ascending order and
    the lowest cell in which it meets.
    """
    m, n = x.shape
    if n == 3:
        return
    i, j = np.triu_indices(n, 2)
    keep = (i > 0) | (j < n - 1)  # edges (0,1) and (n-1,0) are adjacent
    i, j = i[keep], j[keep]
    area_tol = (COLLINEAR_REL * diam * diam)[:, None]
    dist_tol2 = ((COLLINEAR_REL * diam) ** 2)[:, None]
    step = max(1, _PAIR_CHUNK // m)
    for start in range(0, len(i), step):
        a, c = i[start:start + step], j[start:start + step]
        ax, ay, bx, by = x[:, a], y[:, a], x[:, (a + 1) % n], y[:, (a + 1) % n]
        cx, cy, dx, dy = x[:, c], y[:, c], x[:, (c + 1) % n], y[:, (c + 1) % n]
        d1 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
        d2 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
        d3 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        d4 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
        proper = (
            ((d1 > area_tol) & (d2 < -area_tol)) | ((d1 < -area_tol) & (d2 > area_tol))
        ) & (((d3 > area_tol) & (d4 < -area_tol)) | ((d3 < -area_tol) & (d4 > area_tol)))
        touch = (
            (_segment_distance2(ax, ay, cx, cy, dx, dy) <= dist_tol2)
            | (_segment_distance2(bx, by, cx, cy, dx, dy) <= dist_tol2)
            | (_segment_distance2(cx, cy, ax, ay, bx, by) <= dist_tol2)
            | (_segment_distance2(dx, dy, ax, ay, bx, by) <= dist_tol2)
        )
        bad = proper | touch
        if np.any(bad):
            pair = _first_true(np.any(bad, axis=0))
            cid = int(ids[_first_true(bad[:, pair])])
            p, q = int(a[pair]), int(c[pair])
            raise MeshError(
                f"cell {cid} is not a simple polygon: edges ({p},{(p + 1) % n}) and "
                f"({q},{(q + 1) % n}) of its cycle intersect"
            )


def _validate_cycles(verts: np.ndarray, cell_ptr: np.ndarray, cell_vertices: np.ndarray) -> None:
    """Group-wise duplicate/degeneracy/orientation/simplicity checks.

    Clockwise cycles are reversed in place in ``cell_vertices``.
    """
    vx, vy = verts.T
    for ids, index in cell_groups(cell_ptr):
        stack = cell_vertices[index]

        srt = np.sort(stack, axis=1)
        dup = np.any(srt[:, 1:] == srt[:, :-1], axis=1)
        if np.any(dup):
            raise MeshError(f"cell {int(ids[_first_true(dup)])} repeats a vertex in its cycle")

        x, y = vx[stack], vy[stack]
        with np.errstate(over="ignore", invalid="ignore"):
            shape = polygon_geometry(x, y)
            area, diam = shape.area, shape.diameter
        # finite coordinates can still overflow the shoelace sum or a distance
        huge = ~(np.isfinite(area) & np.isfinite(diam))
        if np.any(huge):
            raise MeshError(f"cell {int(ids[_first_true(huge)])} is too large: its area or diameter is not finite")

        degenerate = np.abs(area) <= COLLINEAR_REL * diam * diam
        if np.any(degenerate):
            raise MeshError(f"cell {int(ids[_first_true(degenerate)])} is degenerate (zero area)")

        flip = area < 0.0
        if np.any(flip):
            stack[flip] = stack[flip][:, ::-1]
            cell_vertices[index[flip]] = stack[flip]
            x, y = vx[stack], vy[stack]

        _check_simple_group(x, y, ids, diam)


def _normalize_tag(raw, edge_key) -> BoundaryTag:
    if isinstance(raw, BoundaryTag):
        tag = raw
    else:
        try:
            tag = BoundaryTag(str(raw))
        except ValueError:
            raise MeshError(f"unknown boundary tag {raw!r} on edge {edge_key}") from None
    if tag is BoundaryTag.INTERIOR:
        raise MeshError(f"boundary edge {edge_key} tagged as interior")
    return tag


_BOOLEANS = {bool, np.bool_}


def _first_boolean(entries: list) -> int | None:
    """Position of the first boolean in a flat list of numbers, which numpy
    would otherwise read as 0 or 1; None if there is none."""
    if _BOOLEANS.isdisjoint(map(type, entries)):
        return None
    return next(k for k, value in enumerate(entries) if type(value) in _BOOLEANS)


def _cell_arrays(cells: Iterable[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Checked compressed-row form (cell_ptr, cell_vertices) of a sequence of cycles.

    Rejects cells of fewer than three vertices and vertex indices that are not
    integers (a fractional or non-finite float names its cell instead of
    being truncated).
    """
    cells = list(cells)
    try:
        sizes = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
        entries = list(chain.from_iterable(cells))
        flat = np.array(entries)
    except (TypeError, ValueError):
        raise MeshError("cells must be sequences of vertex indices") from None
    if np.any(sizes < 3):
        raise MeshError(f"cell {_first_true(sizes < 3)} must list at least 3 vertices")
    cell_ptr = np.zeros(len(cells) + 1, dtype=np.int64)
    np.cumsum(sizes, out=cell_ptr[1:])
    boolean = _first_boolean(entries)
    if boolean is not None:
        cid = int(np.searchsorted(cell_ptr, boolean, side="right")) - 1
        raise MeshError(f"cell {cid} has a boolean vertex index")
    if flat.dtype.kind == "f":
        fractional = ~np.isfinite(flat) | (flat != np.trunc(flat))
        if np.any(fractional):
            cid = int(np.searchsorted(cell_ptr, _first_true(fractional), side="right")) - 1
            raise MeshError(f"cell {cid} has a vertex index that is not an integer")
    elif flat.dtype.kind not in "iu":
        raise MeshError("cells must be sequences of vertex indices")
    return cell_ptr, flat.astype(np.int64)


_INT64_MAX = np.iinfo(np.int64).max


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of int64 ``keys`` in the order they first appear.

    Returns ``(number, first)``: the number of each entry's value, and the
    position of the first appearance of each number.  The entries are put
    in order of (key, position) by one sort of the composite ``key * len +
    position``, or, when a key is negative or the composite would overflow
    int64, by a stable argsort.  In that order each run of equal keys begins
    with the key's first appearance; ranking those positions numbers them.
    """
    size = len(keys)
    if not size:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if keys.min() >= 0 and keys.max() <= (_INT64_MAX - (size - 1)) // size:
        order = np.sort(keys * size + np.arange(size)) % size
    else:
        order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    runs = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    heads = order[runs]  # the first appearance of each key, in key order
    is_first = np.zeros(size, dtype=bool)
    is_first[heads] = True
    first = np.flatnonzero(is_first)
    rank = np.empty(size, dtype=np.int64)
    rank[first] = np.arange(len(first))
    number = np.empty(size, dtype=np.int64)
    number[order] = np.repeat(rank[heads], np.diff(runs, append=size))
    return number, first


def _edge_table(verts: np.ndarray, cell_ptr: np.ndarray, tails: np.ndarray) -> tuple[np.ndarray, ...]:
    """The edges of compressed-row ccw cycles on ``verts``, numbered in the
    order the cells first reach them: ``(cell_edges, edge_a, edge_b,
    edge_left, edge_right)`` as :class:`PolygonalMesh` holds them.

    Only the errors that pairing the half-edges turns up are raised here,
    each naming the bad edge of lowest vertex pair: an edge shared by more
    than two cells or traversed twice in one direction.
    """
    n_verts, n_cells = len(verts), len(cell_ptr) - 1
    heads = np.empty_like(tails)
    heads[:-1] = tails[1:]
    heads[cell_ptr[1:] - 1] = tails[cell_ptr[:-1]]
    owner = np.repeat(np.arange(n_cells), np.diff(cell_ptr))

    keys = np.minimum(tails, heads) * np.int64(n_verts) + np.maximum(tails, heads)
    cell_edges, first = _first_appearance(keys)
    crowded = np.bincount(cell_edges) > 2
    if np.any(crowded):
        k = int(keys[first[crowded]].min())
        raise MeshError(f"edge ({k // n_verts}, {k % n_verts}) is shared by more than two cells")

    # every half-edge after an edge's first is its second, traversed by the right cell
    later = np.ones(len(keys), dtype=bool)
    later[first] = False
    second = np.flatnonzero(later)
    same_dir = tails[second] == tails[first[cell_edges[second]]]
    if np.any(same_dir):
        h2 = second[same_dir][np.argmin(keys[second[same_dir]])]
        h1 = first[cell_edges[h2]]
        k = int(keys[h2])
        raise MeshError(
            f"edge ({k // n_verts}, {k % n_verts}) traversed in the same direction "
            f"by cells {int(owner[h1])} and {int(owner[h2])}: orientation cannot be repaired"
        )
    edge_right = np.full(len(first), -1, dtype=np.int64)
    edge_right[cell_edges[second]] = owner[second]
    return cell_edges, tails[first], heads[first], owner[first], edge_right


def build_topology(
    vertices: Sequence | np.ndarray,
    cells: Iterable[Sequence[int]],
    boundary_tags: TagMap | TagRule,
) -> PolygonalMesh:
    """Validate raw vertex/cell data from outside and construct the edge table.

    ``boundary_tags`` maps each boundary edge's sorted vertex pair to its tag,
    or is a rule called with the edge's two endpoint coordinates.  The checks
    run in a fixed order (cycles, tag map keys, pairing, unused vertices,
    boundary tags, stray keys, spectral boundary, connectivity); where two
    edges fail the same check, the lower vertex pair is named.
    ``vertices`` and ``cells`` (vertex cycles) are copied, never changed.
    Clockwise cells are silently reversed.  Raises :class:`MeshError` (naming
    the offending cell, vertex or edge) on vertex data that is not an
    (n, 2) array of finite numbers, booleans among the coordinates or
    vertex indices, non-integer vertex indices,
    degenerate or repeated-vertex cells, self-intersecting cycles, vertices
    that no cell uses, non-manifold edges, irreparably inconsistent
    orientation, untagged boundary edges, a tag map key that is not a
    boundary edge, two tag map keys naming one edge, an empty spectral
    boundary, or a vertex graph of more than one component (cells that
    share only a vertex are connected).
    """
    try:
        verts = np.asarray(vertices)
    except (TypeError, ValueError):  # ragged
        verts = np.empty(0)
    if verts.ndim != 2 or verts.shape[1] != 2 or verts.dtype.kind not in "iuf":
        raise MeshError("vertex array must have shape (n, 2) and hold numbers")
    if not isinstance(vertices, np.ndarray):
        boolean = _first_boolean(list(chain.from_iterable(vertices)))
        if boolean is not None:
            raise MeshError(f"vertex {boolean // 2} has a boolean coordinate")
    verts = np.array(verts, dtype=float, order="C")  # a copy: the mesh freezes it
    if not np.all(np.isfinite(verts)):
        raise MeshError("vertex coordinates must be finite")
    n_verts = verts.shape[0]

    cell_ptr, tails = _cell_arrays(cells)
    if len(cell_ptr) == 1:
        raise MeshError("mesh has no cells")
    if tails.min() < 0 or tails.max() >= n_verts:
        bad = _first_true((tails < 0) | (tails >= n_verts))
        cid = int(np.searchsorted(cell_ptr, bad, side="right")) - 1
        raise MeshError(f"cell {cid} references a vertex out of range")

    _validate_cycles(verts, cell_ptr, tails)  # may reverse cycles in place

    tag_map = isinstance(boundary_tags, Mapping)
    lookup = {}  # sorted edge key -> the tag map key naming it
    if tag_map:
        for k in boundary_tags:
            key = tuple(sorted(k))
            if key in lookup:
                raise MeshError(f"tag map keys {lookup[key]} and {k} both name edge {key}")
            lookup[key] = k

    cell_edges, edge_a, edge_b, edge_left, edge_right = _edge_table(verts, cell_ptr, tails)
    used = np.zeros(n_verts, dtype=bool)
    used[tails] = True
    if not np.all(used):
        raise MeshError(f"vertex {_first_true(~used)} is not used by any cell")

    # boundary edges in ascending vertex pair order, so the first bad one is the lowest
    boundary = np.flatnonzero(edge_right < 0)
    lo, hi = np.sort([edge_a[boundary], edge_b[boundary]], axis=0)
    boundary = boundary[np.lexsort((hi, lo))]
    tags = []
    for a, b in zip(edge_a[boundary].tolist(), edge_b[boundary].tolist()):
        key = (a, b) if a < b else (b, a)
        if not tag_map:
            raw = boundary_tags(verts[a], verts[b])
        elif key in lookup:
            raw = boundary_tags[lookup[key]]
        else:
            raise MeshError(f"untagged boundary edge {key}")
        tags.append(TAGS.index(_normalize_tag(raw, key)))
    edge_tag = np.zeros(len(edge_a), dtype=np.int8)  # TAGS[0] is BoundaryTag.INTERIOR
    edge_tag[boundary] = tags
    # every boundary edge has a key by now, so any key left over is stray
    if len(lookup) > len(boundary):
        a, b = min(lookup.keys() - set(zip(lo.tolist(), hi.tolist())))
        raise MeshError(f"tagged edge ({a}, {b}) is not a boundary edge of the mesh")

    if not np.any(edge_tag == TAGS.index(BoundaryTag.GAMMA0)):
        raise MeshError("spectral boundary is empty: no edge tagged gamma0")
    graph = sp.coo_matrix((np.ones(len(edge_a)), (edge_a, edge_b)), shape=(n_verts, n_verts))
    labels = connected_components(graph, directed=False)[1]
    if np.any(labels != labels[0]):
        k = _first_true(labels != labels[0])
        raise MeshError(f"mesh is disconnected: vertex {k} is not connected to vertex 0")
    return PolygonalMesh(verts, cell_ptr, tails, cell_edges, edge_a, edge_b, edge_left, edge_right, edge_tag)


# ---------------------------------------------------------------------------
# shape regularity


# thresholds of the mesh-regularity assumptions of the a posteriori analysis:
# every cell is star-shaped with respect to a ball of radius >= GAMMA * h, and
# its vertices are at least GAMMA_HAT * h apart; quality_report flags the cells
# whose kernel radius about the centroid or smallest vertex gap falls below them
GAMMA = 0.1
GAMMA_HAT = 0.1


@dataclass(frozen=True)
class MeshQualityReport:
    """Shape-regularity diagnostics; thresholds flag cells but never reject them."""

    diameters: np.ndarray
    areas: np.ndarray
    inscribed_radii: np.ndarray      # kernel radius about the centroid, clamped at 0
    min_vertex_gaps: np.ndarray      # smallest pairwise vertex distance per cell
    star_flags: np.ndarray           # ids of cells with inscribed_radius < GAMMA * h
    gap_flags: np.ndarray            # ids of cells with min_vertex_gap < GAMMA_HAT * h

    @property
    def gamma_estimate(self) -> float:
        return float(np.min(self.inscribed_radii / self.diameters))

    @property
    def gamma_hat_estimate(self) -> float:
        return float(np.min(self.min_vertex_gaps / self.diameters))


def quality_report(mesh: PolygonalMesh) -> MeshQualityReport:
    """Per-cell diameter/area/inscribed-radius/vertex-gap statistics with flags."""
    diam, area, rho, gap = np.empty((4, mesh.n_cells))
    vx, vy = mesh.vertices.T
    for ids, index in cell_groups(mesh.cell_ptr):
        cycles = mesh.cell_vertices[index]
        shape = polygon_geometry(vx[cycles], vy[cycles])
        area[ids], diam[ids], gap[ids] = shape.area, shape.diameter, shape.gap
        rho[ids] = np.maximum(shape.kernel_radius(*shape.centroid), 0.0)
    return MeshQualityReport(
        diameters=diam,
        areas=area,
        inscribed_radii=rho,
        min_vertex_gaps=gap,
        star_flags=np.flatnonzero(rho < GAMMA * diam),
        gap_flags=np.flatnonzero(gap < GAMMA_HAT * diam),
    )


# ---------------------------------------------------------------------------
# cell marks


def _marked_cells(marks: Iterable[int], n_cells: int) -> np.ndarray:
    """Ascending, distinct marked cell ids.

    A boolean entry (a mask is not a list of ids) or one that is not an
    integer raises :class:`MeshError` naming the first such entry.
    """
    entries = marks if isinstance(marks, np.ndarray) else list(marks)
    # the entries of an array share one dtype, so its first one speaks for all
    boolean = _first_boolean(entries if isinstance(entries, list) else entries[:1].tolist())
    if boolean is not None:
        raise MeshError(f"mark entry {boolean} is a boolean, not a cell id")
    cells = np.asarray(entries)
    if cells.dtype.kind == "f":
        fractional = ~np.isfinite(cells) | (cells != np.trunc(cells))
        if fractional.any():
            k = _first_true(fractional)
            raise MeshError(f"mark entry {k} is not an integer cell id: {float(cells[k])!r}")
    elif cells.dtype.kind not in "iu":
        raise MeshError("marks must be integer cell ids")
    out = cells.astype(np.int64).ravel()
    if np.any(out[1:] <= out[:-1]):  # adaptivity.mark's ids ascend already and skip the sort
        out = np.unique(out)
    if len(out) and (out[0] < 0 or out[-1] >= n_cells):
        raise MeshError("marked cell index out of range")
    return out


# ---------------------------------------------------------------------------
# file text, built from object arrays of per-vertex strings in one join per
# table, so that no Python loop runs over cells


def _shared_rows(old: np.ndarray, new: np.ndarray) -> int:
    """``len(old)`` when ``new`` starts with the rows of ``old``, else 0.

    Rows are compared bit for bit: -0.0 == 0.0, but the two print differently.
    """
    n = len(old)
    return n if new[:n].tobytes() == old.tobytes() else 0


def _join(*columns) -> str:
    """Concatenate equal-length object-array columns row by row; a str column
    repeats on every row."""
    rows = next(len(column) for column in columns if not isinstance(column, str))
    table = np.empty((rows, len(columns)), dtype=object)
    for k, column in enumerate(columns):
        table[:, k] = column
    return "".join(table.ravel().tolist())


def _cycle_text(mesh: PolygonalMesh, labels: np.ndarray, sep: str, ends: np.ndarray) -> str:
    """Every cycle entry v as ``labels[v]``, with ``sep`` between the entries
    of a cell and ``ends[c]`` after the last entry of cell c."""
    seps = np.full(len(mesh.cell_vertices), sep, dtype=object)
    seps[mesh.cell_ptr[1:] - 1] = ends
    return _join(labels[mesh.cell_vertices], seps)


# JSON text of each tag, indexed like TAGS
_TAG_JSON = np.array([json.dumps(tag.value) for tag in TAGS], dtype=object)


def _json_texts(meshes: Iterable[PolygonalMesh]) -> Iterator[str]:
    """The JSON file text of each mesh in turn: vertices, cell cycles and
    tagged boundary edges, as ``json.dumps`` writes them.

    A mesh whose vertex array starts with the previous mesh's, as every
    refined mesh does, reuses the text of those rows and formats only the
    rows after them.
    """
    vertices = np.empty((0, 2))
    rows = ""  # the JSON text of the rows of ``vertices``, without the outer brackets
    labels = np.empty(0, dtype=object)  # str(v) of every vertex id v met so far
    for mesh in meshes:
        shared = _shared_rows(vertices, mesh.vertices)
        fresh = json.dumps(mesh.vertices[shared:].tolist())[1:-1]
        rows = ", ".join(filter(None, (rows if shared else "", fresh)))
        vertices = mesh.vertices
        if mesh.n_vertices > len(labels):
            more = np.arange(len(labels), mesh.n_vertices).astype(str).astype(object)
            labels = np.concatenate([labels, more])

        ends = np.full(mesh.n_cells, "], [", dtype=object)
        ends[-1] = ""
        boundary = np.flatnonzero(mesh.edge_right < 0)
        commas = np.full(len(boundary), ", ", dtype=object)
        commas[-1:] = ""
        items = _join(
            '{"edge": [', labels[mesh.edge_a[boundary]], ", ", labels[mesh.edge_b[boundary]],
            '], "tag": ', _TAG_JSON[mesh.edge_tag[boundary]], "}", commas,
        )
        yield "".join([
            '{"vertices": [', rows, '], "cells": [[', _cycle_text(mesh, labels, ", ", ends),
            ']], "boundary": [', items, "]}\n",
        ])


def save_mesh(mesh: PolygonalMesh, path: str | Path) -> None:
    """Write the mesh as JSON: vertices, cell cycles and tagged boundary edges."""
    Path(path).write_text(next(_json_texts([mesh])))


# ---------------------------------------------------------------------------
# JSON input


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_mesh(path: str | Path) -> PolygonalMesh:
    """Read a JSON mesh and run full topology validation on it."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as err:
        raise MeshError(f"malformed mesh file {path}: {err}") from None
    if not isinstance(payload, dict):
        raise MeshError(
            f"mesh file {path} must hold a JSON object with fields 'vertices', 'cells' and 'boundary'"
        )
    try:
        vertices = payload["vertices"]
        cells = payload["cells"]
        boundary = payload["boundary"]
    except KeyError as err:
        raise MeshError(f"mesh file {path} is missing field {err}") from None
    for field, value in (("vertices", vertices), ("cells", cells), ("boundary", boundary)):
        if not isinstance(value, list):
            raise MeshError(f"field {field!r} in mesh file {path} must be a list")
    for vid, vertex in enumerate(vertices):
        if not isinstance(vertex, list) or not all(map(_is_number, vertex)):
            raise MeshError(f"vertex {vid} in {path} is not a list of numbers")
    for cid, cell in enumerate(cells):
        if not isinstance(cell, list) or not all(map(_is_index, cell)):
            raise MeshError(f"cell {cid} in {path} is not a list of integer vertex indices")
    item_of: dict[tuple[int, int], int] = {}  # edge key -> its boundary item
    for k, item in enumerate(boundary):
        edge = item.get("edge") if isinstance(item, dict) else None
        if (
            not isinstance(edge, list)
            or len(edge) != 2
            or not all(map(_is_index, edge))
            or "tag" not in item
        ):
            raise MeshError(
                f"boundary item {k} in {path} must be an object with an integer "
                f"vertex pair \"edge\" and a \"tag\": {item!r}"
            )
        key = tuple(sorted(edge))
        if key in item_of:
            raise MeshError(f"boundary items {item_of[key]} and {k} in {path} both tag edge {list(key)}")
        item_of[key] = k
    return build_topology(vertices, cells, {key: boundary[k]["tag"] for key, k in item_of.items()})
