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

import json
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "MeshError",
    "BoundaryTag",
    "TAGS",
    "PolygonalMesh",
    "MeshQualityReport",
    "build_topology",
    "cell_groups",
    "signed_area",
    "polygon_centroid",
    "polygon_diameter",
    "element_area",
    "element_centroid",
    "element_diameter",
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
    for n in np.unique(sizes):
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

    Build instances through :func:`build_topology` (or :func:`load_mesh`),
    which validates orientation, simplicity, manifoldness and boundary tags.
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

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return len(self.cell_ptr) - 1

    @property
    def n_edges(self) -> int:
        return len(self.edge_a)

    def cell(self, c: int) -> np.ndarray:
        """Vertex cycle of one cell."""
        return self.cell_vertices[self.cell_ptr[c]:self.cell_ptr[c + 1]]

    def cycles(self) -> list[list[int]]:
        """All vertex cycles as lists of Python ints, converted in one pass."""
        flat = self.cell_vertices.tolist()
        ptr = self.cell_ptr.tolist()
        return [flat[i:j] for i, j in zip(ptr[:-1], ptr[1:])]

    def gamma0_edge_ids(self) -> np.ndarray:
        return np.flatnonzero(self.edge_tag == TAGS.index(BoundaryTag.GAMMA0))

    def gamma0_vertices(self) -> np.ndarray:
        """Sorted vertex indices lying on the spectral boundary."""
        ids = self.gamma0_edge_ids()
        return np.unique(np.concatenate([self.edge_a[ids], self.edge_b[ids]]))

    def structurally_equal(self, other: "PolygonalMesh") -> bool:
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("vertices", "cell_ptr", "cell_vertices", "edge_a", "edge_b", "edge_tag")
        )


# ---------------------------------------------------------------------------
# polygon geometry on raw coordinate arrays


def signed_area(points: np.ndarray) -> float:
    """Shoelace signed area of a vertex cycle; positive when counterclockwise.

    Coordinates are shifted to a local origin first: tiny cells far from the
    global origin would otherwise lose most significant digits to cancellation
    in the cross products.
    """
    local = points - points.mean(axis=0)
    x = local[:, 0]
    y = local[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


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


def polygon_diameter(points: np.ndarray) -> float:
    """Largest pairwise vertex distance."""
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt(np.max(np.sum(diff * diff, axis=2))))


def _stack_shape(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell-local coordinates, signed areas and squared pairwise vertex
    distances of a (m, n, 2) stack of cycles."""
    local = pts - pts.mean(axis=1, keepdims=True)
    x = local[..., 0]
    y = local[..., 1]
    area = 0.5 * np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    return local, area, np.sum(diff * diff, axis=3)


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


def _check_simple_group(pts: np.ndarray, ids: np.ndarray, diam: np.ndarray) -> None:
    """Reject self-intersecting cycles, vectorized over a (m, n, 2) group.

    Adjacent edges may touch (shared endpoint, collinear hanging vertices);
    any contact between non-adjacent edges makes the cycle non-simple.
    """
    m, n, _ = pts.shape
    if n == 3:
        return
    x = pts[..., 0]
    y = pts[..., 1]
    area_tol = COLLINEAR_REL * diam * diam
    dist_tol2 = (COLLINEAR_REL * diam) ** 2

    def orient(i, j, k):
        return (x[:, j] - x[:, i]) * (y[:, k] - y[:, i]) - (y[:, j] - y[:, i]) * (
            x[:, k] - x[:, i]
        )

    for i in range(n):
        i1 = (i + 1) % n
        for j in range(i + 1, n):
            j1 = (j + 1) % n
            if j == i or j1 == i or i1 == j:
                continue
            d1 = orient(j, j1, i)
            d2 = orient(j, j1, i1)
            d3 = orient(i, i1, j)
            d4 = orient(i, i1, j1)
            proper = (
                ((d1 > area_tol) & (d2 < -area_tol)) | ((d1 < -area_tol) & (d2 > area_tol))
            ) & (((d3 > area_tol) & (d4 < -area_tol)) | ((d3 < -area_tol) & (d4 > area_tol)))
            touch = (
                (_segment_distance2(x[:, i], y[:, i], x[:, j], y[:, j], x[:, j1], y[:, j1]) <= dist_tol2)
                | (_segment_distance2(x[:, i1], y[:, i1], x[:, j], y[:, j], x[:, j1], y[:, j1]) <= dist_tol2)
                | (_segment_distance2(x[:, j], y[:, j], x[:, i], y[:, i], x[:, i1], y[:, i1]) <= dist_tol2)
                | (_segment_distance2(x[:, j1], y[:, j1], x[:, i], y[:, i], x[:, i1], y[:, i1]) <= dist_tol2)
            )
            bad = proper | touch
            if np.any(bad):
                cid = int(ids[_first_true(bad)])
                raise MeshError(
                    f"cell {cid} is not a simple polygon: edges ({i},{i1}) and "
                    f"({j},{j1}) of its cycle intersect"
                )


def _validate_cycles(verts: np.ndarray, cell_ptr: np.ndarray, cell_vertices: np.ndarray) -> None:
    """Group-wise duplicate/degeneracy/orientation/simplicity checks.

    Clockwise cycles are reversed in place in ``cell_vertices``.
    """
    for ids, index in cell_groups(cell_ptr):
        stack = cell_vertices[index]

        srt = np.sort(stack, axis=1)
        dup = np.any(srt[:, 1:] == srt[:, :-1], axis=1)
        if np.any(dup):
            raise MeshError(f"cell {int(ids[_first_true(dup)])} repeats a vertex in its cycle")

        pts = verts[stack]
        _, area, dist2 = _stack_shape(pts)
        diam = np.sqrt(np.max(dist2, axis=(1, 2)))

        degenerate = np.abs(area) <= COLLINEAR_REL * diam * diam
        if np.any(degenerate):
            raise MeshError(f"cell {int(ids[_first_true(degenerate)])} is degenerate (zero area)")

        flip = area < 0.0
        if np.any(flip):
            stack[flip] = stack[flip][:, ::-1]
            cell_vertices[index[flip]] = stack[flip]
            pts = verts[stack]

        _check_simple_group(pts, ids, diam)


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


def _flatten_cells(cells: Iterable[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Compressed-row form (cell_ptr, cell_vertices) of a sequence of cycles."""
    cells = list(cells)
    try:
        sizes = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
        flat = np.fromiter(chain.from_iterable(cells), dtype=np.int64, count=int(sizes.sum()))
    except (TypeError, ValueError):
        raise MeshError("cells must be sequences of vertex indices") from None
    short = sizes < 3
    if np.any(short):
        raise MeshError(f"cell {_first_true(short)} must list at least 3 vertices")
    cell_ptr = np.zeros(len(cells) + 1, dtype=np.int64)
    np.cumsum(sizes, out=cell_ptr[1:])
    return cell_ptr, flat


def build_topology(
    vertices: Sequence | np.ndarray,
    cells: Iterable[Sequence[int]],
    boundary_tags: TagMap | TagRule,
) -> PolygonalMesh:
    """Validate raw vertex/cell data and construct the edge table.

    Clockwise cells are silently reversed.  Raises :class:`MeshError` (naming
    the offending cell or edge) on degenerate or repeated-vertex cells,
    self-intersecting cycles, non-manifold edges, irreparably inconsistent
    orientation, untagged boundary edges, or an empty spectral boundary.
    """
    verts = np.ascontiguousarray(np.asarray(vertices, dtype=float))
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise MeshError("vertex array must have shape (n, 2)")
    if not np.all(np.isfinite(verts)):
        raise MeshError("vertex coordinates must be finite")
    n_verts = verts.shape[0]

    cell_ptr, tails = _flatten_cells(cells)
    n_cells = len(cell_ptr) - 1
    if n_cells == 0:
        raise MeshError("mesh has no cells")
    if tails.min() < 0 or tails.max() >= n_verts:
        bad = _first_true((tails < 0) | (tails >= n_verts))
        cid = int(np.searchsorted(cell_ptr, bad, side="right")) - 1
        raise MeshError(f"cell {cid} references a vertex out of range")

    _validate_cycles(verts, cell_ptr, tails)  # may reverse cycles in place

    # half-edge arrays in cell order
    heads = np.empty_like(tails)
    heads[:-1] = tails[1:]
    heads[cell_ptr[1:] - 1] = tails[cell_ptr[:-1]]
    owner = np.repeat(np.arange(n_cells), np.diff(cell_ptr))

    lo = np.minimum(tails, heads)
    hi = np.maximum(tails, heads)
    keys = lo * np.int64(n_verts) + hi
    unique_keys, first_idx, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )

    if np.any(counts > 2):
        k = int(unique_keys[_first_true(counts > 2)])
        raise MeshError(
            f"edge ({k // n_verts}, {k % n_verts}) is shared by more than two cells"
        )

    # renumber edges in first-encounter order so edge ids are independent of
    # the key sort
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    halfedge_edge = rank[inverse]

    perm = np.argsort(inverse, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts)])

    n_edges = len(unique_keys)
    edge_a = np.empty(n_edges, dtype=np.int64)
    edge_b = np.empty(n_edges, dtype=np.int64)
    edge_left = np.empty(n_edges, dtype=np.int64)
    edge_right = np.full(n_edges, -1, dtype=np.int64)

    first_half = perm[starts[:-1]]
    edge_a[rank] = tails[first_half]
    edge_b[rank] = heads[first_half]
    edge_left[rank] = owner[first_half]

    paired = counts == 2
    if np.any(paired):
        paired_ids = np.nonzero(paired)[0]
        second_half = perm[starts[:-1][paired] + 1]
        same_dir = tails[second_half] == tails[first_half[paired]]
        if np.any(same_dir):
            k = _first_true(same_dir)
            h1 = int(first_half[paired][k])
            h2 = int(second_half[k])
            a, b = int(tails[h2]), int(heads[h2])
            raise MeshError(
                f"edge ({min(a, b)}, {max(a, b)}) traversed in the same direction "
                f"by cells {int(owner[h1])} and {int(owner[h2])}: "
                "orientation cannot be repaired"
            )
        edge_right[rank[paired_ids]] = owner[second_half]

    if isinstance(boundary_tags, Mapping):
        lookup = {tuple(sorted(k)): v for k, v in boundary_tags.items()}

        def classify(key, pa, pb):
            if key not in lookup:
                raise MeshError(f"untagged boundary edge {key}")
            return _normalize_tag(lookup[key], key)

    else:

        def classify(key, pa, pb):
            return _normalize_tag(boundary_tags(pa, pb), key)

    # only boundary edges need a classifier call; interior edges keep code 0
    edge_tag = np.zeros(n_edges, dtype=np.int8)  # TAGS[0] is BoundaryTag.INTERIOR
    boundary = np.flatnonzero(edge_right < 0)
    for eid, a, b in zip(boundary.tolist(), edge_a[boundary].tolist(), edge_b[boundary].tolist()):
        key = (a, b) if a < b else (b, a)
        edge_tag[eid] = TAGS.index(classify(key, verts[a], verts[b]))
    if not np.any(edge_tag == TAGS.index(BoundaryTag.GAMMA0)):
        raise MeshError("spectral boundary is empty: no edge tagged gamma0")

    mesh = PolygonalMesh(
        vertices=verts,
        cell_ptr=cell_ptr,
        cell_vertices=tails,
        cell_edges=halfedge_edge,
        edge_a=edge_a,
        edge_b=edge_b,
        edge_left=edge_left,
        edge_right=edge_right,
        edge_tag=edge_tag,
    )
    for arr in vars(mesh).values():
        arr.flags.writeable = False
    return mesh


# ---------------------------------------------------------------------------
# per-element geometry


def element_area(mesh: PolygonalMesh, cell: int) -> float:
    return signed_area(mesh.vertices[mesh.cell(cell)])


def element_centroid(mesh: PolygonalMesh, cell: int) -> np.ndarray:
    return polygon_centroid(mesh.vertices[mesh.cell(cell)])


def element_diameter(mesh: PolygonalMesh, cell: int) -> float:
    return polygon_diameter(mesh.vertices[mesh.cell(cell)])


@dataclass(frozen=True)
class MeshQualityReport:
    """Shape-regularity diagnostics; thresholds flag cells but never reject them."""

    diameters: np.ndarray
    areas: np.ndarray
    inscribed_radii: np.ndarray      # distance from centroid to nearest boundary edge
    min_vertex_gaps: np.ndarray      # smallest pairwise vertex distance per cell
    gamma: float                     # threshold on inscribed_radius / diameter
    gamma_hat: float                 # threshold on min_vertex_gap / diameter
    star_flags: tuple[int, ...]      # cells with inscribed_radius < gamma * h
    gap_flags: tuple[int, ...]       # cells with min_vertex_gap < gamma_hat * h

    @property
    def gamma_estimate(self) -> float:
        return float(np.min(self.inscribed_radii / self.diameters))

    @property
    def gamma_hat_estimate(self) -> float:
        return float(np.min(self.min_vertex_gaps / self.diameters))


def quality_report(mesh: PolygonalMesh, gamma: float = 0.1, gamma_hat: float = 0.1) -> MeshQualityReport:
    """Per-cell diameter/area/inscribed-radius/vertex-gap statistics with flags."""
    nc = mesh.n_cells
    diam = np.empty(nc)
    area = np.empty(nc)
    rho = np.empty(nc)
    gap = np.empty(nc)
    for ids, index in cell_groups(mesh.cell_ptr):
        local, a, dist2 = _stack_shape(mesh.vertices[mesh.cell_vertices[index]])
        area[ids] = a
        diam[ids] = np.sqrt(np.max(dist2, axis=(1, 2)))
        # centroid in local coordinates, then its distance to every edge
        x, y = local[..., 0], local[..., 1]
        x1, y1 = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        cross = x * y1 - x1 * y
        cx = np.sum((x + x1) * cross, axis=1, keepdims=True) / (6.0 * a[:, None])
        cy = np.sum((y + y1) * cross, axis=1, keepdims=True) / (6.0 * a[:, None])
        rho[ids] = np.sqrt(np.min(_segment_distance2(cx, cy, x, y, x1, y1), axis=1))
        n = index.shape[1]
        dist2[:, np.arange(n), np.arange(n)] = np.inf
        gap[ids] = np.sqrt(np.min(dist2, axis=(1, 2)))
    return MeshQualityReport(
        diameters=diam,
        areas=area,
        inscribed_radii=rho,
        min_vertex_gaps=gap,
        gamma=gamma,
        gamma_hat=gamma_hat,
        star_flags=tuple(np.flatnonzero(rho < gamma * diam).tolist()),
        gap_flags=tuple(np.flatnonzero(gap < gamma_hat * diam).tolist()),
    )


# ---------------------------------------------------------------------------
# JSON I/O


def save_mesh(mesh: PolygonalMesh, path: str | Path) -> None:
    """Write the mesh as JSON: vertices, cell cycles and tagged boundary edges."""
    boundary = np.flatnonzero(mesh.edge_right < 0)
    payload = {
        "vertices": mesh.vertices.tolist(),
        "cells": mesh.cycles(),
        "boundary": [
            {"edge": [a, b], "tag": TAGS[t].value}
            for a, b, t in zip(
                mesh.edge_a[boundary].tolist(),
                mesh.edge_b[boundary].tolist(),
                mesh.edge_tag[boundary].tolist(),
            )
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_mesh(path: str | Path) -> PolygonalMesh:
    """Read a JSON mesh and run full topology validation on it."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as err:
        raise MeshError(f"malformed mesh file {path}: {err}") from None
    try:
        vertices = payload["vertices"]
        cells = payload["cells"]
        boundary = payload["boundary"]
    except (KeyError, TypeError) as err:
        raise MeshError(f"mesh file {path} is missing field {err}") from None
    for cid, cell in enumerate(cells):
        if not isinstance(cell, list) or not all(map(_is_index, cell)):
            raise MeshError(f"cell {cid} in {path} is not a list of integer vertex indices")
    tag_map: dict[tuple[int, int], str] = {}
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
        tag_map[tuple(sorted(edge))] = item["tag"]
    return build_topology(vertices, cells, tag_map)
