"""Loop builders of the two benchmark meshes, as the package had them before
both were built from one grid of index arrays.

Each numbers the grid vertices through a dict from grid coordinates to ids
and appends vertices one at a time, so the square's cell centers get their
ids from the loop's order.  ``longest_edge_first`` is the pass that once set
up the bisection convention on a built mesh; ``initial_mesh``, which stores
each triangle longest edge first, must give the same nine arrays bit for bit
as a loop builder followed by that pass, which ``test_experiments.py``
checks.  The builders name the spectral boundary, the grid edges of the top
side y = 1, from their own grid ids.
"""

from __future__ import annotations

import math

import numpy as np

from steklov.mesh import PolygonalMesh, build_topology


def _square_mesh(blocks: int = 4) -> PolygonalMesh:
    """Structured crossed-triangle mesh: each grid square split at its center."""
    pts: list[list[float]] = []
    gid: dict[tuple[int, int], int] = {}
    for j in range(blocks + 1):
        for i in range(blocks + 1):
            gid[(i, j)] = len(pts)
            pts.append([i / blocks, j / blocks])
    cells: list[list[int]] = []
    for j in range(blocks):
        for i in range(blocks):
            center = len(pts)
            pts.append([(i + 0.5) / blocks, (j + 0.5) / blocks])
            a, b = gid[(i, j)], gid[(i + 1, j)]
            c, d = gid[(i + 1, j + 1)], gid[(i, j + 1)]
            cells.extend([[a, b, center], [b, c, center], [c, d, center], [d, a, center]])
    top = [(gid[(i, blocks)], gid[(i + 1, blocks)]) for i in range(blocks)]
    return build_topology(pts, cells, top)


def _notched_mesh() -> PolygonalMesh:
    """Unit square minus an equilateral notch on the bottom edge.

    The notch has base (1/3, 0)-(2/3, 0) and apex (1/2, sqrt(3)/6); the apex
    is the single reentrant corner, interior angle 5*pi/3.
    """
    pts: list[list[float]] = []
    gid: dict[tuple[int, int], int] = {}
    for j in range(4):
        for i in range(4):
            gid[(i, j)] = len(pts)
            pts.append([i / 3.0, j / 3.0])
    apex = len(pts)
    pts.append([0.5, math.sqrt(3.0) / 6.0])

    cells: list[list[int]] = []
    for j in range(3):
        for i in range(3):
            if (i, j) == (1, 0):
                continue
            a, b = gid[(i, j)], gid[(i + 1, j)]
            c, d = gid[(i + 1, j + 1)], gid[(i, j + 1)]
            cells.extend([[a, b, c], [a, c, d]])
    # the notched block: fan the pentagon around the apex
    a, b = gid[(1, 0)], gid[(2, 0)]
    c, d = gid[(2, 1)], gid[(1, 1)]
    cells.extend([[apex, b, c], [apex, c, d], [apex, d, a]])
    top = [(gid[(i, 3)], gid[(i + 1, 3)]) for i in range(3)]
    return build_topology(pts, cells, top)


def longest_edge_first(mesh: PolygonalMesh) -> PolygonalMesh:
    """The triangular mesh rebuilt with every cycle rotated to start at its
    longest edge, the first it finds on a tie, on its own spectral boundary."""
    tris = mesh.cell_vertices.reshape(-1, 3)
    x, y = (column[tris] for column in mesh.vertices.T)
    # edge k runs from vertex k to k + 1; absolute coordinates keep near ties as they are
    start = np.argmax(np.hypot(np.roll(x, -1, axis=1) - x, np.roll(y, -1, axis=1) - y), axis=1)
    cells = np.take_along_axis(tris, (start[:, None] + np.arange(3)) % 3, axis=1)
    g = mesh.gamma0_edge_ids()
    return build_topology(mesh.vertices, cells.tolist(), zip(mesh.edge_a[g].tolist(), mesh.edge_b[g].tolist()))


LOOP_BUILDERS = {"square": _square_mesh, "notched": _notched_mesh}
