"""The package's former polygon-geometry kernel, kept verbatim as a test oracle.

Before the package had one geometry kernel on coordinate columns,
``polygon_geometry`` took a (m, n, 2) stack of vertex cycles and returned
the tuple ``(origin, local, area, centroid, diameter, gap)``, with the
shared part ``_cycle_shape`` that assembly called on its own, and the kernel
radius came from a free ``_kernel_radius`` of the stacked local
coordinates.  ``steklov.mesh.polygon_geometry`` must give the same area,
diameter, centroid, gap and kernel radius bit for bit, which a property in
``test_properties.py`` checks on random star polygons.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np


def _row_extreme(op: np.ufunc, dist2: list[np.ndarray]) -> np.ndarray:
    """``op.reduce`` (np.maximum or np.minimum) of each cycle's entries in a
    list of position-major (n, m) arrays."""
    return functools.reduce(op, (op.reduce(d, axis=0) for d in dist2))


class _CycleShape(NamedTuple):
    """The part of :func:`polygon_geometry` that assembly uses too."""

    origin_x: np.ndarray  # (m,) vertex mean
    origin_y: np.ndarray
    x: np.ndarray         # (m, n) coordinates relative to the vertex mean
    y: np.ndarray
    next_x: np.ndarray    # (m, n) those of the next vertex along the cycle
    next_y: np.ndarray
    cross: np.ndarray     # (m, n) shoelace terms x * next_y - next_x * y
    area: np.ndarray      # (m,) signed, positive when counterclockwise
    dist2: list           # (n, m) squared distance of vertex i to i + k, per offset k

    @property
    def diameter(self) -> np.ndarray:
        return np.sqrt(_row_extreme(np.maximum, self.dist2))


def _cycle_shape(x: np.ndarray, y: np.ndarray) -> _CycleShape:
    """Shape of stacked vertex cycles given as (m, n) coordinate columns.

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
    origin_x, origin_y = sum(xt) / n, sum(yt) / n  # row by row, as numpy sums a (m, n, 2) stack
    local_x = x - origin_x[:, None]
    local_y = y - origin_y[:, None]
    next_x, next_y = np.roll(local_x, -1, axis=1), np.roll(local_y, -1, axis=1)
    cross = local_x * next_y - next_x * local_y
    dist2 = []
    for k in range(1, n // 2 + 1):
        partner = np.roll(np.arange(n), -k)
        dx, dy = xt - xt[partner], yt - yt[partner]
        dist2.append(dx * dx + dy * dy)
    return _CycleShape(
        origin_x, origin_y, local_x, local_y, next_x, next_y, cross, 0.5 * np.sum(cross, axis=1), dist2
    )


def polygon_geometry(pts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Shape of a (m, n, 2) stack of vertex cycles, vectorized over the stack.

    Returns ``(origin, local, area, centroid, diameter, gap)``: each cycle's
    vertex mean (m, 2), its coordinates relative to that mean (m, n, 2), its
    signed shoelace area (positive when counterclockwise), its area centroid
    relative to ``origin`` (m, 2), and its largest and smallest vertex
    distance.  The centroid of a zero-area cycle is not finite.  All but the
    centroid and the gap come from :func:`_cycle_shape`, which assembly
    calls on its own.
    """
    shape = _cycle_shape(pts[..., 0], pts[..., 1])
    x, y, cross = shape.x, shape.y, shape.cross
    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = np.stack([np.sum((x + shape.next_x) * cross, axis=1), np.sum((y + shape.next_y) * cross, axis=1)], axis=1)
        centroid /= 6.0 * shape.area[:, None]
    origin = np.stack([shape.origin_x, shape.origin_y], axis=1)
    gap = np.sqrt(_row_extreme(np.minimum, shape.dist2))
    return origin, np.stack([x, y], axis=2), shape.area, centroid, shape.diameter, gap

def _kernel_radius(local: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Smallest signed distance (positive inside) from each centroid to the
    edge lines of its ccw cycle, as :func:`polygon_geometry` returns both."""
    x, y = local[..., 0], local[..., 1]
    ex, ey = np.roll(x, -1, axis=1) - x, np.roll(y, -1, axis=1) - y
    cross = ex * (centroid[:, 1:] - y) - ey * (centroid[:, :1] - x)
    return np.min(cross / np.hypot(ex, ey), axis=1)

