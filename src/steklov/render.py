"""Minimal SVG rendering of polygonal meshes for visual inspection."""

from __future__ import annotations

import numbers
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .mesh import PolygonalMesh, _cycle_text, _join, _marked_cells, _shared_rows

__all__ = ["mesh_to_svg"]

_WIDTH = 720  # image width in pixels


def _formatted(values: np.ndarray) -> np.ndarray:
    """Object array of the pixel coordinates printed to three decimals."""
    return np.array([f"{v:.3f}" for v in values.tolist()], dtype=object)


def _svg_texts(
    frames: Iterable[tuple[PolygonalMesh, Sequence[int] | np.ndarray]], width: int = _WIDTH
) -> Iterator[str]:
    """The SVG file text of each (mesh, marked cell ids) frame in turn.

    While the pixel transform (bounding box and width) stays the same, a
    mesh whose vertex array starts with the previous mesh's, as every refined
    mesh does, reuses the pixel text of those vertices and formats only the
    vertices after them.
    """
    stroke = max(0.5, 0.0012 * width)
    tails = [
        f'" fill="{fill}" stroke="#333333" stroke-width="{stroke:.2f}" stroke-linejoin="round"/>\n'
        for fill in ("none", "#f4b8b8")
    ]
    line_tail = f'" stroke="#c62828" stroke-width="{2.5 * stroke:.2f}"/>\n'
    # what follows each cell's points, unshaded or shaded, up to the next cell's
    cell_ends = np.array([tail + '<polygon points="' for tail in tails], dtype=object)
    transform = None
    vertices = np.empty((0, 2))
    xs = ys = points = np.empty(0, dtype=object)  # pixel text of each vertex of ``vertices``
    for mesh, marked in frames:
        shaded = np.zeros(mesh.n_cells, dtype=np.intp)
        shaded[_marked_cells(marked, mesh.n_cells)] = 1

        verts = mesh.vertices
        xmin, ymin = verts.min(axis=0)
        xmax, ymax = verts.max(axis=0)
        span_x = max(xmax - xmin, 1e-30)
        span_y = max(ymax - ymin, 1e-30)
        margin = 0.04 * max(span_x, span_y)
        scale = width / (span_x + 2 * margin)
        height = int(round(scale * (span_y + 2 * margin)))

        shared = _shared_rows(vertices, verts) if (xmin, ymax, margin, scale) == transform else 0
        transform = (xmin, ymax, margin, scale)
        vertices = verts
        # pixel coordinates of the new vertices (SVG's y axis points down)
        px = _formatted(scale * (verts[shared:, 0] - xmin + margin))
        py = _formatted(scale * (ymax - verts[shared:, 1] + margin))
        xs = np.concatenate([xs[:shared], px])
        ys = np.concatenate([ys[:shared], py])
        points = np.concatenate([points[:shared], px + "," + py])

        ends = cell_ends[shaded]
        ends[-1] = tails[shaded[-1]]
        gamma0 = mesh.gamma0_edge_ids()
        a, b = mesh.edge_a[gamma0], mesh.edge_b[gamma0]
        yield "".join([
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n',
            f'<rect width="{width}" height="{height}" fill="white"/>\n',
            '<polygon points="', _cycle_text(mesh, points, " ", ends),
            _join('<line x1="', xs[a], '" y1="', ys[a], '" x2="', xs[b], '" y2="', ys[b], line_tail),
            "</svg>\n",
        ])


def mesh_to_svg(
    mesh: PolygonalMesh,
    path: str | Path,
    marked: Sequence[int] | np.ndarray = (),
    width: int = _WIDTH,
) -> None:
    """Write the mesh as an SVG file; cells in ``marked`` are shaded.

    Spectral-boundary edges are drawn with a heavier red stroke so the
    eigenvalue boundary is visible at a glance.  ``marked`` holds cell ids;
    a boolean or fractional entry, or an id out of range, raises
    :class:`~steklov.mesh.MeshError`.  A ``width`` (in pixels) that is a
    bool, not an integer or below 1 raises ValueError.  Nothing is written
    on either error.
    """
    if isinstance(width, bool) or not isinstance(width, numbers.Integral) or width < 1:
        raise ValueError(f"SVG width must be a positive integer, got {width!r}")
    Path(path).write_text(next(_svg_texts([(mesh, marked)], width)))
