"""Reference writers of the mesh files, as the package had them when every
mesh was formatted on its own.

``save_mesh`` dumps the whole payload with one ``json.dumps`` call, and
``mesh_to_svg`` formats every vertex and walks the cell cycles in Python.
The package's writers format each vertex once per run and build the cell
text from arrays; every file they write must equal these writers' bytes,
which ``test_properties.py`` checks over random refinement sequences.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from steklov.mesh import TAGS, PolygonalMesh


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
    # one json.dumps call runs the C encoder; json.dump streams through the
    # pure-Python one, several times slower for the same bytes
    with open(path, "w") as fh:
        fh.write(json.dumps(payload) + "\n")


def mesh_to_svg(
    mesh: PolygonalMesh,
    path: str | Path,
    marked: Sequence[int] | np.ndarray = (),
    width: int = 720,
) -> None:
    """Write the mesh as an SVG file; cells in ``marked`` are shaded.

    Spectral-boundary edges are drawn with a heavier red stroke so the
    eigenvalue boundary is visible at a glance.
    """
    verts = mesh.vertices
    xmin, ymin = verts.min(axis=0)
    xmax, ymax = verts.max(axis=0)
    span_x = max(xmax - xmin, 1e-30)
    span_y = max(ymax - ymin, 1e-30)
    margin = 0.04 * max(span_x, span_y)
    scale = width / (span_x + 2 * margin)
    height = int(round(scale * (span_y + 2 * margin)))

    # pixel coordinates of every vertex (SVG's y axis points down)
    px = scale * (verts[:, 0] - xmin + margin)
    py = scale * (ymax - verts[:, 1] + margin)
    points = [f"{x:.3f},{y:.3f}" for x, y in zip(px.tolist(), py.tolist())]

    shaded = np.isin(np.arange(mesh.n_cells), marked)
    stroke = max(0.5, 0.0012 * width)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for cyc, shade in zip(mesh.cycles(), shaded.tolist()):
        pts = " ".join(points[v] for v in cyc)
        fill = "#f4b8b8" if shade else "none"
        lines.append(
            f'<polygon points="{pts}" fill="{fill}" stroke="#333333" '
            f'stroke-width="{stroke:.2f}" stroke-linejoin="round"/>'
        )
    gamma0 = mesh.gamma0_edge_ids()
    for a, b in zip(mesh.edge_a[gamma0].tolist(), mesh.edge_b[gamma0].tolist()):
        lines.append(
            f'<line x1="{px[a]:.3f}" y1="{py[a]:.3f}" x2="{px[b]:.3f}" y2="{py[b]:.3f}" '
            f'stroke="#c62828" stroke-width="{2.5 * stroke:.2f}"/>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")
