"""Mesh construction, validation, the geometry kernel, quality report, JSON I/O."""

import json
from pathlib import Path

import numpy as np
import pytest

from steklov.adaptivity import refine_vem
from steklov.experiments import initial_mesh
from steklov.mesh import (
    MeshError,
    _segment_distance2,
    build_topology,
    load_mesh,
    mesh_to_svg,
    polygon_geometry,
    quality_report,
    save_mesh,
)

from refine_oracle import cycles, numbered_by_first_appearance, structurally_equal

SQUARE_VERTS = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def top_edge_rule(pa, pb):
    if abs(pa[1] - 1.0) < 1e-12 and abs(pb[1] - 1.0) < 1e-12:
        return "gamma0"
    return "gamma1"


def all_gamma0(pa, pb):
    return "gamma0"


def two_triangle_square():
    return build_topology(SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]], top_edge_rule)


def edge_between(mesh, i, j):
    (eid,) = np.flatnonzero(
        ((mesh.edge_a == i) & (mesh.edge_b == j)) | ((mesh.edge_a == j) & (mesh.edge_b == i))
    )
    return eid


def test_two_triangle_square_topology():
    mesh = two_triangle_square()
    assert mesh.n_vertices == 4
    assert mesh.n_cells == 2
    assert mesh.n_edges == 5
    assert list(mesh.cell_ptr) == [0, 3, 6]

    (diag,) = np.flatnonzero(mesh.edge_right >= 0)
    assert {int(mesh.edge_a[diag]), int(mesh.edge_b[diag])} == {0, 2}
    assert not mesh.edge_gamma0[diag]
    assert {int(mesh.edge_left[diag]), int(mesh.edge_right[diag])} == {0, 1}
    # the left cell traverses the stored direction
    left_cycle = cycles(mesh)[mesh.edge_left[diag]]
    k = left_cycle.index(mesh.edge_a[diag])
    assert left_cycle[(k + 1) % 3] == mesh.edge_b[diag]

    assert list(mesh.gamma0_edge_ids()) == [edge_between(mesh, 2, 3)]
    assert list(mesh.gamma0_vertices()) == [2, 3]
    assert np.count_nonzero((mesh.edge_right < 0) & ~mesh.edge_gamma0) == 3


def test_cell_edges_follow_cycle_order():
    mesh = two_triangle_square()
    for cid, cyc in enumerate(cycles(mesh)):
        eids = mesh.cell_edges[mesh.cell_ptr[cid]:mesh.cell_ptr[cid + 1]]
        assert len(eids) == len(cyc)
        for k, eid in enumerate(eids):
            a, b = cyc[k], cyc[(k + 1) % len(cyc)]
            assert {int(mesh.edge_a[eid]), int(mesh.edge_b[eid])} == {a, b}


def test_clockwise_cell_is_reversed():
    mesh = build_topology(SQUARE_VERTS, [[0, 2, 1], [0, 2, 3]], top_edge_rule)
    assert np.all(quality_report(mesh).areas > 0.0)
    assert sorted(cycles(mesh)[0]) == [0, 1, 2]


def test_explicit_tag_map_and_string_tags():
    tags = {(0, 1): "gamma1", (1, 2): "gamma1", (2, 3): "gamma0", (3, 0): "gamma1"}
    mesh = build_topology(SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]], tags)
    assert list(np.flatnonzero(mesh.edge_gamma0)) == [edge_between(mesh, 2, 3)]


def test_hanging_vertex_cycle_is_accepted():
    # pentagon with a collinear vertex in the middle of its top side
    verts = SQUARE_VERTS + [[0.5, 1.0]]
    mesh = build_topology(verts, [[0, 1, 2, 4, 3]], top_edge_rule)
    assert mesh.n_cells == 1
    assert abs(quality_report(mesh).areas[0] - 1.0) < 1e-15
    assert len(mesh.gamma0_edge_ids()) == 2


SQUARE_TAGS = {(0, 1): "gamma1", (1, 2): "gamma1", (2, 3): "gamma0", (3, 0): "gamma1"}


def test_validation_errors():
    cases = [
        # repeated vertex in a cycle
        (SQUARE_VERTS, [[0, 1, 1, 2]], top_edge_rule, "repeats a vertex"),
        # vertex index out of range
        (SQUARE_VERTS, [[0, 1, 7]], top_edge_rule, "out of range"),
        # degenerate (collinear) cell
        ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0, 1, 2]], all_gamma0, "degenerate"),
        # bowtie self-intersection (asymmetric so its signed area is nonzero)
        ([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[0, 1, 2, 3]], all_gamma0,
         "not a simple polygon"),
        # fewer than three vertices
        (SQUARE_VERTS, [[0, 1]], all_gamma0, "at least 3"),
        # no cells at all
        (SQUARE_VERTS, [], all_gamma0, "no cells"),
        # bad vertex array shape
        ([[0.0, 0.0, 0.0]], [[0, 0, 0]], all_gamma0, "shape"),
        # non-finite coordinates
        ([[0.0, 0.0], [1.0, np.inf], [0.0, 1.0]], [[0, 1, 2]], all_gamma0, "finite"),
        ([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]], [[0, 1, 2]], all_gamma0, "finite"),
        # finite coordinates whose area overflows: named, where they used to
        # pass with a nan area or be called degenerate when diam * diam overflowed
        ([[0.0, 0.0], [1.0, 0.0], [1e308, 1e308]], [[0, 1, 2]], all_gamma0,
         "cell 0 is too large: its area or diameter is not finite"),
        ([[0.0, 0.0], [1.0, 0.0], [1e200, 1e200]], [[0, 1, 2]], all_gamma0,
         "cell 0 is too large: its area or diameter is not finite"),
        # coordinates that are strings or booleans, not numbers
        ([[0, 0], ["1", 0], [1, 1], [0, 1]], [[0, 1, 2, 3]], all_gamma0, "hold numbers"),
        ([[False, False], [True, False], [True, True], [False, True]], [[0, 1, 2, 3]], all_gamma0,
         "hold numbers"),
        # booleans among numbers: named, not read as 0 or 1
        ([[0, 0], [True, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]], all_gamma0,
         "vertex 1 has a boolean coordinate"),
        ([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, np.True_]], [[0, 1, 2, 3]], all_gamma0,
         "vertex 3 has a boolean coordinate"),
        (SQUARE_VERTS, [[0, True, 2, 3]], top_edge_rule, "cell 0 has a boolean vertex index"),
        (SQUARE_VERTS, [[0, 1, 2], [0, 2, 3, np.True_], [True, 2, 3]], top_edge_rule,
         "cell 1 has a boolean vertex index"),
        # fractional or non-finite vertex index: named, not truncated
        (SQUARE_VERTS, [[0, 1, 2], [0, 2.5, 3]], top_edge_rule, "cell 1 has a vertex index that is not an integer"),
        (SQUARE_VERTS, [[0, 1.7, 2], [0, 2, 3]], top_edge_rule, "cell 0 has a vertex index that is not an integer"),
        (SQUARE_VERTS, [[0, 1, 2], [0, 2, np.nan]], top_edge_rule, "cell 1 has a vertex index that is not an integer"),
        # entries that are not numbers at all
        (SQUARE_VERTS, [[0, 1, 2], [0, 2, "3"]], top_edge_rule, "sequences of vertex indices"),
        (SQUARE_VERTS, [[0, 1, 2], 5], top_edge_rule, "sequences of vertex indices"),
        # a vertex no cell uses: named, lowest first
        (SQUARE_VERTS + [[5.0, 5.0]], [[0, 1, 2, 3]], top_edge_rule, "vertex 4 is not used by any cell"),
        (SQUARE_VERTS + [[2.0, 0.0], [2.0, 1.0]], [[0, 1, 2]], top_edge_rule, "vertex 3 is not used by any cell"),
        # vertex data numpy cannot convert: ragged or non-numeric
        ([[0.0, 0.0], [1.0]], [[0, 1, 2]], all_gamma0, r"vertex array must have shape \(n, 2\)"),
        ([[0.0, "a"], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]], all_gamma0, r"vertex array must have shape \(n, 2\)"),
        # a tag map key that is not a boundary edge: the diagonal of one
        # square cell, the interior edge of two triangles, a pair no cell has
        (SQUARE_VERTS, [[0, 1, 2, 3]], {**SQUARE_TAGS, (2, 0): "gamma0"},
         r"tagged edge \(0, 2\) is not a boundary edge"),
        (SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]], {**SQUARE_TAGS, (0, 2): "gamma1"},
         r"tagged edge \(0, 2\) is not a boundary edge"),
        (SQUARE_VERTS, [[0, 1, 2, 3]], {**SQUARE_TAGS, (7, 5): "gamma1", (1, 3): "gamma1"},
         r"tagged edge \(1, 3\) is not a boundary edge"),
        # two keys naming one edge in opposite directions: refused, not the
        # last one kept
        (SQUARE_VERTS, [[0, 1, 2, 3]], {**SQUARE_TAGS, (1, 0): "gamma0"},
         r"tag map keys \(0, 1\) and \(1, 0\) both name edge \(0, 1\)"),
        (SQUARE_VERTS, [[0, 1, 2, 3]], {(3, 2): "gamma0", **SQUARE_TAGS},
         r"tag map keys \(3, 2\) and \(2, 3\) both name edge \(2, 3\)"),
    ]
    for verts, cells, tags, fragment in cases:
        with pytest.raises(MeshError, match=fragment):
            build_topology(verts, cells, tags)


def test_self_intersection_names_first_edge_pair_and_lowest_cell():
    # three 12-gons on disjoint circles: cell 0 is simple, cell 1 swaps the
    # vertices at cycle positions 6 and 7, cell 2 those at 3 and 4, so
    # edges (5,6)/(7,8) cross in cell 1 and (2,3)/(4,5) in cell 2
    ring = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    circle = np.column_stack([np.cos(ring), np.sin(ring)])
    verts = np.vstack([circle + [3.0 * k, 0.0] for k in range(3)])
    cells = [list(range(12 * k, 12 * k + 12)) for k in range(3)]
    cells[1][6], cells[1][7] = cells[1][7], cells[1][6]
    cells[2][3], cells[2][4] = cells[2][4], cells[2][3]
    with pytest.raises(
        MeshError,
        match=r"cell 2 is not a simple polygon: edges \(2,3\) and \(4,5\) of its cycle intersect",
    ):
        build_topology(verts, cells, all_gamma0)
    # with cell 2 repaired, the next offending cell and pair are named
    cells[2][3], cells[2][4] = cells[2][4], cells[2][3]
    with pytest.raises(MeshError, match=r"cell 1 .* edges \(5,6\) and \(7,8\)"):
        build_topology(verts, cells, all_gamma0)


def test_compressed_row_input_matches_cycle_list():
    # cells come as cycles only: a list of lists or an (m, n) array of them
    cells = [[0, 2, 1], [0, 2, 3]]  # the first is clockwise and gets reversed
    stacked = np.array(cells)
    from_list = build_topology(SQUARE_VERTS, cells, top_edge_rule)
    from_array = build_topology(SQUARE_VERTS, stacked, top_edge_rule)
    assert structurally_equal(from_array, from_list)
    assert np.array_equal(from_array.cell_edges, from_list.cell_edges)
    # the caller's cycles are copied, not reversed or frozen in place
    assert cells == [[0, 2, 1], [0, 2, 3]]
    assert stacked.tolist() == cells and stacked.flags.writeable
    # integral floats are indices
    assert structurally_equal(build_topology(SQUARE_VERTS, stacked.astype(float), top_edge_rule), from_list)
    # the mesh's own compressed-row cells, read back as cycles, give the same mesh
    again = build_topology(from_list.vertices, cycles(from_list), top_edge_rule)
    assert structurally_equal(again, from_list)
    assert np.array_equal(again.cell_edges, from_list.cell_edges)


def test_caller_vertex_array_is_copied():
    # an array that needs no conversion is still copied: the mesh freezes its
    # own vertices, never the caller's
    verts = np.array(SQUARE_VERTS)
    mesh = build_topology(verts, [[0, 1, 2], [0, 2, 3]], top_edge_rule)
    assert verts.flags.writeable and verts.tolist() == SQUARE_VERTS
    assert not np.shares_memory(verts, mesh.vertices)


def test_non_manifold_edge_rejected():
    verts = SQUARE_VERTS + [[0.5, 0.5], [2.0, 0.5]]
    cells = [[0, 1, 4], [1, 2, 4], [0, 4, 5]]  # edge (0, 4) or (1, 4) shared 3 times
    cells = [[0, 1, 4], [0, 4, 3], [0, 5, 4]]
    with pytest.raises(MeshError, match="more than two cells"):
        build_topology(verts, cells, all_gamma0)
    # two such edges: the one of lowest vertex pair is named, not the first reached
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 5.0], [1.0, 5.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0],
             [0.5, 6.0], [0.5, 4.0], [0.5, 7.0]]
    cells = [[2, 3, 7], [2, 3, 8], [2, 3, 9], [0, 1, 4], [0, 1, 5], [0, 1, 6]]
    with pytest.raises(MeshError, match=r"^edge \(0, 1\) is shared by more than two cells$"):
        build_topology(verts, cells, all_gamma0)


def test_same_direction_traversal_rejected():
    # two counterclockwise triangles on the same side of their shared edge:
    # both traverse (0, 1) left to right, which no cycle reversal can repair
    verts = [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 2.0]]
    with pytest.raises(MeshError, match="same direction"):
        build_topology(verts, [[0, 1, 2], [0, 1, 3]], all_gamma0)
    # the same pair again at x + 10, reached first: the lower edge (0, 1) is named
    verts += [[x + 10.0, y] for x, y in verts]
    with pytest.raises(MeshError, match=r"^edge \(0, 1\) traversed in the same direction by cells 2 and 3:"):
        build_topology(verts, [[4, 5, 6], [4, 5, 7], [0, 1, 2], [0, 1, 3]], all_gamma0)


def test_untagged_boundary_edge_rejected():
    # (1, 2) comes first in edge order, but the lowest untagged pair is named
    with pytest.raises(MeshError, match=r"untagged boundary edge \(0, 3\)"):
        build_topology(SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]], {(0, 1): "gamma0", (2, 3): "gamma1"})


def test_interior_tag_on_boundary_rejected():
    tags = {(0, 1): "interior", (1, 2): "gamma0", (2, 3): "gamma0", (3, 0): "gamma0"}
    with pytest.raises(MeshError, match="tagged as interior"):
        build_topology(SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]], tags)


def test_unknown_tag_rejected():
    # (1, 2) comes first in edge order, but the lowest pair is named
    tags = {(0, 1): "gamma0", (1, 2): "neumann", (2, 3): "gamma0", (3, 0): "dirichlet"}
    with pytest.raises(MeshError, match=r"unknown boundary tag 'dirichlet' on edge \(0, 3\)"):
        build_topology(SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]], tags)


def test_empty_spectral_boundary_rejected():
    def gamma1_only(pa, pb):
        return "gamma1"

    with pytest.raises(MeshError, match="spectral boundary is empty"):
        build_topology(SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]], gamma1_only)


# unit squares at x in [0, 1] and [2, 3] that share no vertex; only the left
# one has gamma0, its top edge
TWO_SQUARES = {
    "vertices": SQUARE_VERTS + [[2.0, 0.0], [3.0, 0.0], [3.0, 1.0], [2.0, 1.0]],
    "cells": [[0, 1, 2, 3], [4, 5, 6, 7]],
    "boundary": [
        {"edge": [a, b], "tag": "gamma0" if (a, b) == (2, 3) else "gamma1"}
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
    ],
}


def test_disconnected_mesh_rejected():
    tags = {tuple(item["edge"]): item["tag"] for item in TWO_SQUARES["boundary"]}
    with pytest.raises(MeshError, match="^mesh is disconnected: vertex 4 is not connected to vertex 0$"):
        build_topology(TWO_SQUARES["vertices"], TWO_SQUARES["cells"], tags)

    # the lowest vertex outside vertex 0's part is named
    interleaved = [v for pair in zip(TWO_SQUARES["vertices"][:4], TWO_SQUARES["vertices"][4:]) for v in pair]
    with pytest.raises(MeshError, match="vertex 1 is not connected to vertex 0"):
        build_topology(interleaved, [[0, 2, 4, 6], [1, 3, 5, 7]], all_gamma0)

    # squares that share only a corner are connected, as in the stiffness graph
    corner = SQUARE_VERTS + [[2.0, 1.0], [2.0, 2.0], [1.0, 2.0]]
    assert build_topology(corner, [[0, 1, 2, 3], [2, 4, 5, 6]], all_gamma0).n_cells == 2


def test_known_geometry_values():
    mesh = build_topology(SQUARE_VERTS, [[0, 1, 2, 3]], top_edge_rule)
    rep = quality_report(mesh)
    assert abs(rep.areas[0] - 1.0) < 1e-15
    assert abs(rep.diameters[0] - np.sqrt(2.0)) < 1e-15

    quads = np.array([SQUARE_VERTS, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-0.5, 0.5]]])
    x, y = quads[..., 0], quads[..., 1]
    shape = polygon_geometry(x, y)
    assert np.allclose(shape.origin_x[:, None] + shape.x, x, atol=1e-15)
    assert np.allclose(shape.origin_y[:, None] + shape.y, y, atol=1e-15)
    assert np.array_equal(shape.next_x, np.roll(shape.x, -1, axis=1))
    cx, cy = shape.centroid
    assert np.allclose(shape.origin_x + cx, [0.5, 1.0 / 6.0], atol=1e-15)
    assert np.allclose(shape.origin_y + cy, [0.5, 7.0 / 18.0], atol=1e-15)
    assert np.allclose(shape.area, [1.0, 0.75], atol=1e-15)
    assert np.allclose(shape.diameter, [np.sqrt(2.0), np.sqrt(2.5)], atol=1e-15)
    assert np.allclose(shape.gap, [1.0, np.sqrt(0.5)], atol=1e-15)
    # the ball about the square's centre reaches its edges at distance 0.5
    assert np.allclose(shape.kernel_radius(cx, cy)[:1], [0.5], atol=1e-15)
    # a clockwise cycle has negative area and the same centroid
    cw = polygon_geometry(x[:, ::-1], y[:, ::-1])
    assert np.allclose(cw.area, -shape.area, atol=1e-15)
    assert np.allclose(cw.centroid, shape.centroid, atol=1e-15)


def test_geometry_is_derived_once_and_on_demand():
    shape = polygon_geometry(np.array([[0.0, 1.0, 1.0, 0.0]]), np.array([[0.0, 0.0, 1.0, 1.0]]))
    assert not {"diameter", "gap", "centroid"} & set(vars(shape))
    assert shape.diameter is shape.diameter
    assert shape.gap is shape.gap
    assert shape.centroid is shape.centroid


def test_centroid_cancellation_regression():
    # a tiny cell far from the origin: raw shoelace moments in global
    # coordinates lose ~10 digits here and used to push the centroid outside
    # the cell; local-coordinate evaluation must stay at machine accuracy.
    # Reference values come from exact rational arithmetic on the stored
    # (already rounded) coordinates.
    from fractions import Fraction

    side = 1e-8
    base = np.array([0.5, 0.5])
    pts = base + side * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    fx = [Fraction(v) for v in pts[:, 0]]
    fy = [Fraction(v) for v in pts[:, 1]]
    cross = [fx[i] * fy[(i + 1) % 4] - fx[(i + 1) % 4] * fy[i] for i in range(4)]
    exact_area = sum(cross) / 2
    exact_cx = sum((fx[i] + fx[(i + 1) % 4]) * cross[i] for i in range(4)) / (6 * exact_area)
    exact_cy = sum((fy[i] + fy[(i + 1) % 4]) * cross[i] for i in range(4)) / (6 * exact_area)

    shape = polygon_geometry(pts[None, :, 0], pts[None, :, 1])
    assert abs(shape.area[0] - float(exact_area)) < 1e-12 * float(exact_area)
    # the only admissible centroid error is rounding the result itself into a
    # double (a few ulp at coordinate scale 0.5); the old global-coordinate
    # code was off by about 25 cell diameters here
    cx, cy = shape.centroid
    assert abs(shape.origin_x[0] + cx[0] - float(exact_cx)) < 5e-16
    assert abs(shape.origin_y[0] + cy[0] - float(exact_cy)) < 5e-16


def test_quality_report_flags_stretched_cells():
    mesh = build_topology(SQUARE_VERTS, [[0, 1, 2, 3]], top_edge_rule)
    rep = quality_report(mesh)
    assert rep.star_flags.dtype == rep.gap_flags.dtype == np.int64
    assert rep.star_flags.size == rep.gap_flags.size == 0
    assert abs(rep.diameters[0] - np.sqrt(2.0)) < 1e-15
    assert abs(rep.areas[0] - 1.0) < 1e-15
    assert abs(rep.inscribed_radii[0] - 0.5) < 1e-15
    assert abs(rep.min_vertex_gaps[0] - 1.0) < 1e-15
    assert rep.gamma_estimate > 0.3

    thin = build_topology(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 0.01], [0.0, 0.01]], [[0, 1, 2, 3]], all_gamma0
    )
    rep = quality_report(thin)
    assert rep.star_flags.tolist() == [0]
    assert rep.gap_flags.tolist() == [0]


def test_centroid_outside_the_cell_has_radius_zero():
    # the centroid (2, 13/12) of this chevron lies above its reflex vertex
    # (2, 1), outside the cell: no ball about it fits, although its distance
    # to the nearest edge segment is 0.0589
    chevron = build_topology([[0, 0], [4, 0], [4, 3], [2, 1], [0, 3]], [[0, 1, 2, 3, 4]], all_gamma0)
    rep = quality_report(chevron)
    assert rep.inscribed_radii.tolist() == [0.0]
    assert rep.gamma_estimate == 0.0
    assert rep.star_flags.tolist() == [0]
    with pytest.raises(MeshError, match="cell 0 is not star-shaped"):
        refine_vem(chevron, [0])


def test_radius_is_the_distance_to_the_nearest_edge_on_convex_cells():
    # refine_vem children and their hanging-node neighbours are convex, so
    # the distance to the nearest edge line is that to the nearest segment
    mesh = initial_mesh("notched")
    for _ in range(3):
        mesh = refine_vem(mesh, np.flatnonzero(np.arange(mesh.n_cells) % 3 == 0))
    rep = quality_report(mesh)
    for c, cyc in enumerate(cycles(mesh)):
        pts = mesh.vertices[cyc]
        shape = polygon_geometry(pts[None, :, 0], pts[None, :, 1])
        (cx,), (cy,) = shape.centroid
        x, y = shape.x[0], shape.y[0]
        dist2 = _segment_distance2(cx, cy, x, y, shape.next_x[0], shape.next_y[0])
        assert abs(rep.inscribed_radii[c] - np.sqrt(dist2.min())) <= 1e-12 * rep.inscribed_radii[c]


def test_edge_arrays_mirror_edge_list():
    # the edge arrays rebuilt from the cycles alone, in first-traversal order
    mesh = build_topology(SQUARE_VERTS + [[0.5, 0.5]], [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]],
                          top_edge_rule)
    assert numbered_by_first_appearance(mesh)
    assert mesh.edge_gamma0.dtype == bool
    assert np.count_nonzero(mesh.edge_gamma0[mesh.edge_right < 0]) == 1
    assert not np.any(mesh.edge_gamma0[mesh.edge_right >= 0])
    for arr in vars(mesh).values():
        assert not arr.flags.writeable


def test_save_load_round_trip(tmp_path):
    from steklov.experiments import initial_mesh

    mesh = initial_mesh("square")
    path = tmp_path / "mesh.json"
    save_mesh(mesh, path)
    again = load_mesh(path)
    assert structurally_equal(mesh, again)


def test_committed_mesh_files_are_written_again_byte_for_byte(tmp_path):
    # step 2 of `steklov run --test notched --method adaptive-vem --steps 3`
    # and its unmarked SVG, as an earlier version of the writers left them:
    # the file format holds across versions, not only within one
    data = Path(__file__).parent / "data"
    mesh = load_mesh(data / "notched_vem_step_2.json")
    for suffix, write in ((".json", save_mesh), (".svg", mesh_to_svg)):
        write(mesh, tmp_path / f"mesh{suffix}")
        expected = (data / f"notched_vem_step_2{suffix}").read_bytes()
        assert (tmp_path / f"mesh{suffix}").read_bytes() == expected, suffix


def test_load_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MeshError, match="malformed"):
        load_mesh(bad)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"vertices": [[0, 0]]}))
    with pytest.raises(MeshError, match="missing field"):
        load_mesh(missing)

    # valid JSON, but not an object: a list, a number, null
    for text in ("[1, 2]", "3", "null"):
        missing.write_text(text)
        with pytest.raises(MeshError, match="must hold a JSON object with fields 'vertices', 'cells' and"):
            load_mesh(missing)

    good_boundary = [
        {"edge": [0, 1], "tag": "gamma1"},
        {"edge": [1, 2], "tag": "gamma1"},
        {"edge": [2, 3], "tag": "gamma0"},
        {"edge": [3, 0], "tag": "gamma1"},
    ]
    cases = [
        # a boundary item without its vertex pair
        ([[0, 1, 2, 3]], [{"tag": "gamma0"}] + good_boundary[1:], "boundary item 0"),
        # a boundary item that is not an object
        ([[0, 1, 2, 3]], good_boundary[:3] + [[3, 0]], "boundary item 3"),
        # a boundary item without its tag
        ([[0, 1, 2, 3]], good_boundary[:1] + [{"edge": [1, 2]}] + good_boundary[2:],
         "boundary item 1"),
        # a fractional vertex index must not be truncated to an integer
        ([[0, 1, 2, 3], [0, 1.7, 2]], good_boundary, "cell 1"),
        # a cell that is not a list
        ([[0, 1, 2, 3], 5], good_boundary, "cell 1"),
        # fields that are not lists at all
        (5, good_boundary, "field 'cells' .* must be a list"),
        ([[0, 1, 2, 3]], 7, "field 'boundary' .* must be a list"),
        # an edge listed twice, in either direction, must not let the last tag win
        ([[0, 1, 2, 3]], [{"edge": [1, 0], "tag": "gamma0"}] + good_boundary,
         r"boundary items 0 and 1 .* both tag edge \[0, 1\]"),
        ([[0, 1, 2, 3]], good_boundary + [{"edge": [2, 3], "tag": "gamma0"}],
         r"boundary items 2 and 4 .* both tag edge \[2, 3\]"),
        # a listed edge that no cell has on the boundary
        ([[0, 1, 2, 3]], good_boundary + [{"edge": [0, 2], "tag": "gamma1"}],
         r"tagged edge \(0, 2\) is not a boundary edge"),
    ]
    for k, (cells, boundary, fragment) in enumerate(cases):
        path = tmp_path / f"case_{k}.json"
        path.write_text(json.dumps({"vertices": SQUARE_VERTS, "cells": cells, "boundary": boundary}))
        with pytest.raises(MeshError, match=fragment):
            load_mesh(path)

    # vertex entries that are not JSON numbers (booleans included) are named
    vertex_cases = [
        (SQUARE_VERTS[:1] + [["1", 0.0]] + SQUARE_VERTS[2:], "vertex 1 .* not a list of numbers"),
        (SQUARE_VERTS[:3] + [[True, 0.0]], "vertex 3 .* not a list of numbers"),
        (SQUARE_VERTS[:2] + [[1.0, None]] + SQUARE_VERTS[3:], "vertex 2 .* not a list of numbers"),
        (5, "field 'vertices' .* must be a list"),
        (SQUARE_VERTS[:3] + [[float("nan"), 1.0]], "finite"),
    ]
    for k, (verts, fragment) in enumerate(vertex_cases):
        path = tmp_path / f"vertex_case_{k}.json"
        path.write_text(json.dumps({"vertices": verts, "cells": [[0, 1, 2, 3]], "boundary": good_boundary}))
        with pytest.raises(MeshError, match=fragment):
            load_mesh(path)


def test_structurally_equal_detects_changes():
    mesh = two_triangle_square()
    other = build_topology(SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]], top_edge_rule)
    assert structurally_equal(mesh, other)
    moved = build_topology(
        [[0.0, 0.0], [1.1, 0.0], [1.0, 1.0], [0.0, 1.0]],
        [[0, 1, 2], [0, 2, 3]],
        top_edge_rule,
    )
    assert not structurally_equal(mesh, moved)
