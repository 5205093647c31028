"""Mesh construction, validation, geometry helpers, quality report, JSON I/O."""

import json

import numpy as np
import pytest

from steklov.mesh import (
    TAGS,
    BoundaryTag,
    MeshError,
    build_topology,
    element_area,
    element_centroid,
    element_diameter,
    load_mesh,
    polygon_centroid,
    polygon_diameter,
    quality_report,
    save_mesh,
    signed_area,
)

SQUARE_VERTS = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def top_edge_rule(pa, pb):
    if abs(pa[1] - 1.0) < 1e-12 and abs(pb[1] - 1.0) < 1e-12:
        return BoundaryTag.GAMMA0
    return BoundaryTag.GAMMA1


def all_gamma0(pa, pb):
    return BoundaryTag.GAMMA0


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
    assert TAGS[mesh.edge_tag[diag]] is BoundaryTag.INTERIOR
    assert {int(mesh.edge_left[diag]), int(mesh.edge_right[diag])} == {0, 1}
    # the left cell traverses the stored direction
    left_cycle = list(mesh.cell(mesh.edge_left[diag]))
    k = left_cycle.index(mesh.edge_a[diag])
    assert left_cycle[(k + 1) % 3] == mesh.edge_b[diag]

    assert list(mesh.gamma0_edge_ids()) == [edge_between(mesh, 2, 3)]
    assert list(mesh.gamma0_vertices()) == [2, 3]
    assert np.count_nonzero(mesh.edge_tag == TAGS.index(BoundaryTag.GAMMA1)) == 3


def test_cell_edges_follow_cycle_order():
    mesh = two_triangle_square()
    for cid, cyc in enumerate(mesh.cycles()):
        eids = mesh.cell_edges[mesh.cell_ptr[cid]:mesh.cell_ptr[cid + 1]]
        assert len(eids) == len(cyc)
        for k, eid in enumerate(eids):
            a, b = cyc[k], cyc[(k + 1) % len(cyc)]
            assert {int(mesh.edge_a[eid]), int(mesh.edge_b[eid])} == {a, b}


def test_clockwise_cell_is_reversed():
    mesh = build_topology(SQUARE_VERTS, [[0, 2, 1], [0, 2, 3]], top_edge_rule)
    for cid in range(mesh.n_cells):
        assert element_area(mesh, cid) > 0.0
    assert sorted(mesh.cell(0)) == [0, 1, 2]


def test_explicit_tag_map_and_string_tags():
    tags = {(0, 1): "gamma1", (1, 2): "gamma1", (2, 3): "gamma0", (3, 0): BoundaryTag.GAMMA1}
    mesh = build_topology(SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]], tags)
    assert TAGS[mesh.edge_tag[edge_between(mesh, 2, 3)]] is BoundaryTag.GAMMA0


def test_hanging_vertex_cycle_is_accepted():
    # pentagon with a collinear vertex in the middle of its top side
    verts = SQUARE_VERTS + [[0.5, 1.0]]
    mesh = build_topology(verts, [[0, 1, 2, 4, 3]], top_edge_rule)
    assert mesh.n_cells == 1
    assert abs(element_area(mesh, 0) - 1.0) < 1e-15
    assert len(mesh.gamma0_edge_ids()) == 2


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
    ]
    for verts, cells, tags, fragment in cases:
        with pytest.raises(MeshError, match=fragment):
            build_topology(verts, cells, tags)


def test_non_manifold_edge_rejected():
    verts = SQUARE_VERTS + [[0.5, 0.5], [2.0, 0.5]]
    cells = [[0, 1, 4], [1, 2, 4], [0, 4, 5]]  # edge (0, 4) or (1, 4) shared 3 times
    cells = [[0, 1, 4], [0, 4, 3], [0, 5, 4]]
    with pytest.raises(MeshError, match="more than two cells"):
        build_topology(verts, cells, all_gamma0)


def test_same_direction_traversal_rejected():
    # two counterclockwise triangles on the same side of their shared edge:
    # both traverse (0, 1) left to right, which no cycle reversal can repair
    verts = [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 2.0]]
    with pytest.raises(MeshError, match="same direction"):
        build_topology(verts, [[0, 1, 2], [0, 1, 3]], all_gamma0)


def test_untagged_boundary_edge_rejected():
    with pytest.raises(MeshError, match="untagged boundary edge"):
        build_topology(SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]], {(0, 1): "gamma0"})


def test_interior_tag_on_boundary_rejected():
    tags = {(0, 1): "interior", (1, 2): "gamma0", (2, 3): "gamma0", (3, 0): "gamma0"}
    with pytest.raises(MeshError, match="tagged as interior"):
        build_topology(SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]], tags)


def test_unknown_tag_rejected():
    tags = {(0, 1): "dirichlet", (1, 2): "gamma0", (2, 3): "gamma0", (3, 0): "gamma0"}
    with pytest.raises(MeshError, match="unknown boundary tag"):
        build_topology(SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]], tags)


def test_empty_spectral_boundary_rejected():
    def gamma1_only(pa, pb):
        return BoundaryTag.GAMMA1

    with pytest.raises(MeshError, match="spectral boundary is empty"):
        build_topology(SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]], gamma1_only)


def test_known_geometry_values():
    mesh = build_topology(SQUARE_VERTS, [[0, 1, 2, 3]], top_edge_rule)
    assert abs(element_area(mesh, 0) - 1.0) < 1e-15
    assert np.allclose(element_centroid(mesh, 0), [0.5, 0.5], atol=1e-15)
    assert abs(element_diameter(mesh, 0) - np.sqrt(2.0)) < 1e-15

    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert abs(signed_area(tri) - 0.5) < 1e-15
    assert np.allclose(polygon_centroid(tri), [1.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert abs(polygon_diameter(tri) - np.sqrt(2.0)) < 1e-15


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

    area = signed_area(pts)
    assert abs(area - float(exact_area)) < 1e-12 * float(exact_area)
    # the only admissible centroid error is rounding the result itself into a
    # double (a few ulp at coordinate scale 0.5); the old global-coordinate
    # code was off by about 25 cell diameters here
    c = polygon_centroid(pts)
    assert abs(c[0] - float(exact_cx)) < 5e-16
    assert abs(c[1] - float(exact_cy)) < 5e-16


def test_quality_report_flags_stretched_cells():
    mesh = build_topology(SQUARE_VERTS, [[0, 1, 2, 3]], top_edge_rule)
    rep = quality_report(mesh)
    assert rep.star_flags == ()
    assert rep.gap_flags == ()
    assert abs(rep.diameters[0] - np.sqrt(2.0)) < 1e-15
    assert abs(rep.areas[0] - 1.0) < 1e-15
    assert abs(rep.inscribed_radii[0] - 0.5) < 1e-15
    assert abs(rep.min_vertex_gaps[0] - 1.0) < 1e-15
    assert rep.gamma_estimate > 0.3

    thin = build_topology(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 0.01], [0.0, 0.01]], [[0, 1, 2, 3]], all_gamma0
    )
    rep = quality_report(thin)
    assert rep.star_flags == (0,)
    assert rep.gap_flags == (0,)


def test_edge_arrays_mirror_edge_list():
    # an edge list rebuilt from the cycles alone, in first-traversal order
    mesh = build_topology(SQUARE_VERTS + [[0.5, 0.5]], [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]],
                          top_edge_rule)
    expected = {}
    for cid, cyc in enumerate(mesh.cycles()):
        for k, a in enumerate(cyc):
            b = cyc[(k + 1) % len(cyc)]
            key = (min(a, b), max(a, b))
            if key in expected:
                expected[key][3] = cid
            else:
                expected[key] = [a, b, cid, -1]
    got = np.column_stack([mesh.edge_a, mesh.edge_b, mesh.edge_left, mesh.edge_right])
    assert got.tolist() == list(expected.values())
    boundary_tags = [TAGS[t] for t in mesh.edge_tag[mesh.edge_right < 0]]
    assert boundary_tags.count(BoundaryTag.GAMMA0) == 1
    assert all(TAGS[t] is BoundaryTag.INTERIOR for t in mesh.edge_tag[mesh.edge_right >= 0])
    for arr in vars(mesh).values():
        assert not arr.flags.writeable


def test_save_load_round_trip(tmp_path):
    from steklov.experiments import initial_mesh

    mesh = initial_mesh("square")
    path = tmp_path / "mesh.json"
    save_mesh(mesh, path)
    again = load_mesh(path)
    assert mesh.structurally_equal(again)


def test_load_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MeshError, match="malformed"):
        load_mesh(bad)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"vertices": [[0, 0]]}))
    with pytest.raises(MeshError, match="missing field"):
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
    ]
    for k, (cells, boundary, fragment) in enumerate(cases):
        path = tmp_path / f"case_{k}.json"
        path.write_text(json.dumps({"vertices": SQUARE_VERTS, "cells": cells, "boundary": boundary}))
        with pytest.raises(MeshError, match=fragment):
            load_mesh(path)


def test_structurally_equal_detects_changes():
    mesh = two_triangle_square()
    other = build_topology(SQUARE_VERTS, [[0, 1, 2], [0, 2, 3]], top_edge_rule)
    assert mesh.structurally_equal(other)
    moved = build_topology(
        [[0.0, 0.0], [1.1, 0.0], [1.0, 1.0], [0.0, 1.0]],
        [[0, 1, 2], [0, 2, 3]],
        top_edge_rule,
    )
    assert not mesh.structurally_equal(moved)
