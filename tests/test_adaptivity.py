"""Marking and refinement: polygon quad-split, bisection, uniform red split."""

import numpy as np
import pytest

from steklov.adaptivity import (
    MarkSet,
    mark,
    normalize_refinement_edges,
    refine_fem,
    refine_uniform,
    refine_vem,
)
from steklov.experiments import initial_mesh
from steklov.mesh import (
    TAGS,
    BoundaryTag,
    MeshError,
    build_topology,
    element_area,
    signed_area,
)


def top_edge_rule(pa, pb):
    if abs(pa[1] - 1.0) < 1e-12 and abs(pb[1] - 1.0) < 1e-12:
        return BoundaryTag.GAMMA0
    return BoundaryTag.GAMMA1


def total_area(mesh):
    return sum(element_area(mesh, c) for c in range(mesh.n_cells))


def min_triangle_angle(mesh):
    worst = np.inf
    for pts in mesh.vertices[mesh.cell_vertices.reshape(-1, 3)]:
        for k in range(3):
            u = pts[(k + 1) % 3] - pts[k]
            v = pts[(k + 2) % 3] - pts[k]
            cosang = (u @ v) / (np.hypot(*u) * np.hypot(*v))
            worst = min(worst, np.arccos(np.clip(cosang, -1.0, 1.0)))
    return worst


# ---------------------------------------------------------------------------
# marking


def test_mark_inclusive_threshold():
    inds = np.array([16.0, 4.0, 3.9, 0.1])
    # etas are 4, 2, ~1.97, ~0.3; threshold at 0.5 * 4 = 2 keeps cells 0 and 1
    ms = mark(inds, fraction=0.5)
    assert ms.cells == (0, 1)
    assert abs(ms.threshold - 2.0) < 1e-15
    # the peak cell is always kept, even at fraction 1
    assert mark(inds, fraction=1.0).cells == (0,)


def test_mark_validates_fraction():
    inds = np.array([1.0])
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            mark(inds, fraction=bad)


def test_mark_all_zero_warns_and_returns_empty():
    inds = np.zeros(2)
    with pytest.warns(UserWarning, match="nothing to mark"):
        ms = mark(inds)
    assert ms.cells == ()


# ---------------------------------------------------------------------------
# polygonal quad refinement


def test_refine_vem_single_square():
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    mesh = build_topology(verts, [[0, 1, 2, 3]], top_edge_rule)
    refined, record = refine_vem(mesh, [0])
    assert refined.n_cells == 4
    assert refined.n_vertices == 9  # 4 corners + 4 midpoints + centroid
    assert all(len(c) == 4 for c in refined.cycles())
    assert abs(total_area(refined) - 1.0) < 1e-12
    assert record.children == {0: (0, 1, 2, 3)}
    assert len(record.new_vertex_ids) == 5
    assert record.hanging_cells == ()
    # spectral boundary tag survives on both halves of the top edge
    assert len(refined.gamma0_edge_ids()) == 2


def test_refine_vem_neighbor_absorbs_hanging_vertices():
    mesh = initial_mesh("square")
    refined, record = refine_vem(mesh, [0])
    assert len(record.children[0]) == 3  # triangle splits into three quads
    assert len(record.hanging_cells) > 0
    for cid in record.hanging_cells:
        (child,) = record.children[cid]
        # the absorbed midpoints make the cell cycle longer
        assert len(refined.cell(child)) > 3
    assert abs(total_area(refined) - total_area(mesh)) < 1e-12


def test_refine_vem_shares_midpoints_between_marked_neighbors():
    mesh = initial_mesh("square")
    refined, record = refine_vem(mesh, [0, 1, 2, 3])
    # no duplicated vertices: every coordinate appears once
    coords = {tuple(np.round(p, 12)) for p in refined.vertices}
    assert len(coords) == refined.n_vertices
    assert abs(total_area(refined) - total_area(mesh)) < 1e-12


def test_refine_vem_empty_marks_returns_same_mesh():
    mesh = initial_mesh("square")
    same, record = refine_vem(mesh, [])
    assert same is mesh
    assert record.children == {}


def test_refine_vem_rejects_non_star_cell():
    verts = [[0.0, 0.0], [4.0, 0.0], [0.5, 0.5], [0.0, 4.0]]
    mesh = build_topology(verts, [[0, 1, 2, 3]], lambda a, b: BoundaryTag.GAMMA0)
    with pytest.raises(MeshError, match="star-shaped"):
        refine_vem(mesh, [0])


def test_refine_vem_rejects_out_of_range_marks():
    mesh = initial_mesh("square")
    with pytest.raises(MeshError, match="out of range"):
        refine_vem(mesh, [mesh.n_cells])
    with pytest.raises(MeshError, match="out of range"):
        refine_vem(mesh, [-1])


def test_refine_vem_deterministic():
    mesh = initial_mesh("square")
    a, _ = refine_vem(mesh, [3, 5, 11])
    b, _ = refine_vem(mesh, [3, 5, 11])
    assert a.structurally_equal(b)


def test_refine_vem_accepts_markset():
    mesh = initial_mesh("square")
    via_set, _ = refine_vem(mesh, MarkSet(cells=(2, 4), threshold=0.5))
    via_list, _ = refine_vem(mesh, [2, 4])
    assert via_set.structurally_equal(via_list)


# ---------------------------------------------------------------------------
# newest-vertex bisection


def test_refine_fem_children_follow_bisection_convention():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    mesh = build_topology(verts, [[1, 2, 0]], lambda a, b: BoundaryTag.GAMMA0)
    # bisection edge is (1, 2), the hypotenuse; its midpoint is vertex 3
    refined = refine_fem(mesh, [0])
    assert refined.n_cells == 2
    assert refined.n_vertices == 4
    assert np.allclose(refined.vertices[3], [0.5, 0.5])
    # each child lists its own next bisection edge first (one of the parent's
    # short legs) and ends with the new midpoint
    leading = set()
    for cyc in refined.cycles():
        assert cyc[2] == 3
        leading.add(frozenset((int(cyc[0]), int(cyc[1]))))
    assert leading == {frozenset((0, 1)), frozenset((0, 2))}
    assert abs(total_area(refined) - 0.5) < 1e-15


def test_refine_fem_closure_keeps_mesh_conforming():
    mesh = normalize_refinement_edges(initial_mesh("square"))
    refined = refine_fem(mesh, [0])
    # closure may split neighbours; conformity is checked by build_topology,
    # and every cell stays a triangle
    assert all(len(c) == 3 for c in refined.cycles())
    assert refined.n_cells > mesh.n_cells
    assert abs(total_area(refined) - total_area(mesh)) < 1e-12


def test_refine_fem_empty_marks_returns_same_mesh():
    mesh = normalize_refinement_edges(initial_mesh("square"))
    assert refine_fem(mesh, []) is mesh


def test_refine_fem_rejects_polygons():
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    quad = build_topology(verts, [[0, 1, 2, 3]], top_edge_rule)
    with pytest.raises(MeshError, match="triangular"):
        refine_fem(quad, [0])
    with pytest.raises(MeshError, match="triangular"):
        normalize_refinement_edges(quad)
    with pytest.raises(MeshError, match="triangular"):
        refine_uniform(quad)


def test_refine_fem_angles_stay_bounded():
    # newest-vertex bisection cycles through at most four similarity classes,
    # so ten refinement rounds must not degrade the minimum angle below half
    # of the initial one
    rng = np.random.default_rng(0)
    mesh = normalize_refinement_edges(initial_mesh("square"))
    initial_angle = min_triangle_angle(mesh)
    for _ in range(10):
        marked = rng.choice(mesh.n_cells, size=max(1, mesh.n_cells // 6), replace=False)
        mesh = refine_fem(mesh, marked.tolist())
    assert min_triangle_angle(mesh) >= 0.5 * initial_angle
    assert abs(total_area(mesh) - 1.0) < 1e-10


def test_refine_fem_preserves_boundary_tags():
    mesh = normalize_refinement_edges(initial_mesh("square"))
    refined = refine_fem(mesh, list(range(mesh.n_cells)))
    for eid in np.flatnonzero(refined.edge_right < 0):
        mid = 0.5 * (refined.vertices[refined.edge_a[eid]] + refined.vertices[refined.edge_b[eid]])
        tag = TAGS[refined.edge_tag[eid]]
        if abs(mid[1] - 1.0) < 1e-12:
            assert tag is BoundaryTag.GAMMA0
        else:
            assert tag is BoundaryTag.GAMMA1


# ---------------------------------------------------------------------------
# uniform red refinement


def test_refine_uniform_creates_four_similar_children():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    mesh = build_topology(verts, [[0, 1, 2]], lambda a, b: BoundaryTag.GAMMA0)
    refined = refine_uniform(mesh)
    assert refined.n_cells == 4
    assert refined.n_vertices == 6
    areas = [element_area(refined, c) for c in range(4)]
    assert np.allclose(areas, 0.125, atol=1e-15)
    # all children are similar to the parent: same angle set
    parent_angle = min_triangle_angle(mesh)
    assert abs(min_triangle_angle(refined) - parent_angle) < 1e-12


def test_refine_uniform_grows_geometrically():
    mesh = initial_mesh("square")
    n0 = mesh.n_cells
    for k in (1, 2):
        mesh = refine_uniform(mesh)
        assert mesh.n_cells == n0 * 4**k
    assert abs(total_area(mesh) - 1.0) < 1e-12
