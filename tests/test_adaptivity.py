"""Marking and refinement: polygon quad-split, bisection, uniform red split."""

import numpy as np
import pytest

from steklov.adaptivity import (
    mark,
    prolong,
    refine_fem,
    refine_uniform,
    refine_vem,
)
from steklov.experiments import initial_mesh
from steklov.mesh import (
    MeshError,
    _marked_cells,
    build_topology,
    quality_report,
)

from refine_oracle import cycles, structurally_equal


def top_edge_rule(pa, pb):
    if abs(pa[1] - 1.0) < 1e-12 and abs(pb[1] - 1.0) < 1e-12:
        return "gamma0"
    return "gamma1"


def total_area(mesh):
    return float(np.sum(quality_report(mesh).areas))


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
    assert ms.dtype == np.int64
    assert ms.tolist() == [0, 1]
    # the peak cell is always kept, even at fraction 1
    assert mark(inds, fraction=1.0).tolist() == [0]
    # ids come back ascending, whatever the order of the indicators
    assert mark(np.array([0.1, 16.0, 3.9, 4.0])).tolist() == [1, 3]


def test_mark_validates_fraction():
    inds = np.array([1.0])
    for bad in (0.0, -0.2, 1.5, float("nan")):
        with pytest.raises(ValueError, match="marking fraction must lie in"):
            mark(inds, fraction=bad)
    # True would otherwise run as fraction 1.0
    for bad in (True, False, "0.5", None):
        with pytest.raises(ValueError, match="marking fraction must be a number"):
            mark(inds, fraction=bad)
    assert mark(np.array([1.0, 0.5]), fraction=np.float64(0.5)).tolist() == [0, 1]


def test_mark_all_zero_warns_and_returns_empty():
    inds = np.zeros(2)
    with pytest.warns(UserWarning, match="nothing to mark"):
        ms = mark(inds)
    assert ms.dtype == np.int64 and ms.size == 0


@pytest.mark.parametrize(
    "inds, cell",
    [
        ([1.0, np.nan, 0.3], 1),
        ([-1.0, 0.5], 0),
        ([0.5, 2.0, np.inf, np.nan], 2),
        ([0.0, 0.0, -np.inf], 2),
        ([0.2, -1e-300], 1),
    ],
)
def test_mark_rejects_invalid_indicators(inds, cell):
    # a NaN or negative indicator used to give an empty mark set with a NaN
    # threshold, so the loop refined nothing and went on
    with pytest.raises(ValueError, match=f"cell {cell} has an invalid indicator"):
        mark(inds)


# ---------------------------------------------------------------------------
# polygonal quad refinement


def test_refine_vem_single_square():
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    mesh = build_topology(verts, [[0, 1, 2, 3]], top_edge_rule)
    refined = refine_vem(mesh, [0])
    assert refined.n_cells == 4
    assert refined.n_vertices == 9  # 4 corners + 4 midpoints + centroid
    assert all(len(c) == 4 for c in cycles(refined))
    assert abs(total_area(refined) - 1.0) < 1e-12
    # spectral boundary tag survives on both halves of the top edge
    assert len(refined.gamma0_edge_ids()) == 2


def test_refine_vem_neighbor_absorbs_hanging_vertices():
    mesh = initial_mesh("square")
    refined = refine_vem(mesh, [0])
    # the marked triangle splits into three quads, which come first; every
    # other cell keeps its place behind them
    assert refined.n_cells == mesh.n_cells + 2
    coarse, fine = cycles(mesh), cycles(refined)
    assert all(len(fine[k]) == 4 for k in range(3))
    quad_area = np.sum(quality_report(refined).areas[:3])
    assert abs(quad_area - quality_report(mesh).areas[0]) < 1e-12
    edges = mesh.cell_edges[: mesh.cell_ptr[1]]
    neighbors = set(mesh.edge_left[edges].tolist() + mesh.edge_right[edges].tolist()) - {0, -1}
    assert neighbors
    for cid in range(1, mesh.n_cells):
        # a neighbour absorbs the midpoint of the edge it shares as a hanging
        # vertex; the other cells are unchanged
        child = fine[cid + 2]
        assert len(child) == (4 if cid in neighbors else 3)
        assert set(coarse[cid]) <= set(child)
    assert abs(total_area(refined) - total_area(mesh)) < 1e-12


def test_refine_vem_shares_midpoints_between_marked_neighbors():
    mesh = initial_mesh("square")
    refined = refine_vem(mesh, [0, 1, 2, 3])
    # no duplicated vertices: every coordinate appears once
    coords = {tuple(np.round(p, 12)) for p in refined.vertices}
    assert len(coords) == refined.n_vertices
    assert abs(total_area(refined) - total_area(mesh)) < 1e-12


def test_refine_vem_empty_marks_returns_same_mesh():
    mesh = initial_mesh("square")
    assert refine_vem(mesh, []) is mesh


def test_refine_vem_rejects_non_star_cell():
    verts = [[0.0, 0.0], [4.0, 0.0], [0.5, 0.5], [0.0, 4.0]]
    mesh = build_topology(verts, [[0, 1, 2, 3]], lambda a, b: "gamma0")
    with pytest.raises(MeshError, match="star-shaped"):
        refine_vem(mesh, [0])

    # cell 0 is a non-star pentagon and cell 1 a non-star quadrilateral: the
    # quadrilaterals' vertex-count group is checked first, the lower cell is named
    verts = [[0.0, 0.0], [4.0, 0.0], [0.5, 0.5], [0.0, 4.0], [-0.5, 2.0],
             [8.0, 0.0], [7.5, 0.5], [8.0, 4.0]]
    cells = [[0, 1, 2, 3, 4], [1, 5, 7, 6]]
    mesh = build_topology(verts, cells, lambda a, b: "gamma0")
    with pytest.raises(MeshError, match="cell 0 is not star-shaped"):
        refine_vem(mesh, [0, 1])
    with pytest.raises(MeshError, match="cell 1 is not star-shaped"):
        refine_vem(mesh, [1])


def test_refine_vem_rejects_out_of_range_marks():
    mesh = initial_mesh("square")
    with pytest.raises(MeshError, match="out of range"):
        refine_vem(mesh, [mesh.n_cells])
    with pytest.raises(MeshError, match="out of range"):
        refine_vem(mesh, [-1])


def test_refine_vem_deterministic():
    mesh = initial_mesh("square")
    a = refine_vem(mesh, [3, 5, 11])
    b = refine_vem(mesh, [3, 5, 11])
    assert structurally_equal(a, b)


def test_refiners_accept_mark_output():
    mesh = initial_mesh("square")
    eta2 = np.zeros(mesh.n_cells)
    eta2[[2, 4]] = 1.0
    marks = mark(eta2)
    assert structurally_equal(refine_vem(mesh, marks), refine_vem(mesh, [4, 2]))
    # integral floats name cells, as they name vertices in build_topology
    assert structurally_equal(refine_vem(mesh, marks), refine_vem(mesh, np.array([4.0, 2.0])))
    assert structurally_equal(refine_fem(mesh, marks), refine_fem(mesh, range(2, 5, 2)))


def test_ascending_marks_are_taken_without_a_sort(monkeypatch):
    # mark's output ascends strictly: no np.unique runs on it
    eta2 = np.zeros(12)
    eta2[[2, 5, 9]] = 1.0
    marks = mark(eta2)
    with monkeypatch.context() as patch:
        patch.setattr(np, "unique", None)
        out = _marked_cells(marks, 12)
        assert _marked_cells([], 12).tolist() == []
    assert out.dtype == np.int64 and out.tolist() == [2, 5, 9]
    assert out is not marks


@pytest.mark.parametrize("marks", [[9, 2, 5], [2, 5, 5, 9], [9, 5, 2, 9, 2], np.array([[5, 2], [9, 9]])])
def test_unsorted_or_repeated_marks_are_deduplicated(marks):
    out = _marked_cells(marks, 12)
    assert out.dtype == np.int64 and out.tolist() == [2, 5, 9]


@pytest.mark.parametrize("marks", [[0, 12], [-1, 3], [12], [3, 12, 3], [3, -1, 3], [12, 0]])
def test_out_of_range_marks_raise_whether_sorted_or_not(marks):
    with pytest.raises(MeshError, match="marked cell index out of range"):
        _marked_cells(marks, 12)


def _mask(n_cells):
    mask = np.zeros(n_cells, dtype=bool)
    mask[[5, 9, 20]] = True
    return mask


@pytest.mark.parametrize("refine", [refine_vem, refine_fem])
@pytest.mark.parametrize(
    "marks, message",
    [
        # a mask used to refine cells 0 and 1, its True entries read as 1
        (_mask, "mark entry 0 is a boolean"),
        (lambda n: [3, True], "mark entry 1 is a boolean"),
        (lambda n: [np.int64(2), np.bool_(False)], "mark entry 1 is a boolean"),
        # fractions used to be truncated: [1.7, 3.2] refined cells 1 and 3
        (lambda n: [1.7, 3.2], "mark entry 0 is not an integer cell id: 1.7"),
        (lambda n: np.array([4.0, 2.5]), "mark entry 1 is not an integer cell id: 2.5"),
        (lambda n: [1.0, float("nan")], "mark entry 1 is not an integer cell id: nan"),
        (lambda n: ["3"], "integer cell ids"),
    ],
)
def test_refiners_refuse_boolean_and_fractional_marks(refine, marks, message):
    mesh = initial_mesh("square")
    with pytest.raises(MeshError, match=message):
        refine(mesh, marks(mesh.n_cells))


# ---------------------------------------------------------------------------
# newest-vertex bisection


def test_refine_fem_children_follow_bisection_convention():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    mesh = build_topology(verts, [[1, 2, 0]], lambda a, b: "gamma0")
    # bisection edge is (1, 2), the hypotenuse; its midpoint is vertex 3
    refined = refine_fem(mesh, [0])
    assert refined.n_cells == 2
    assert refined.n_vertices == 4
    assert np.allclose(refined.vertices[3], [0.5, 0.5])
    # each child lists its own next bisection edge first (one of the parent's
    # short legs) and ends with the new midpoint
    leading = set()
    for cyc in cycles(refined):
        assert cyc[2] == 3
        leading.add(frozenset((int(cyc[0]), int(cyc[1]))))
    assert leading == {frozenset((0, 1)), frozenset((0, 2))}
    assert abs(total_area(refined) - 0.5) < 1e-15


def test_refine_fem_closure_keeps_mesh_conforming():
    # the bisection edge of cell 0 of the once-bisected square is not its
    # neighbour's bisection edge, so marking it needs one closure round, which
    # splits the neighbour's bisection edge too: two new vertices, not one
    mesh = refine_fem(initial_mesh("square"), [0])
    refined = refine_fem(mesh, [0])
    assert refined.n_vertices - mesh.n_vertices >= 2
    # the refined mesh passes every check of build_topology unchanged, and
    # every cell stays a triangle
    assert all(len(c) == 3 for c in cycles(refined))
    rebuilt = build_topology(refined.vertices, cycles(refined), top_edge_rule)
    assert structurally_equal(rebuilt, refined)
    assert all(np.array_equal(getattr(rebuilt, name), getattr(refined, name))
               for name in ("cell_edges", "edge_left", "edge_right"))
    assert refined.n_cells > mesh.n_cells
    assert abs(total_area(refined) - total_area(mesh)) < 1e-12


def test_refine_fem_empty_marks_returns_same_mesh():
    mesh = initial_mesh("square")
    assert refine_fem(mesh, []) is mesh


def test_refine_fem_rejects_polygons():
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    quad = build_topology(verts, [[0, 1, 2, 3]], top_edge_rule)
    with pytest.raises(MeshError, match="triangular"):
        refine_fem(quad, [0])
    with pytest.raises(MeshError, match="triangular"):
        refine_uniform(quad)


def test_refine_fem_angles_stay_bounded():
    # newest-vertex bisection cycles through at most four similarity classes,
    # so ten refinement rounds must not degrade the minimum angle below half
    # of the initial one
    rng = np.random.default_rng(0)
    mesh = initial_mesh("square")
    initial_angle = min_triangle_angle(mesh)
    for _ in range(10):
        marked = rng.choice(mesh.n_cells, size=max(1, mesh.n_cells // 6), replace=False)
        mesh = refine_fem(mesh, marked.tolist())
    assert min_triangle_angle(mesh) >= 0.5 * initial_angle
    assert abs(total_area(mesh) - 1.0) < 1e-10


def test_refine_fem_preserves_boundary_tags():
    mesh = initial_mesh("square")
    refined = refine_fem(mesh, list(range(mesh.n_cells)))
    for eid in np.flatnonzero(refined.edge_right < 0):
        mid = 0.5 * (refined.vertices[refined.edge_a[eid]] + refined.vertices[refined.edge_b[eid]])
        assert refined.edge_gamma0[eid] == (abs(mid[1] - 1.0) < 1e-12)


# ---------------------------------------------------------------------------
# uniform red refinement


def test_refine_uniform_creates_four_similar_children():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    mesh = build_topology(verts, [[0, 1, 2]], lambda a, b: "gamma0")
    refined = refine_uniform(mesh)
    assert refined.n_cells == 4
    assert refined.n_vertices == 6
    areas = quality_report(refined).areas
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


# ---------------------------------------------------------------------------
# prolongation


def test_prolong_interpolates_midpoints_and_centroids():
    # an affine function is carried over exactly: midpoints average their
    # edge, the centroid of a square averages its edge midpoints
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    mesh = build_topology(verts, [[0, 1, 2, 3]], top_edge_rule)
    refined = refine_vem(mesh, [0])

    def affine(points):
        return 1.0 + 2.0 * points[:, 0] - 3.0 * points[:, 1]

    values = prolong(mesh, refined, affine(mesh.vertices))
    assert np.allclose(values, affine(refined.vertices), rtol=0.0, atol=1e-15)


def test_prolong_rejects_a_mesh_that_is_not_a_refinement():
    mesh = initial_mesh("square")
    fine = refine_uniform(mesh)
    with pytest.raises(ValueError, match="coarse vector must have shape"):
        prolong(mesh, fine, np.ones(mesh.n_vertices + 1))
    with pytest.raises(ValueError, match="keep the coarse vertices first"):
        prolong(fine, mesh, np.ones(fine.n_vertices))

