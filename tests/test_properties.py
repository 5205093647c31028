"""Refinement invariants as properties over random mark sequences.

Each example draws a short sequence of mark sets, refines one of the two
initial meshes with it, and checks after every step, from the flat arrays:

* conformity, decided from ``cell_ptr``/``cell_vertices`` alone: no directed
  edge is traversed twice, and the edges traversed in one direction only add
  up to the domain's perimeter, so every interior edge is traversed once in
  each direction;
* conservation of the area and of the length of Gamma0;
* inheritance of boundary tags: every boundary edge lies on a boundary edge
  of the parent mesh and carries its tag.

A second set of properties runs the same kind of sequences through the
array refiners and through the loop-based reference refiners of
``refine_oracle`` and requires identical meshes, with the edges numbered as
the oracle's ``edge_numbering`` numbers them from the cycles alone, and
that the oracle's parent-to-children map puts every new cell inside the
coarse cell whose area it covers.  ``build_topology`` must number edges the
same way on refined meshes renumbered, reordered and partly given
clockwise, and ``mesh._first_appearance``, which numbers them, must agree
with a dict loop on random keys of any multiplicity, and on keys at the
int64 extremes.  The refiners build their output without the checks
of ``build_topology``, so every output must come back unchanged through
them, its boundary tagged by the initial meshes' own rule; and
newest-vertex bisection must create at most four triangle shapes per
shape of the initial mesh.

The eigensolver properties solve on such refined meshes and compare with a
dense solve of the same pencil, check the exact symmetries of the discrete
eigenvalue (``lambda -> lambda / s`` when the domain is scaled by ``s``,
invariance under a translation far from the origin, and under a random
renumbering of the vertices, reordering of the cells and choice of each
cycle's first vertex), and check that the solver's normalization gives
random vectors unit boundary mass and the sign convention.  Under
newest-vertex bisection the P1 eigenvalue never rises and stays above the
square's exact value (min-max principle on nested conforming spaces).  A
solve started from the coarse eigenvector, carried to the refined mesh by
``prolong``, must return the cold solve's eigenvalue,
and ``prolong`` must keep every coarse value and fill every new vertex with
a mean of them.  The factor the warm solve trusts is checked on such meshes
at a random shift sigma: its solve inverts K - sigma M in dof order, and
when its row and column orders are equal, the negative entries of diag(U)
count the eigenvalues of K - sigma M below zero, as a dense solve does.
On randomly refined meshes the assembled K, M and K - sigma M equal their
transposes bit for bit, which the factor relies on, and the stiffness
equals the former assembly kept in ``vem_oracle``, bit for bit on
triangle meshes.  On the square, under random refinement (a random 2-60%
of the cells marked at each step, VEM or bisection), the effectivity
``|lambda - lambda_h| / eta2`` of every solve stays inside acceptance
criterion 5's band [0.03, 0.6].

The cell-level properties draw random star-shaped polygons at random scale
and far from the origin: the package's kernels reproduce the gradient of
affine functions and give them a zero projection complement, the stiffness
has exactly the constants as kernel; the closed-form kernels of a group of
such cells match the batched-solve routine kept in ``vem_oracle`` to
round-off; ``theta2 = |C w|^2`` of ``w = affine + eps v`` on tiny cells far
from the origin is ``eps^2 |C v|^2`` down to ``eps = 1e-10``; and the geometry
kernel ``polygon_geometry`` agrees with the oracle's per-cell centroid, a
fan-triangle area and a brute-force pairwise diameter, and with the former
stack-based kernel kept in ``geometry_oracle`` bit for bit, hanging vertices
and clockwise cycles included.  The last properties
round-trip refined meshes through ``save_mesh``/``load_mesh``, and require
every mesh file ``emit_outputs`` writes for a random refinement sequence,
and every file ``save_mesh`` and ``mesh_to_svg`` write for one mesh of it,
to equal, byte for byte, what the reference writers of ``emit_oracle`` write
for each mesh on its own.
"""

import contextlib
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

import emit_oracle
import geometry_oracle
import refine_oracle as oracle
import vem_oracle
from steklov.adaptivity import prolong, refine_fem, refine_uniform, refine_vem
from fem_oracle import dense_reference_solve
from steklov import eigensolver
from steklov.eigensolver import _factorize, _normalize, solve_smallest_positive
from steklov.estimator import element_indicators
from steklov.experiments import ConvergenceRecord, ExperimentConfig, ExperimentResult, emit_outputs, exact_eigenvalue_square, initial_mesh
from steklov.mesh import _first_appearance, build_topology, load_mesh, mesh_to_svg, polygon_geometry, save_mesh
from steklov.vem import _cell_group, _project_group, _stiffness, assemble

SETTINGS = settings(max_examples=20, deadline=5000, derandomize=True, database=None)

INITIAL = {name: initial_mesh(name) for name in ("square", "notched")}


def halfedges(mesh):
    """Directed (tail, head) vertex pairs of every cell cycle."""
    ptr, tails = mesh.cell_ptr, mesh.cell_vertices
    nxt = np.arange(1, len(tails) + 1)
    nxt[ptr[1:] - 1] = ptr[:-1]
    return tails, tails[nxt]


def segment_lengths(mesh, a, b):
    d = mesh.vertices[b] - mesh.vertices[a]
    return np.hypot(d[:, 0], d[:, 1])


def unpaired_length(mesh):
    """Total length of the directed edges whose reverse no cell traverses;
    None when some directed edge is traversed twice."""
    tails, heads = halfedges(mesh)
    directed = list(zip(tails.tolist(), heads.tolist()))
    present = set(directed)
    if len(present) != len(directed):
        return None
    lone = np.array([(b, a) not in present for a, b in directed])
    return float(np.sum(segment_lengths(mesh, tails[lone], heads[lone])))


def total_area(mesh):
    tails, heads = halfedges(mesh)
    p, q = mesh.vertices[tails], mesh.vertices[heads]
    return 0.5 * float(np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))


def gamma0_length(mesh):
    g = mesh.gamma0_edge_ids()
    return float(np.sum(segment_lengths(mesh, mesh.edge_a[g], mesh.edge_b[g])))


def boundary_tags_inherited(parent, child):
    """Every boundary edge of child lies on a parent boundary edge with its tag."""
    pb = np.flatnonzero(parent.edge_right < 0)
    cb = np.flatnonzero(child.edge_right < 0)
    a = parent.vertices[parent.edge_a[pb]]
    d = parent.vertices[parent.edge_b[pb]] - a
    length2 = np.sum(d * d, axis=1)

    def on_parent_edge(points):
        """(points, parent boundary edges) mask: point lies on the segment."""
        rel = points[:, None, :] - a[None, :, :]
        cross = rel[..., 0] * d[:, 1] - rel[..., 1] * d[:, 0]
        t = np.sum(rel * d, axis=2) / length2
        return (np.abs(cross) <= 1e-12 * length2) & (t >= -1e-12) & (t <= 1 + 1e-12)

    on = on_parent_edge(child.vertices[child.edge_a[cb]]) & on_parent_edge(
        child.vertices[child.edge_b[cb]]
    )
    if not np.all(on.any(axis=1)):
        return False
    return np.array_equal(parent.edge_gamma0[pb][np.argmax(on, axis=1)], child.edge_gamma0[cb])


def check_invariants(parent, child, reference):
    perimeter, area, gamma0 = reference
    length = unpaired_length(child)
    assert length is not None, "a directed edge is traversed twice"
    assert abs(length - perimeter) <= 1e-12 * perimeter, "an interior edge lacks its twin"
    assert abs(total_area(child) - area) <= 1e-12 * area
    assert abs(gamma0_length(child) - gamma0) <= 1e-12 * gamma0
    assert boundary_tags_inherited(parent, child)
    assert not np.any(child.edge_gamma0[child.edge_right >= 0]), "an interior edge is tagged gamma0"


def marks_for(data, mesh):
    return data.draw(
        st.lists(st.integers(0, mesh.n_cells - 1), min_size=1, max_size=6), label="marks"
    )


@SETTINGS
@given(name=st.sampled_from(sorted(INITIAL)), steps=st.integers(1, 3), data=st.data())
def test_refine_vem_invariants(name, steps, data):
    mesh = INITIAL[name]
    reference = (unpaired_length(mesh), total_area(mesh), gamma0_length(mesh))
    for _ in range(steps):
        refined = refine_vem(mesh, marks_for(data, mesh))
        check_invariants(mesh, refined, reference)
        mesh = refined


@SETTINGS
@given(name=st.sampled_from(sorted(INITIAL)), steps=st.integers(1, 4), data=st.data())
def test_refine_fem_invariants(name, steps, data):
    mesh = INITIAL[name]
    reference = (unpaired_length(mesh), total_area(mesh), gamma0_length(mesh))
    for _ in range(steps):
        if mesh.n_cells < 300 and data.draw(st.booleans(), label="uniform"):
            refined = refine_uniform(mesh)
        else:
            refined = refine_fem(mesh, marks_for(data, mesh))
        check_invariants(mesh, refined, reference)
        assert np.all(np.diff(refined.cell_ptr) == 3)
        mesh = refined


# ---------------------------------------------------------------------------
# array refiners against the loop-based oracle


def identical(mesh, expected):
    """Same vertices, cycles, orientation and tags, and edges numbered as the
    oracle's first-appearance rule numbers them."""
    return oracle.structurally_equal(mesh, expected) and oracle.numbered_by_first_appearance(mesh)


def cell_areas(mesh):
    tails, heads = halfedges(mesh)
    p, q = mesh.vertices[tails], mesh.vertices[heads]
    owner = np.repeat(np.arange(mesh.n_cells), np.diff(mesh.cell_ptr))
    return 0.5 * np.bincount(owner, weights=p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1])


def inside(point, polygon):
    """Crossing-number test of a point strictly inside a polygon."""
    x, y = point
    px, py = polygon[:, 0], polygon[:, 1]
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    straddles = (py > y) != (qy > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        at = px + (y - py) * (qx - px) / (qy - py)
    return np.count_nonzero(straddles & (x < at)) % 2 == 1


def parents_covered(coarse, fine, parent):
    """Each coarse cell's area is its children's, and each child's vertex
    mean lies inside its parent."""
    if len(parent) != fine.n_cells:
        return False
    area = cell_areas(coarse)
    summed = np.bincount(parent, weights=cell_areas(fine), minlength=coarse.n_cells)
    if not np.all(np.abs(summed - area) <= 1e-12 * area):
        return False
    cycles = oracle.cycles(coarse)
    return all(
        inside(fine.vertices[cyc].mean(axis=0), coarse.vertices[cycles[p]])
        for cyc, p in zip(oracle.cycles(fine), parent.tolist())
    )


def mark_subset(data, mesh):
    """A random share of the cells, from a few up to all of them, so that
    split edges meet in every pattern a cell can have."""
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    share = data.draw(st.sampled_from([0.02, 0.1, 0.3, 0.6, 1.0]), label="share")
    chosen = np.random.default_rng(seed).random(mesh.n_cells) < share
    return np.flatnonzero(chosen).tolist() or [0]


@SETTINGS
@given(name=st.sampled_from(sorted(INITIAL)), steps=st.integers(1, 3), data=st.data())
def test_refine_vem_matches_oracle(name, steps, data):
    mesh = INITIAL[name]
    for _ in range(steps):
        marks = mark_subset(data, mesh)
        refined = refine_vem(mesh, marks)
        expected, expected_record = oracle.refine_vem(mesh, marks)
        assert identical(refined, expected)
        parent = np.empty(expected.n_cells, dtype=np.int64)
        for cid, children in expected_record.children.items():
            parent[list(children)] = cid
        assert parents_covered(mesh, refined, parent)
        mesh = refined


@SETTINGS
@given(name=st.sampled_from(sorted(INITIAL)), steps=st.integers(1, 4), data=st.data())
def test_refine_fem_and_uniform_match_oracle(name, steps, data):
    mesh = INITIAL[name]
    for _ in range(steps):
        if mesh.n_cells < 300 and data.draw(st.booleans(), label="uniform"):
            refined, expected = refine_uniform(mesh), oracle.refine_uniform(mesh)
        else:
            marks = mark_subset(data, mesh)
            refined, expected = refine_fem(mesh, marks), oracle.refine_fem(mesh, marks)
        assert identical(refined, expected)
        mesh = refined


# ---------------------------------------------------------------------------
# refiner output against the checks of build_topology, and bisection shapes


def top_side_rule(pa, pb):
    """The tag rule both initial meshes are built with: Gamma0 is the side
    y = 1, every other boundary edge is Gamma1."""
    return "gamma0" if abs(pa[1] - 1.0) <= 1e-12 and abs(pb[1] - 1.0) <= 1e-12 else "gamma1"


def rebuilt(mesh):
    """The mesh read back from its cycles through every check of
    build_topology, its boundary tagged by the initial meshes' rule rather
    than by its own tags."""
    return build_topology(mesh.vertices, oracle.cycles(mesh), top_side_rule)


@SETTINGS
@given(name=st.sampled_from(sorted(INITIAL)), steps=st.integers(1, 3), data=st.data())
def test_refiner_output_passes_build_topology_unchanged(name, steps, data):
    vem = fem = INITIAL[name]
    assert identical(rebuilt(fem), fem)
    for _ in range(steps):
        vem = refine_vem(vem, mark_subset(data, vem))
        if fem.n_cells < 300 and data.draw(st.booleans(), label="uniform"):
            fem = refine_uniform(fem)
        else:
            fem = refine_fem(fem, mark_subset(data, fem))
        assert identical(rebuilt(vem), vem)
        assert identical(rebuilt(fem), fem)


@SETTINGS
@given(
    name=st.sampled_from(sorted(INITIAL)),
    fem=st.booleans(),
    steps=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_build_topology_numbers_edges_by_first_appearance(name, fem, steps, seed, data):
    # a refined mesh with its vertices renumbered, its cells reordered, each
    # cycle started at a random vertex, and then about half of its cycles
    # given clockwise, which build_topology reverses before numbering
    mesh = INITIAL[name]
    for _ in range(steps):
        marks = marks_for(data, mesh)
        mesh = refine_fem(mesh, marks) if fem else refine_vem(mesh, marks)
    rng = np.random.default_rng(seed)
    shuffled = relabelled(mesh, rng)
    assert oracle.numbered_by_first_appearance(shuffled)
    flip = rng.random(mesh.n_cells) < 0.5
    cells = [cyc[::-1] if f else cyc for cyc, f in zip(oracle.cycles(shuffled), flip.tolist())]
    again = build_topology(shuffled.vertices, cells, boundary_tags(shuffled, range(mesh.n_vertices)))
    assert oracle.numbered_by_first_appearance(again)
    assert oracle.cycles(again) != cells or not flip.any()


INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(SETTINGS, max_examples=200)
@given(pool=st.lists(INT64, min_size=1, max_size=8, unique=True), data=st.data())
def test_first_appearance_numbers_keys_in_the_order_they_appear(pool, data):
    # any multiplicity, the empty array included: each distinct key gets the
    # next number where it first appears
    keys = data.draw(st.lists(st.sampled_from(pool), max_size=40), label="keys")
    number: dict[int, int] = {}
    first = []
    for position, key in enumerate(keys):
        if key not in number:
            number[key] = len(first)
            first.append(position)
    got_number, got_first = _first_appearance(np.array(keys, dtype=np.int64))
    assert got_number.tolist() == [number[key] for key in keys]
    assert got_first.tolist() == first


def numbered_by_dict(keys):
    """``_first_appearance`` of a list of keys, by a dict loop."""
    number: dict[int, int] = {}
    first = []
    for position, key in enumerate(keys):
        if key not in number:
            number[key] = len(first)
            first.append(position)
    return [number[key] for key in keys], first


# the largest key for which key * 4 + 3, the composite key of four entries,
# still fits in int64
FITS_4 = (2**63 - 1 - 3) // 4


@pytest.mark.parametrize("keys", [
    [],
    [2**63 - 1, 0, 2**63 - 1],
    [-(2**63), 2**63 - 1, -(2**63), 0],
    [-1, 0, -1, 5],
    [FITS_4, 0, FITS_4, 1],
    [FITS_4 + 1, 0, FITS_4 + 1, 1],
    [2**62, 2**62 + 1, 2**62, 3, 2**62 + 1],
])
def test_first_appearance_holds_at_the_int64_extremes(keys):
    # negative keys, and composite keys key * len + position past int64,
    # take the stable argsort; the empty array numbers nothing
    number, first = _first_appearance(np.array(keys, dtype=np.int64))
    assert (number.tolist(), first.tolist()) == numbered_by_dict(keys)
    assert number.dtype == first.dtype == np.int64


def triangle_shapes(mesh):
    """Distinct triangle shapes: sorted edge lengths over the longest,
    rounded to 1e-9."""
    pts = mesh.vertices[mesh.cell_vertices.reshape(-1, 3)]
    d = np.roll(pts, -1, axis=1) - pts
    lengths = np.sort(np.hypot(d[..., 0], d[..., 1]), axis=1)
    return set(map(tuple, np.round(lengths / lengths[:, 2:], 9).tolist()))


@SETTINGS
@given(name=st.sampled_from(sorted(INITIAL)), steps=st.integers(1, 8), data=st.data())
def test_bisection_keeps_at_most_four_shapes_per_initial_shape(name, steps, data):
    # newest-vertex bisection produces at most four similarity classes from
    # each initial triangle (Sewell; Mitchell)
    mesh = INITIAL[name]
    bound = 4 * len(triangle_shapes(mesh))
    shapes = set()
    for _ in range(steps):
        mesh = refine_fem(mesh, marks_for(data, mesh))
        shapes |= triangle_shapes(mesh)
    assert len(shapes) <= bound


# ---------------------------------------------------------------------------
# eigensolver


def boundary_tags(mesh, new_id):
    """Tag of every boundary edge, keyed by the vertex ids ``new_id`` gives."""
    b = np.flatnonzero(mesh.edge_right < 0)
    return {
        (new_id[a], new_id[c]): "gamma0" if gamma0 else "gamma1"
        for a, c, gamma0 in zip(mesh.edge_a[b].tolist(), mesh.edge_b[b].tolist(), mesh.edge_gamma0[b].tolist())
    }


def moved(mesh, vertices):
    """The mesh rebuilt, and validated, on new vertex coordinates."""
    tags = boundary_tags(mesh, range(mesh.n_vertices))
    return build_topology(vertices, oracle.cycles(mesh), tags)


def relabelled(mesh, rng):
    """The same mesh with its vertices renumbered, its cells reordered and
    each cycle started at a random vertex, rebuilt through build_topology."""
    new_id = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[new_id] = mesh.vertices
    cycles = oracle.cycles(mesh)
    cells = []
    for c in rng.permutation(mesh.n_cells).tolist():
        cyc = new_id[cycles[c]].tolist()
        shift = int(rng.integers(len(cyc)))
        cells.append(cyc[shift:] + cyc[:shift])
    return build_topology(vertices, cells, boundary_tags(mesh, new_id.tolist()))


def smallest(mesh):
    """The smallest positive eigenvalue of the mesh's pencil."""
    return solve_smallest_positive(assemble(mesh)).value


def refined(data, name, fem, steps):
    """The initial mesh ``name`` after ``steps`` random bisection or VEM refinements."""
    mesh = INITIAL[name]
    for _ in range(steps):
        mesh = (refine_fem if fem else refine_vem)(mesh, mark_subset(data, mesh))
    return mesh


@SETTINGS
@given(name=st.sampled_from(sorted(INITIAL)), fem=st.booleans(), steps=st.integers(0, 3),
       sigma=st.floats(0.0, 100.0), data=st.data())
def test_assembled_matrices_equal_their_transposes_bit_for_bit(name, fem, steps, sigma, data):
    # the factor treats K - sigma M as symmetric (SymmetricMode, and diag(U)
    # as its inertia), which holds only when every entry equals its mirror
    # exactly
    system = assemble(refined(data, name, fem, steps))
    K, M = system.stiffness, system.boundary_mass
    for A in (K, M, K - sigma * M):
        assert (A != A.T).nnz == 0


@SETTINGS
@given(name=st.sampled_from(sorted(INITIAL)), fem=st.booleans(), steps=st.integers(0, 3), data=st.data())
def test_assembly_matches_the_former_assembly(name, fem, steps, data):
    # bit for bit on triangles, whose sums are too short for their order to
    # matter; on polygons to round-off of the largest entry, since numpy
    # chooses the order of a sum of eight or more terms by memory layout
    mesh = refined(data, name, fem, steps)
    got = assemble(mesh).stiffness
    want = vem_oracle.assemble_stiffness(mesh)
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    if np.all(np.diff(mesh.cell_ptr) == 3):
        assert np.array_equal(got.data, want.data)
    else:
        assert np.max(np.abs(got.data - want.data)) <= 1e-15 * np.max(np.abs(want.data))


@SETTINGS
@given(
    name=st.sampled_from(sorted(INITIAL)),
    fem=st.booleans(),
    steps=st.integers(0, 3),
    scale=st.sampled_from([1e-3, 0.37, 5.0, 1e3]),
    data=st.data(),
)
def test_solver_matches_dense_and_keeps_symmetries(name, fem, steps, scale, data):
    mesh = INITIAL[name]
    for _ in range(steps):
        marks = marks_for(data, mesh)
        mesh = refine_fem(mesh, marks) if fem else refine_vem(mesh, marks)
    value = smallest(mesh)
    dense = dense_reference_solve(assemble(mesh))[1]
    assert abs(value - dense) <= 1e-8 * dense
    assert abs(smallest(moved(mesh, mesh.vertices * scale)) * scale - value) <= 1e-10 * value
    far = mesh.vertices + np.array([1e4, -3e4])
    assert abs(smallest(moved(mesh, far)) - value) <= 1e-8 * value


@SETTINGS
@given(
    name=st.sampled_from(sorted(INITIAL)),
    fem=st.booleans(),
    steps=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_eigenvalue_is_invariant_under_relabelling(name, fem, steps, seed, data):
    mesh = INITIAL[name]
    for _ in range(steps):
        marks = marks_for(data, mesh)
        mesh = refine_fem(mesh, marks) if fem else refine_vem(mesh, marks)
    shuffled = relabelled(mesh, np.random.default_rng(seed))
    assert not np.array_equal(shuffled.cell_vertices, mesh.cell_vertices)
    value = smallest(mesh)
    assert abs(smallest(shuffled) - value) <= 1e-10 * value


@SETTINGS
@given(name=st.sampled_from(sorted(INITIAL)), steps=st.integers(1, 4), data=st.data())
def test_fem_eigenvalue_never_rises_under_bisection(name, steps, data):
    # bisection nests the P1 spaces, so by the min-max principle lambda_h
    # cannot rise, and conforming P1 approximates the square's pi tanh(pi)
    # from above; the VEM spaces of refine_vem are not nested
    mesh = INITIAL[name]
    values = [smallest(mesh)]
    for _ in range(steps):
        mesh = refine_fem(mesh, marks_for(data, mesh))
        values.append(smallest(mesh))
    assert np.all(np.diff(values) <= 1e-12 * values[0])
    if name == "square":
        assert values[-1] >= exact_eigenvalue_square()


@SETTINGS
@given(fem=st.booleans(), steps=st.integers(1, 4), data=st.data())
def test_effectivity_stays_in_the_criterion_5_band(fem, steps, data):
    # the estimator is reliable and efficient, so |lambda - lambda_h| / eta2
    # stays inside criterion 5's band after any refinement, not only along
    # the adaptive run; no monotonicity is asked of the VEM eigenvalue
    exact = exact_eigenvalue_square()
    mesh = INITIAL["square"]
    for step in range(steps + 1):
        system = assemble(mesh)
        pair = solve_smallest_positive(system)
        theta2, jump2 = element_indicators(system, pair)
        effectivity = abs(exact - pair.value) / (float(np.sum(theta2)) + float(np.sum(jump2)))
        assert 0.03 <= effectivity <= 0.6, (step, mesh.n_cells, effectivity)
        if step < steps:
            share = data.draw(st.floats(0.02, 0.6), label="share")
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            marks = np.flatnonzero(np.random.default_rng(seed).random(mesh.n_cells) < share).tolist() or [0]
            mesh = refine_fem(mesh, marks) if fem else refine_vem(mesh, marks)


def refined_pair(name, fem, steps, data):
    """A random refinement sequence: the last coarse mesh and its refinement."""
    mesh = INITIAL[name]
    for _ in range(steps):
        coarse, marks = mesh, marks_for(data, mesh)
        mesh = refine_fem(mesh, marks) if fem else refine_vem(mesh, marks)
    return coarse, mesh


@SETTINGS
@given(name=st.sampled_from(sorted(INITIAL)), fem=st.booleans(), steps=st.integers(1, 3), data=st.data())
def test_warm_start_returns_the_cold_eigenvalue(name, fem, steps, data):
    coarse, fine = refined_pair(name, fem, steps, data)
    coarse_pair = solve_smallest_positive(assemble(coarse))
    system = assemble(fine)
    cold = solve_smallest_positive(system)
    start = prolong(coarse, fine, coarse_pair.vector)
    warm = solve_smallest_positive(system, start=start)
    assert warm.residual <= 1e-10
    assert abs(warm.value - cold.value) <= 1e-12 * cold.value
    assert np.max(np.abs(warm.vector - cold.vector)) <= 1e-8 * np.max(np.abs(cold.vector))
    # a rerun from the same start repeats the solve bit for bit
    again = solve_smallest_positive(system, start=start)
    assert again.value == warm.value and np.array_equal(again.vector, warm.vector)


@SETTINGS
@given(name=st.sampled_from(sorted(INITIAL)), fem=st.booleans(), data=st.data())
def test_factor_solves_in_dof_order_and_its_pivots_count_the_eigenvalues_below_the_shift(name, fem, data):
    # one refinement of every cell, then random ones: up to 801 dofs
    refine = refine_fem if fem else refine_vem
    mesh = refine(INITIAL[name], range(INITIAL[name].n_cells))
    for _ in range(data.draw(st.integers(1, 3 if fem else 1), label="steps")):
        mesh = refine(mesh, mark_subset(data, mesh))
    system = assemble(mesh)
    pencil = dense_reference_solve(system)
    sigma = data.draw(st.floats(0.0, 1.2 * pencil[min(5, len(pencil) - 1)]), label="sigma")
    # the zero mode is exactly 0; a shift next to an eigenvalue leaves
    # K - sigma M too close to singular for a solve to 1e-8
    eigenvalues = np.concatenate([[0.0], pencil[1:]])
    assume(np.min(np.abs(eigenvalues - sigma)) > 1e-6 * max(sigma, pencil[1]))
    A = system.stiffness - sigma * system.boundary_mass
    solve, lu = _factorize(A)
    x = np.random.default_rng(0).standard_normal(system.n_dofs)
    assert np.linalg.norm(solve(A @ x) - x) <= 1e-8 * np.linalg.norm(x)
    # Sylvester's law of inertia: A has one negative eigenvalue per pencil
    # eigenvalue below sigma, and diag(U) = D of P A P^T = L D L^T has as
    # many negative entries when rows and columns are permuted alike
    negative = np.count_nonzero(np.linalg.eigvalsh(A.toarray()) < 0.0)
    assert negative == np.count_nonzero(eigenvalues < sigma)
    if np.array_equal(lu.perm_r, lu.perm_c):
        assert np.count_nonzero(lu.U.diagonal() < 0.0) == negative


@SETTINGS
@given(name=st.sampled_from(sorted(INITIAL)), fem=st.booleans(), steps=st.integers(0, 3),
       sigma=st.floats(0.0, 100.0), data=st.data())
def test_factor_is_handed_the_renumbered_matrix_in_canonical_form(name, fem, steps, sigma, data):
    # SuperLU sorts the row ids of a matrix that is not canonical; the
    # hand-off leaves it nothing to sort
    system = assemble(refined(data, name, fem, steps))
    A = system.stiffness - sigma * system.boundary_mass
    handed = []

    def spy(matrix, **options):
        # fresh arrays, so that no flag scipy cached speaks for them
        handed.append(sp.csc_matrix((matrix.data.copy(), matrix.indices.copy(), matrix.indptr.copy()), matrix.shape))
        return splu(matrix, **options)

    # the hand-off comes first, so a singular shift (sigma = 0, or on an
    # eigenvalue) shows it too
    with mock.patch.object(eigensolver.spla, "splu", spy), contextlib.suppress(eigensolver.EigensolverError):
        _factorize(A)
    (matrix,) = handed
    assert matrix.has_canonical_format
    perm = csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)
    expected = A[perm][:, perm].tocsc()
    expected.sort_indices()
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(matrix, field), getattr(expected, field))


@SETTINGS
@given(
    name=st.sampled_from(sorted(INITIAL)),
    refiner=st.sampled_from(["vem", "fem", "uniform"]),
    steps=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_prolong_keeps_coarse_values_and_fills_every_vertex(name, refiner, steps, seed, data):
    fine = INITIAL[name]
    for _ in range(steps):
        coarse = fine
        if refiner == "vem":
            fine = refine_vem(coarse, mark_subset(data, coarse))
        elif refiner == "fem":
            fine = refine_fem(coarse, mark_subset(data, coarse))
        else:
            fine = refine_uniform(coarse)
    w = np.random.default_rng(seed).standard_normal(coarse.n_vertices)
    values = prolong(coarse, fine, w)
    assert values.shape == (fine.n_vertices,)
    assert np.array_equal(values[: coarse.n_vertices], w)
    # every new value is a mean of values already there
    assert np.all(np.isfinite(values))
    assert w.min() <= values.min() and values.max() <= w.max()


NORMALIZE_MESHES = [INITIAL["square"], INITIAL["notched"], refine_vem(INITIAL["square"], range(8))]


@SETTINGS
@given(which=st.integers(0, len(NORMALIZE_MESHES) - 1), seed=st.integers(0, 2**32 - 1),
       magnitude=st.floats(-6.0, 6.0))
def test_normalize_gives_unit_boundary_mass_and_the_sign_convention(which, seed, magnitude):
    system = assemble(NORMALIZE_MESHES[which])
    vector = 10.0**magnitude * np.random.default_rng(seed).standard_normal(system.n_dofs)
    w = _normalize(system, vector)
    assert abs(w @ (system.boundary_mass @ w) - 1.0) <= 1e-12
    lead = next(d for d in system.gamma0_dofs if abs(w[d]) > 1e-8)
    assert w[lead] > 0.0


# ---------------------------------------------------------------------------
# single cells: random star-shaped polygons


@st.composite
def star_polygons(draw, tiny_and_far=False):
    """(points, center, scale): a ccw polygon of 3-12 vertices, star-shaped
    about ``center``, with one vertex per angular sector (so consecutive
    vertices are less than pi apart as seen from the center).  A random
    scale and a center at up to 1e3 scales from the origin; with
    ``tiny_and_far``, a scale of 1e-4 to 1e-2 and a center 1e2 to 1e3 from
    the origin in each coordinate."""
    n = draw(st.integers(3, 12), label="n")
    jitter = np.array(draw(st.lists(st.floats(0.0, 0.45), min_size=n, max_size=n), label="jitter"))
    radii = np.array(draw(st.lists(st.floats(0.3, 1.5), min_size=n, max_size=n), label="radii"))
    if tiny_and_far:
        scale = 10.0 ** draw(st.floats(-4.0, -2.0), label="log_scale")
        far = st.floats(1e2, 1e3).flatmap(lambda r: st.sampled_from([-r, r]))
        center = np.array(draw(st.tuples(far, far), label="center"))
    else:
        scale = 10.0 ** draw(st.floats(-3.0, 3.0), label="log_scale")
        center = scale * np.array(draw(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), label="offset"))
    angles = 2.0 * np.pi * (np.arange(n) + jitter) / n
    points = center + scale * np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return points, center, scale


@SETTINGS
@given(polygon=star_polygons(), coeffs=st.tuples(*[st.floats(-2.0, 2.0)] * 3))
def test_local_operators_on_random_star_polygons(polygon, coeffs):
    pts, center, scale = polygon
    n = len(pts)
    ops = vem_oracle.local_operators(pts)
    a, b, c = coeffs
    # an affine function in coordinates centred and scaled with the cell:
    # its gradient in those coordinates is (b, c) and its complement is zero
    w = a + (b * (pts[:, 0] - center[0]) + c * (pts[:, 1] - center[1])) / scale
    gradient, theta2 = ops.project(w)
    assert np.allclose(scale * gradient, [b, c], rtol=0.0, atol=1e-10)
    assert np.sqrt(theta2) <= 1e-10

    stiffness = ops.stiffness
    eig = np.linalg.eigvalsh(stiffness)
    assert np.max(np.abs(stiffness @ np.ones(n))) <= 1e-12 * eig[-1]
    assert eig[0] >= -1e-12 * eig[-1]
    assert eig[1] > 1e-6 * eig[-1]  # nothing but the constants in the kernel


@SETTINGS
@given(polygons=st.lists(star_polygons(), min_size=1, max_size=4), n=st.integers(3, 12),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_operators_match_the_batched_solve(polygons, n, seed):
    # a group of same-size cells: each drawn polygon resampled to n vertices
    pts = np.stack([p[np.linspace(0, len(p), n, endpoint=False).astype(int)] for p, _, _ in polygons])
    m = len(pts)
    group = _cell_group(pts[..., 0], pts[..., 1], np.arange(m * n).reshape(-1, n), np.arange(m))
    expected = vem_oracle.batched_solve(pts)
    for field in ("diameter", "area"):
        assert np.array_equal(getattr(group, field), getattr(expected, field))

    # the stiffness, measured against each cell's largest entry (a
    # triangle's oracle stabilization is zero up to round-off)
    stiffness = _stiffness(group)
    largest = np.max(np.abs(expected.stiffness), axis=(1, 2), keepdims=True)
    assert np.all(np.abs(stiffness - expected.stiffness) <= 1e-12 * largest)
    assert np.array_equal(stiffness, stiffness.transpose(0, 2, 1))

    # gradients and complement norms of random vertex values: the oracle's
    # scaled-monomial projector holds diameter * gradient in rows 1-2
    w = np.random.default_rng(seed).standard_normal((m, n))
    gradient, theta2 = _project_group(group, w)
    want = np.einsum("mkj,mj->mk", expected.projector[:, 1:], w) / expected.diameter[:, None]
    size = np.max(np.abs(expected.projector[:, 1:]), axis=(1, 2)) / expected.diameter
    assert np.all(np.abs(gradient - want) <= 1e-12 * size[:, None] * np.abs(w).sum(axis=1)[:, None])
    complement = np.einsum("mij,mj->mi", expected.complement, w)
    bound = (1.0 + np.sum(expected.complement**2, axis=(1, 2))) * np.sum(w * w, axis=1)
    assert np.all(np.abs(theta2 - np.sum(complement**2, axis=1)) <= 1e-12 * bound)


@SETTINGS
@given(polygon=star_polygons(tiny_and_far=True), coeffs=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       seed=st.integers(0, 2**32 - 1))
def test_theta2_scales_with_the_square_of_the_non_affine_part(polygon, coeffs, seed):
    # theta2 = |C w|^2 with C zero on affine functions, so for w = affine +
    # eps v it is eps^2 |C v|^2 exactly; the cancelling form w^T (C^T C) w
    # lost that on tiny cells far from the origin, down to negative values
    pts, center, scale = polygon
    ops = vem_oracle.local_operators(pts)
    a, b, c = coeffs
    affine = a + (b * (pts[:, 0] - center[0]) + c * (pts[:, 1] - center[1])) / scale
    v = np.random.default_rng(seed).standard_normal(len(pts))
    theta2 = np.array([ops.project(affine + eps * v)[1] for eps in (1e-2, 1e-6, 1e-10)])
    if len(pts) == 3:
        assert np.all(theta2 == 0.0)
        return
    assert np.all(theta2 >= 0.0)
    ratio = theta2 / np.array([1e-2, 1e-6, 1e-10]) ** 2
    assert np.all(np.abs(ratio - ratio[0]) <= 1e-2 * ratio[0])


@SETTINGS
@given(polygon=star_polygons())
def test_geometry_kernel_matches_per_cell_oracles(polygon):
    pts, center, scale = polygon
    shape = polygon_geometry(pts[None, :, 0], pts[None, :, 1])
    area, diameter, gap = shape.area, shape.diameter, shape.gap
    (cx,), (cy,) = shape.centroid
    tol = 1e-14 * (scale + np.max(np.abs(center)))
    centroid = [shape.origin_x[0] + cx, shape.origin_y[0] + cy]
    assert np.allclose(centroid, oracle.polygon_centroid(pts), rtol=0.0, atol=tol)

    rel = pts - center
    fan = rel[:, 0] * np.roll(rel[:, 1], -1) - rel[:, 1] * np.roll(rel[:, 0], -1)
    assert np.all(fan > 0.0)
    assert abs(area[0] - 0.5 * np.sum(fan)) <= 1e-12 * scale * scale

    dist = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    assert abs(diameter[0] - dist.max()) <= 1e-14 * dist.max()
    assert abs(gap[0] - dist[~np.eye(len(pts), dtype=bool)].min()) <= 1e-14 * dist.max()


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_geometry_matches_former_kernel(pts):
    """The kernel on the columns of a (m, n, 2) stack against the former
    kernel on the stack itself, bit for bit."""
    shape = polygon_geometry(pts[..., 0], pts[..., 1])
    origin, local, area, centroid, diameter, gap = geometry_oracle.polygon_geometry(pts)
    assert same_bits(shape.origin_x, origin[:, 0]) and same_bits(shape.origin_y, origin[:, 1])
    assert same_bits(shape.x, local[..., 0]) and same_bits(shape.y, local[..., 1])
    assert same_bits(shape.area, area)
    assert same_bits(shape.diameter, diameter)
    assert same_bits(shape.gap, gap)
    cx, cy = shape.centroid
    assert same_bits(cx, centroid[:, 0]) and same_bits(cy, centroid[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        assert same_bits(shape.kernel_radius(cx, cy), geometry_oracle._kernel_radius(local, centroid))
    return shape


@SETTINGS
@given(polygon=star_polygons(), data=st.data())
def test_geometry_kernel_equals_the_former_kernel_bit_for_bit(polygon, data):
    # edge midpoints inserted as collinear hanging vertices, as refine_vem
    # leaves them in unmarked neighbours, in either orientation; the group
    # holds the cycle and a rotation of it
    pts, _, _ = polygon
    n = len(pts)
    hanging = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="hanging")
    cycle = []
    for i in range(n):
        cycle.append(pts[i])
        if hanging[i]:
            cycle.append(0.5 * (pts[i] + pts[(i + 1) % n]))
    cycle = np.array(cycle)
    if data.draw(st.booleans(), label="clockwise"):
        cycle = cycle[::-1]
    shift = data.draw(st.integers(0, len(cycle) - 1), label="shift")
    shape = assert_geometry_matches_former_kernel(np.stack([cycle, np.roll(cycle, shift, axis=0)]))
    assert np.all(np.isfinite(shape.centroid))

    # a cycle on the line y = x has zero area and no centroid, either way round
    t = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=12), label="line"))
    line = np.column_stack([t, t])
    for stack in (line[None], line[None, ::-1]):
        shape = assert_geometry_matches_former_kernel(stack)
        assert shape.area.tolist() == [0.0]
        assert not np.any(np.isfinite(shape.centroid))


# ---------------------------------------------------------------------------
# JSON round trip


@SETTINGS
@given(name=st.sampled_from(sorted(INITIAL)), fem=st.booleans(), steps=st.integers(0, 3), data=st.data())
def test_save_load_round_trips_refined_meshes(name, fem, steps, data):
    mesh = INITIAL[name]
    for _ in range(steps):
        marks = mark_subset(data, mesh)
        mesh = refine_fem(mesh, marks) if fem else refine_vem(mesh, marks)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.json"
        save_mesh(mesh, path)
        assert identical(load_mesh(path), mesh)


def assert_emitted_as_oracle(meshes, marks):
    """Every mesh file emit_outputs writes, and each mesh written on its own
    through save_mesh and mesh_to_svg, equals the reference writers' bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        out, ref, single = Path(tmp) / "out", Path(tmp) / "ref", Path(tmp) / "single"
        ref.mkdir()
        single.mkdir()
        records = [ConvergenceRecord(k, mesh.n_vertices, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0) for k, mesh in enumerate(meshes)]
        result = ExperimentResult(ExperimentConfig(out_dir=str(out)), 1.0, records, meshes, marks)
        written = emit_outputs(result)
        assert all(path.is_file() for path in written)
        for k, (mesh, marked) in enumerate(zip(meshes, marks)):
            marked = () if marked is None else marked
            emit_oracle.save_mesh(mesh, ref / f"mesh_step_{k}.json")
            emit_oracle.mesh_to_svg(mesh, ref / f"mesh_step_{k}.svg", marked=marked)
            save_mesh(mesh, single / f"mesh_step_{k}.json")
            mesh_to_svg(mesh, single / f"mesh_step_{k}.svg", marked=marked)
        assert sorted(p.name for p in written) == sorted(p.name for p in ref.iterdir())
        for path in written:
            assert path.read_bytes() == (ref / path.name).read_bytes(), path.name
            assert (single / path.name).read_bytes() == (ref / path.name).read_bytes(), path.name


@SETTINGS
@given(
    name=st.sampled_from(sorted(INITIAL)),
    method=st.sampled_from(["adaptive-vem", "adaptive-fem", "uniform-fem"]),
    steps=st.integers(0, 3),
    data=st.data(),
)
def test_emitted_mesh_files_match_the_reference_writers(name, method, steps, data):
    mesh = INITIAL[name]
    meshes, marks = [], []
    for step in range(steps + 1):
        marked = None if method == "uniform-fem" else mark_subset(data, mesh)
        meshes.append(mesh)
        marks.append(marked)
        if step < steps:
            if marked is None:
                mesh = refine_uniform(mesh)
            elif method == "adaptive-fem":
                mesh = refine_fem(mesh, marked)
            else:
                mesh = refine_vem(mesh, marked)
    assert_emitted_as_oracle(meshes, marks)


def test_emitted_mesh_files_of_meshes_that_are_not_nested():
    def unit_square(x0=0.0):
        return build_topology([[x0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [[0, 1, 2, 3]], top_side_rule)

    # the rectangle keeps the square's vertices first but doubles the bounding
    # box, so its pixel text must be formatted afresh
    rectangle = build_topology(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 0.0], [2.0, 1.0]],
        [[0, 1, 2, 3], [1, 4, 5, 2]],
        top_side_rule,
    )
    fine = refine_vem(INITIAL["square"], [0, 3])
    sequences = [
        # unrelated meshes, a coarser mesh after a finer one, a repeat
        ([fine, INITIAL["notched"], INITIAL["square"], INITIAL["square"]], [[1], None, [0, 2], []]),
        # a shared prefix under a changed bounding box, then a shorter mesh
        ([unit_square(), rectangle, unit_square()], [[0], [1], None]),
        # -0.0 equals 0.0 but prints differently, so it shares no text with it
        ([unit_square(), unit_square(-0.0), unit_square()], [[0], [0], [0]]),
    ]
    for meshes, marks in sequences:
        assert_emitted_as_oracle(meshes, marks)
