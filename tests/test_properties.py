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
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov.adaptivity import refine_fem, refine_uniform, refine_vem
from steklov.experiments import initial_mesh

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
    return np.array_equal(parent.edge_tag[pb][np.argmax(on, axis=1)], child.edge_tag[cb])


def check_invariants(parent, child, reference):
    perimeter, area, gamma0 = reference
    length = unpaired_length(child)
    assert length is not None, "a directed edge is traversed twice"
    assert abs(length - perimeter) <= 1e-12 * perimeter, "an interior edge lacks its twin"
    assert abs(total_area(child) - area) <= 1e-12 * area
    assert abs(gamma0_length(child) - gamma0) <= 1e-12 * gamma0
    assert boundary_tags_inherited(parent, child)


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
        refined, _ = refine_vem(mesh, marks_for(data, mesh))
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
