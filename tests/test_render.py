"""SVG rendering smoke checks."""

import xml.etree.ElementTree as ET

import pytest

from steklov.experiments import initial_mesh
from steklov.mesh import mesh_to_svg


def test_svg_is_well_formed_and_complete(tmp_path):
    mesh = initial_mesh("square")
    path = tmp_path / "mesh.svg"
    mesh_to_svg(mesh, path, marked=[0, 5])
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    polygons = [el for el in root.iter() if el.tag.endswith("polygon")]
    assert len(polygons) == mesh.n_cells
    shaded = [p for p in polygons if p.get("fill") != "none"]
    assert len(shaded) == 2
    # spectral boundary edges get their own heavier strokes
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    assert len(lines) == len(mesh.gamma0_edge_ids())


def test_svg_viewbox_scales_with_aspect_ratio(tmp_path):
    from steklov.mesh import build_topology

    verts = [[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [0.0, 1.0]]
    mesh = build_topology(verts, [[0, 1, 2, 3]], lambda a, b: "gamma0")
    path = tmp_path / "wide.svg"
    mesh_to_svg(mesh, path)
    root = ET.parse(path).getroot()
    assert int(root.get("width")) == 720
    assert int(root.get("height")) < 720  # wide domain gives a short image


def test_marks_that_are_not_cell_ids_are_refused(tmp_path):
    from steklov.mesh import MeshError

    mesh = initial_mesh("square")
    cases = [
        ([True], "mark entry 0 is a boolean, not a cell id"),
        ([0.7], r"mark entry 0 is not an integer cell id: 0\.7"),
        ([-1], "marked cell index out of range"),
        ([10**6], "marked cell index out of range"),
    ]
    for marked, fragment in cases:
        path = tmp_path / "refused.svg"
        with pytest.raises(MeshError, match=fragment):
            mesh_to_svg(mesh, path, marked=marked)
        assert not path.exists()

