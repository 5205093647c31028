"""Benchmark definitions, the adaptive loop, rate fitting and output files."""

import math

import numpy as np
import pytest

from steklov.eigensolver import EigensolverError
from steklov.experiments import (
    RESULTS_HEADER,
    ConvergenceRecord,
    ExperimentConfig,
    emit_outputs,
    exact_eigenvalue_square,
    fit_rate,
    initial_mesh,
    rate_from_records,
    read_results_csv,
    run_experiment,
)
from steklov.mesh import element_area

from fem_oracle import boundary_mass as oracle_boundary_mass
from fem_oracle import dense_steklov_solve
from fem_oracle import p1_stiffness as oracle_stiffness


def test_exact_square_eigenvalues():
    assert exact_eigenvalue_square(1) == math.pi * math.tanh(math.pi)
    assert abs(exact_eigenvalue_square(1) - 3.1298810356317586) < 1e-15
    # the first sloshing eigenvalue of the unit square, to published accuracy
    assert abs(exact_eigenvalue_square(1) - 3.12988) < 1e-4
    assert exact_eigenvalue_square(2) == 2.0 * math.pi * math.tanh(2.0 * math.pi)
    with pytest.raises(ValueError):
        exact_eigenvalue_square(0)


def test_initial_square_mesh():
    mesh = initial_mesh("square")
    assert mesh.n_vertices == 41  # 5x5 grid plus 16 cell centers
    assert mesh.n_cells == 64
    assert np.all(np.diff(mesh.cell_ptr) == 3)
    total = sum(element_area(mesh, c) for c in range(mesh.n_cells))
    assert abs(total - 1.0) < 1e-12
    # spectral boundary is the whole top edge: 4 segments, 5 vertices
    assert len(mesh.gamma0_edge_ids()) == 4
    assert len(mesh.gamma0_vertices()) == 5
    for v in mesh.gamma0_vertices():
        assert abs(mesh.vertices[v, 1] - 1.0) < 1e-12


def test_initial_notched_mesh():
    mesh = initial_mesh("notched")
    assert mesh.n_vertices == 17
    assert mesh.n_cells == 19
    assert np.all(np.diff(mesh.cell_ptr) == 3)
    total = sum(element_area(mesh, c) for c in range(mesh.n_cells))
    assert abs(total - (1.0 - math.sqrt(3.0) / 36.0)) < 1e-12

    # the notch apex carries the single reentrant corner: the cell angles
    # meeting there add up to 2*pi - pi/3
    apex = np.array([0.5, math.sqrt(3.0) / 6.0])
    apex_id = int(np.argmin(np.sum((mesh.vertices - apex) ** 2, axis=1)))
    assert np.allclose(mesh.vertices[apex_id], apex, atol=1e-15)
    angle = 0.0
    for lst in mesh.cycles():
        if apex_id not in lst:
            continue
        k = lst.index(apex_id)
        u = mesh.vertices[lst[(k + 1) % 3]] - apex
        v = mesh.vertices[lst[(k + 2) % 3]] - apex
        angle += math.acos(
            float(u @ v) / (math.hypot(*u) * math.hypot(*v))
        )
    assert abs(angle - 5.0 * math.pi / 3.0) < 1e-12


def test_initial_mesh_rejects_unknown_test():
    with pytest.raises(ValueError, match="unknown test"):
        initial_mesh("circle")


def test_fit_rate_recovers_synthetic_slope():
    ns = np.array([100, 200, 400, 800, 1600, 3200])
    errs = 7.3 * ns ** (-0.85)
    fit = fit_rate(ns, errs, last=5)
    assert fit.points == 5
    assert abs(fit.slope + 0.85) < 1e-12


def test_fit_rate_skips_missing_points_and_windows():
    ns = [10, 20, 40, 80, 160, 320]
    errs = [1.0, None, 0.0, 1e-2, 1e-3, 1e-4]
    fit = fit_rate(ns, errs, last=3)
    # only the last three positive entries enter: slope of 1e-2 -> 1e-4
    # over 80 -> 320 is log(100)/log(4)
    assert fit.points == 3
    assert abs(fit.slope + math.log(100.0) / math.log(4.0)) < 1e-12

    with pytest.raises(ValueError, match="at least 3"):
        fit_rate([10, 20], [1.0, 0.5])
    with pytest.raises(ValueError, match="at least 3"):
        fit_rate(ns, [None, None, None, None, 1.0, 1.0])
    # a window of 0 used to fit every point and a negative one dropped the
    # leading points instead of keeping the trailing ones
    for last in (0, -2, 2):
        with pytest.raises(ValueError, match="window"):
            fit_rate(ns, [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125], last=last)


def test_rate_from_records():
    records = [
        ConvergenceRecord(
            step=k,
            n_dofs=100 * 2**k,
            lambda_h=3.0,
            error=float(2.0 ** (-k)),
            theta2=0.0,
            jump2=0.0,
            eta2=1.0,
            effectivity=None,
            wall_time=0.0,
        )
        for k in range(5)
    ]
    fit = rate_from_records(records)
    assert abs(fit.slope + 1.0) < 1e-12


def test_run_experiment_adaptive_vem_square():
    config = ExperimentConfig(test="square", method="adaptive-vem", steps=3)
    result = run_experiment(config)
    assert len(result.records) == 3
    assert len(result.meshes) == 4  # refined once more after the last solve
    assert len(result.marks) == 3
    assert result.reference == exact_eigenvalue_square(1)

    ns = [r.n_dofs for r in result.records]
    assert ns[0] == 41
    assert ns == sorted(ns) and len(set(ns)) == len(ns)
    for r in result.records:
        assert r.error is not None and r.error > 0.0
        assert r.effectivity is not None and r.effectivity > 0.0
        assert abs(r.eta2 - (r.theta2 + r.jump2)) < 1e-12 * r.eta2
    assert result.records[-1].error < result.records[0].error
    # marks drive the mesh growth
    for ms in result.marks:
        assert ms is not None and len(ms.cells) > 0


def test_run_experiment_uniform_fem_dof_sequence():
    config = ExperimentConfig(test="square", method="uniform-fem", steps=3)
    result = run_experiment(config)
    assert [r.n_dofs for r in result.records] == [41, 145, 545]
    assert all(ms is None for ms in result.marks)
    errors = [r.error for r in result.records]
    # first-order convergence: error roughly quarters per uniform step
    assert errors[0] / errors[1] > 2.5
    assert errors[1] / errors[2] > 2.5


def test_run_experiment_adaptive_fem_matches_oracle_eigensolve():
    config = ExperimentConfig(test="square", method="adaptive-fem", steps=3)
    result = run_experiment(config)
    for k, record in enumerate(result.records):
        mesh = result.meshes[k]
        triangles = mesh.cell_vertices.reshape(-1, 3)
        K = oracle_stiffness(mesh.vertices, triangles)
        g = mesh.gamma0_edge_ids()
        gamma0 = list(zip(mesh.edge_a[g].tolist(), mesh.edge_b[g].tolist()))
        M = oracle_boundary_mass(mesh.vertices, gamma0)
        values, _ = dense_steklov_solve(K, M, count=1)
        assert abs(record.lambda_h - values[0]) < 1e-10 * values[0]


def test_run_experiment_reference_override():
    config = ExperimentConfig(test="square", method="adaptive-vem", steps=1, reference=3.14)
    result = run_experiment(config)
    assert result.reference == 3.14
    assert abs(result.records[0].error - abs(result.records[0].lambda_h - 3.14)) < 1e-15


def test_run_experiment_validates_config():
    with pytest.raises(ValueError, match="unknown test"):
        run_experiment(ExperimentConfig(test="disk"))
    with pytest.raises(ValueError, match="unknown method"):
        run_experiment(ExperimentConfig(method="collocation"))
    with pytest.raises(ValueError, match="at least one step"):
        run_experiment(ExperimentConfig(steps=0))


def test_run_experiment_flushes_partial_results_on_failure(tmp_path):
    # asking for more eigenvalues than the pencil owns fails at the first
    # solve; the results file must still appear, holding just the header
    out = tmp_path / "broken"
    config = ExperimentConfig(
        test="square", method="adaptive-vem", steps=2, count=10, out_dir=str(out)
    )
    with pytest.raises(EigensolverError, match="finite positive"):
        run_experiment(config)
    lines = (out / "results.csv").read_text().splitlines()
    assert lines == [",".join(RESULTS_HEADER)]


def test_progress_callback_sees_every_record():
    seen = []
    config = ExperimentConfig(test="square", method="adaptive-vem", steps=2)
    result = run_experiment(config, progress=seen.append)
    assert [r.step for r in seen] == [0, 1]
    assert seen == result.records


def test_emit_outputs_and_read_back(tmp_path):
    out = tmp_path / "run"
    config = ExperimentConfig(
        test="square", method="adaptive-vem", steps=2, out_dir=str(out)
    )
    result = run_experiment(config)
    written = emit_outputs(result)
    names = sorted(p.name for p in written)
    assert names == sorted(
        ["results.csv", "curves.csv"]
        + [f"mesh_step_{k}.json" for k in range(3)]
        + [f"mesh_step_{k}.svg" for k in range(3)]
    )
    for p in written:
        assert p.exists() and p.stat().st_size > 0

    ns, lams, errs = read_results_csv(out / "results.csv")
    assert ns == [r.n_dofs for r in result.records]
    assert lams == [r.lambda_h for r in result.records]
    assert errs == [r.error for r in result.records]

    # the svg of a solved step shades its marked cells
    svg = (out / "mesh_step_0.svg").read_text()
    assert "<svg" in svg and "polygon" in svg


def test_emit_outputs_requires_out_dir():
    config = ExperimentConfig(test="square", method="adaptive-vem", steps=1)
    result = run_experiment(config)
    with pytest.raises(ValueError, match="out_dir"):
        emit_outputs(result)


def test_read_results_csv_rejects_other_files(tmp_path):
    bad = tmp_path / "other.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="results.csv"):
        read_results_csv(bad)


def test_runs_are_byte_identical(tmp_path):
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        config = ExperimentConfig(
            test="square", method="adaptive-vem", steps=3, out_dir=str(out)
        )
        emit_outputs(run_experiment(config))
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]
