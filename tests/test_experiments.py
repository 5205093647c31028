"""Benchmark definitions, the adaptive loop, rate fitting and output files."""

import math

import numpy as np
import pytest

from steklov import experiments
from steklov.eigensolver import ConvergenceError, solve_smallest_positive
from steklov.experiments import (
    NOTCHED_REFERENCE,
    RESULTS_HEADER,
    TESTS,
    ConvergenceRecord,
    ExperimentConfig,
    ExperimentResult,
    emit_outputs,
    exact_eigenvalue_square,
    fit_rate,
    initial_mesh,
    read_results_csv,
    run_experiment,
)
from steklov.mesh import quality_report

from fem_oracle import boundary_mass as oracle_boundary_mass
from fem_oracle import dense_steklov_solve
from fem_oracle import p1_stiffness as oracle_stiffness
from initial_mesh_oracle import LOOP_BUILDERS, longest_edge_first
from refine_oracle import cycles


def test_exact_square_eigenvalues():
    assert exact_eigenvalue_square(1) == math.pi * math.tanh(math.pi)
    assert abs(exact_eigenvalue_square(1) - 3.1298810356317586) < 1e-15
    # the first sloshing eigenvalue of the unit square, to published accuracy
    assert abs(exact_eigenvalue_square(1) - 3.12988) < 1e-4
    assert exact_eigenvalue_square(2) == 2.0 * math.pi * math.tanh(2.0 * math.pi)
    assert exact_eigenvalue_square(np.int64(2)) == exact_eigenvalue_square(2)
    # 1.5 would give no eigenvalue, and True mode 1
    for n in (0, -1, 1.5, 2.0, True, "1"):
        with pytest.raises(ValueError, match="mode index must be a positive integer, got "):
            exact_eigenvalue_square(n)


def test_initial_square_mesh():
    mesh = initial_mesh("square")
    assert mesh.n_vertices == 41  # 5x5 grid plus 16 cell centers
    assert mesh.n_cells == 64
    assert np.all(np.diff(mesh.cell_ptr) == 3)
    total = float(np.sum(quality_report(mesh).areas))
    assert abs(total - 1.0) < 1e-12
    # spectral boundary is the whole top edge: 4 segments, 5 vertices
    g = mesh.gamma0_edge_ids()
    ends = np.unique(np.r_[mesh.edge_a[g], mesh.edge_b[g]])
    assert len(g) == 4
    assert len(ends) == 5
    for v in ends:
        assert abs(mesh.vertices[v, 1] - 1.0) < 1e-12


def test_initial_notched_mesh():
    mesh = initial_mesh("notched")
    assert mesh.n_vertices == 17
    assert mesh.n_cells == 19
    assert np.all(np.diff(mesh.cell_ptr) == 3)
    total = float(np.sum(quality_report(mesh).areas))
    assert abs(total - (1.0 - math.sqrt(3.0) / 36.0)) < 1e-12

    # the notch apex carries the single reentrant corner: the cell angles
    # meeting there add up to 2*pi - pi/3
    apex = np.array([0.5, math.sqrt(3.0) / 6.0])
    apex_id = int(np.argmin(np.sum((mesh.vertices - apex) ** 2, axis=1)))
    assert np.allclose(mesh.vertices[apex_id], apex, atol=1e-15)
    angle = 0.0
    for lst in cycles(mesh):
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


@pytest.mark.parametrize("test", TESTS)
def test_initial_mesh_matches_the_loop_builders(test):
    # every array equal to the last bit, in dtype and in numbering
    expected = longest_edge_first(LOOP_BUILDERS[test]())
    mesh = initial_mesh(test)
    for name, arr in vars(expected).items():
        got = getattr(mesh, name)
        assert (got.dtype, got.shape, got.tobytes()) == (arr.dtype, arr.shape, arr.tobytes()), name


def test_fit_rate_recovers_synthetic_slope():
    ns = np.array([100, 200, 400, 800, 1600, 3200])
    errs = 7.3 * ns ** (-0.85)
    fit = fit_rate(ns, errs, last=5)
    assert fit.points == 5
    assert abs(fit.slope + 0.85) < 1e-12


def test_fit_rate_skips_unusable_points_and_windows():
    ns = [10, 20, 40, 80, 160, 320]
    errs = [1.0, -1.0, 0.0, 1e-2, 1e-3, 1e-4]
    fit = fit_rate(ns, errs, last=3)
    # only the last three positive entries enter: slope of 1e-2 -> 1e-4
    # over 80 -> 320 is log(100)/log(4)
    assert fit.points == 3
    assert abs(fit.slope + math.log(100.0) / math.log(4.0)) < 1e-12

    # infinite errors are skipped like NaN ones, not fitted to a NaN slope
    fit = fit_rate(ns, [1.0, 1e-2, math.inf, 1e-3, math.nan, 1e-4], last=3)
    assert fit.points == 3
    assert abs(fit.slope + math.log(100.0) / math.log(16.0)) < 1e-12
    with pytest.raises(ValueError, match="at least 3"):
        fit_rate(ns, [math.inf, 1.0, math.nan, -math.inf, 0.5, math.inf])

    with pytest.raises(ValueError, match="at least 3"):
        fit_rate([10, 20], [1.0, 0.5])
    # zip would pair the first three dof counts with the three errors
    with pytest.raises(ValueError, match="got 5 dof counts and 3 errors"):
        fit_rate([1, 2, 4, 8, 16], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="got 3 dof counts and 4 errors"):
        fit_rate([1, 2, 4], [1.0, 0.5, 0.25, 0.125])
    with pytest.raises(ValueError, match="at least 3"):
        fit_rate(ns, [0.0, -1.0, 0.0, -1e-3, 1.0, 1.0])
    # a window of 0 used to fit every point and a negative one dropped the
    # leading points instead of keeping the trailing ones; a fractional one
    # failed in slicing and True was reported as a window too small
    for last, message in (
        (0, "window must cover at least 3 points, got last=0"),
        (-2, "window must cover at least 3 points, got last=-2"),
        (2, "window must cover at least 3 points, got last=2"),
        (3.7, r"window must be an integer, got last=3\.7"),
        (True, "window must be an integer, got last=True"),
    ):
        with pytest.raises(ValueError, match=message):
            fit_rate(ns, [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125], last=last)


def test_run_experiment_adaptive_vem_square():
    config = ExperimentConfig(test="square", method="adaptive-vem", steps=3)
    result = run_experiment(config)
    assert len(result.records) == 3
    assert len(result.meshes) == 3  # the mesh solved at each step, none past the last
    assert len(result.marks) == 3
    for mesh, record in zip(result.meshes, result.records):
        assert mesh.n_vertices == record.n_dofs
    assert result.reference == exact_eigenvalue_square(1)

    ns = [r.n_dofs for r in result.records]
    assert ns[0] == 41
    assert ns == sorted(ns) and len(set(ns)) == len(ns)
    for r in result.records:
        assert r.error > 0.0
        assert r.effectivity > 0.0
        assert r.eta2 == r.theta2 + r.jump2
    assert result.records[-1].error < result.records[0].error
    # marks drive the mesh growth
    for mesh, ms in zip(result.meshes, result.marks):
        assert ms.dtype == np.int64 and ms.size > 0
        assert np.all(np.diff(ms) > 0) and 0 <= ms[0] and ms[-1] < mesh.n_cells


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


def test_records_aggregate_the_indicators(monkeypatch):
    theta2, jump2 = np.array([0.5, 0.25]), np.array([1.5, 0.75])
    monkeypatch.setattr(experiments, "element_indicators", lambda system, pair: (theta2, jump2))
    config = ExperimentConfig(test="square", method="adaptive-vem", steps=1, reference=3.2)
    (record,) = run_experiment(config).records
    assert (record.theta2, record.jump2, record.eta2) == (0.75, 2.25, 3.0)
    assert record.error == abs(record.lambda_h - 3.2)
    assert record.effectivity == record.error / 3.0


def test_run_experiment_refuses_zero_estimate(monkeypatch):
    zeros = lambda system, pair: (np.zeros(system.mesh.n_cells), np.zeros(system.mesh.n_cells))
    monkeypatch.setattr(experiments, "element_indicators", zeros)
    for method in ("adaptive-vem", "uniform-fem"):
        with pytest.raises(ValueError, match="zero estimate"):
            run_experiment(ExperimentConfig(test="square", method=method, steps=2))


def test_run_experiment_reference_override():
    config = ExperimentConfig(test="square", method="adaptive-vem", steps=1, reference=3.14)
    result = run_experiment(config)
    assert result.reference == 3.14
    assert abs(result.records[0].error - abs(result.records[0].lambda_h - 3.14)) < 1e-15


@pytest.fixture(scope="module")
def notched_fem_run():
    return run_experiment(ExperimentConfig(test="notched", method="adaptive-fem", steps=30))


def test_notched_reference_lies_below_every_conforming_eigenvalue(notched_fem_run):
    # a conforming P1 eigenvalue is a Rayleigh-Ritz upper bound of the exact
    # one, so every adaptive-fem step must lie above the reference; the last
    # of these 30 steps (20,086 dofs) comes within 2.6e-4 of it
    result = notched_fem_run
    assert result.records[-1].n_dofs > 20_000
    below = [(r.step, r.lambda_h) for r in result.records if not r.lambda_h > NOTCHED_REFERENCE]
    assert not below, f"conforming eigenvalues at or below the reference: {below}"


def test_notched_adaptive_fem_error_decays_at_the_optimal_rate(notched_fem_run):
    # adaptive P1 recovers error ~ N^-1 at the reentrant corner; the fit
    # reads -1.050, while a reference 1e-4 too high or too low bends the
    # measured errors to slopes of -1.42 and -0.84
    records = notched_fem_run.records
    fit = fit_rate([r.n_dofs for r in records], [r.error for r in records])
    assert fit.points == 5
    assert -1.15 < fit.slope < -0.95, fit


def test_notched_reference_is_the_aitken_limit_of_uniform_fem():
    # nested uniform meshes converge monotonically; Aitken's delta-squared
    # over the last three of 7 steps (39,329 dofs) lands 3.2e-5 above the
    # reference, while the last lambda_h itself is still 3.2e-4 above it
    result = run_experiment(ExperimentConfig(test="notched", method="uniform-fem", steps=7))
    assert result.records[-1].n_dofs == 39_329
    a, b, c = (r.lambda_h for r in result.records[-3:])
    assert a > b > c > NOTCHED_REFERENCE
    limit = c - (c - b) ** 2 / ((c - b) - (b - a))
    assert abs(limit - NOTCHED_REFERENCE) < 5e-5, limit - NOTCHED_REFERENCE


def test_notched_run_uses_frozen_reference():
    result = run_experiment(ExperimentConfig(test="notched", method="adaptive-vem", steps=1, seed=5))
    assert result.reference == NOTCHED_REFERENCE
    assert result.records[0].error == abs(result.records[0].lambda_h - NOTCHED_REFERENCE)


def test_run_experiment_validates_config(monkeypatch, tmp_path):
    def no_work(mesh):
        raise AssertionError("a bad config must be refused before any assembly")

    monkeypatch.setattr(experiments, "assemble", no_work)
    cases = [
        (dict(test="disk"), "unknown test"),
        (dict(method="collocation"), "unknown method"),
        (dict(steps=0), "at least one step"),
        (dict(mark_fraction=0.0), "mark fraction"),
        (dict(mark_fraction=-0.5), "mark fraction"),
        (dict(method="uniform-fem", mark_fraction=5.0), "mark fraction"),
        (dict(mark_fraction=float("nan")), "mark fraction"),
        (dict(tol=0.0), "tolerance"),
        (dict(tol=-1.0), "tolerance"),
        (dict(tol=math.inf), "solver tolerance tol must be positive and finite, got inf"),
        (dict(reference=float("nan")), "reference eigenvalue must be finite and positive"),
        (dict(reference=float("inf")), "reference eigenvalue"),
        (dict(reference=0.0), "reference eigenvalue"),
        (dict(reference=-1.0), "reference eigenvalue"),
        (dict(seed=-1), "solver seed must be non-negative, got -1"),
        # a bool or a non-integral number is refused by name, before the
        # tables are written
        (dict(steps=2.5), "steps must be an integer, got 2.5"),
        (dict(steps=2.0), "steps must be an integer, got 2.0"),
        (dict(steps=True), "steps must be an integer, got True"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(seed=False), "seed must be an integer, got False"),
        (dict(mark_fraction=True), "mark_fraction must be a number, not True"),
        (dict(tol=True), "tol must be a number, not True"),
        (dict(reference=True), "reference must be a number, not True"),
        # so is a value that is not a number, before a comparison with it
        # can raise TypeError
        (dict(mark_fraction="0.5"), "mark_fraction must be a number, not '0.5'"),
        (dict(tol=None), "tol must be a number, not None"),
        (dict(reference="3.1"), "reference must be a number, not '3.1'"),
    ]
    out = tmp_path / "refused"
    for fields, message in cases:
        with pytest.raises(ValueError, match=message):
            run_experiment(ExperimentConfig(out_dir=str(out), **fields))
        assert not out.exists()


def test_numpy_integer_steps_and_seed_are_accepted():
    config = ExperimentConfig(test="square", steps=np.int64(2), seed=np.uint8(3))
    assert [r.step for r in run_experiment(config).records] == [0, 1]


def failing_solve(monkeypatch, call, error):
    """Make eigensolve number ``call`` of a run raise ``error``."""
    calls = 0

    def solve(system, **options):
        nonlocal calls
        calls += 1
        if calls == call:
            raise error
        return solve_smallest_positive(system, **options)

    monkeypatch.setattr(experiments, "solve_smallest_positive", solve)


def table_ns(out):
    """The N column of results.csv and of curves.csv in ``out``."""
    ns, _, _ = read_results_csv(out / "results.csv")
    header, *rows = (out / "curves.csv").read_text().splitlines()
    assert header == "N,error,eta2"
    return ns, [int(row.split(",")[0]) for row in rows]


def test_run_experiment_flushes_partial_results_on_failure(tmp_path, monkeypatch):
    # the second solve fails; both tables must still hold step 0's row
    failing_solve(monkeypatch, 2, ConvergenceError("no convergence", best_residual=1.0))
    out = tmp_path / "broken"
    config = ExperimentConfig(test="square", method="adaptive-vem", steps=3, out_dir=str(out))
    with pytest.raises(ConvergenceError):
        run_experiment(config)
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == ",".join(RESULTS_HEADER)
    assert len(lines) == 2 and lines[1].startswith("0,41,")
    assert table_ns(out) == ([41], [41])


def test_interrupted_run_keeps_every_finished_row(tmp_path, monkeypatch):
    # Ctrl-C during the third solve leaves steps 0 and 1 in both tables, and
    # the progress callback of step k already finds rows 0..k on disk
    failing_solve(monkeypatch, 3, KeyboardInterrupt())
    out = tmp_path / "stopped"
    seen = []

    def progress(record):
        ns, curve_ns = table_ns(out)
        assert len(ns) == record.step + 1 and ns[-1] == record.n_dofs and curve_ns == ns
        seen.append(record.n_dofs)

    config = ExperimentConfig(test="square", method="adaptive-vem", steps=4, out_dir=str(out))
    with pytest.raises(KeyboardInterrupt):
        run_experiment(config, progress=progress)
    assert table_ns(out) == (seen, seen) and len(seen) == 2


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
        + [f"mesh_step_{k}.json" for k in range(2)]
        + [f"mesh_step_{k}.svg" for k in range(2)]
    )
    assert len(result.meshes) == len(result.records) == 2
    for mesh, record in zip(result.meshes, result.records):
        assert mesh.n_vertices == record.n_dofs
    for p in written:
        assert p.exists() and p.stat().st_size > 0

    ns, lams, errs = read_results_csv(out / "results.csv")
    assert ns == [r.n_dofs for r in result.records]
    assert lams == [r.lambda_h for r in result.records]
    assert errs == [r.error for r in result.records]

    # the svg of a solved step shades its marked cells, the last one included
    for k in range(2):
        svg = (out / f"mesh_step_{k}.svg").read_text()
        assert "<svg" in svg and "polygon" in svg
        assert svg.count('fill="#f4b8b8"') == len(result.marks[k]) > 0


def test_emit_outputs_refuses_lists_of_different_lengths(tmp_path):
    # three meshes with one marks entry used to write mesh_step_0.* alone
    mesh = initial_mesh("square")
    records = [ConvergenceRecord(k, mesh.n_vertices, 3.0, 0.1, 0.5, 0.5, 1.0, 0.1) for k in range(3)]
    out = tmp_path / "hand"
    result = ExperimentResult(ExperimentConfig(out_dir=str(out)), 3.0, records, [mesh] * 3, [None])
    with pytest.raises(ValueError, match=r"per step; got \(3, 1, 3\)"):
        emit_outputs(result)
    assert not out.exists()


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


def test_read_results_csv_names_a_cut_row(tmp_path):
    header = ",".join(RESULTS_HEADER)
    row = "0,41,3.3820056635,0.2521246,0.1,1.8,1.9,0.13"
    cases = [
        "1,81\r\n",  # a row cut between two fields
        "1,81,3.19,0.064,0.01,0.45,0.46,0.1",  # a row with no line end
        "1,81,3.19,0.064,0.01,0.45,0.46,0.1,7\r\n",  # one field too many
        "1,81,3.19,0.0x,0.01,0.45,0.46,0.1\r\n",  # not a number
        "1,81,3.19,,0.01,0.45,0.46,0.1\r\n",  # an empty error, which no run writes
    ]
    for last in cases:
        path = tmp_path / "results.csv"
        path.write_bytes(f"{header}\r\n{row}\r\n{last}".encode())
        with pytest.raises(ValueError, match="results.csv, line 3: "):
            read_results_csv(path)
    path.write_bytes(f"{header}\r\n{row}\r\n".encode())
    assert read_results_csv(path) == ([41], [3.3820056635], [0.2521246])


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
