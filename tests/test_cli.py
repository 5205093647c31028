"""Command line interface: subcommands, exit codes, output files."""

import dataclasses
import inspect
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io

import steklov
from steklov import cli
from steklov.cli import main
from steklov.eigensolver import ConvergenceError
from steklov.experiments import (
    ExperimentConfig, emit_outputs, fit_rate, initial_mesh, read_results_csv, run_experiment,
)
from steklov.mesh import load_mesh, save_mesh
from steklov.vem import assemble

from test_experiments import failing_solve, table_ns
from test_mesh import TWO_SQUARES

# the files step k leaves with both dump flags, in the order emit_outputs lists them
STEP_FILES = ("mesh_step_{}.json", "mesh_step_{}.svg", "indicators_step_{}.csv",
              "stiffness_step_{}.mtx", "boundary_mass_step_{}.mtx")


def test_run_writes_outputs_and_progress(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["run", "--test", "square", "--method", "adaptive-vem", "--steps", "2",
         "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0].startswith("step 0  N 41  lambda_h ")
    assert "error" in lines[0] and "eta2" in lines[0]
    assert lines[-1].startswith("wrote 6 files")
    assert (out / "results.csv").exists()
    assert (out / "curves.csv").exists()
    # one mesh per solved step, none past the last solve
    ns, _, _ = read_results_csv(out / "results.csv")
    assert len(ns) == 2
    for k, n in enumerate(ns):
        assert load_mesh(out / f"mesh_step_{k}.json").n_vertices == n
        assert (out / f"mesh_step_{k}.svg").exists()
    assert not (out / "mesh_step_2.json").exists()
    assert not (out / "mesh_step_2.svg").exists()


def test_run_quiet_silences_stdout(tmp_path, capsys):
    out = tmp_path / "quiet"
    code = main(["run", "--steps", "1", "--out", str(out), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_run_dump_flags_produce_files(tmp_path, capsys):
    out = tmp_path / "dumps"
    code = main(["run", "--steps", "3", "--out", str(out), "--dump-indicators", "--dump-matrices"])
    assert code == 0
    files = sorted(path.name for path in out.iterdir())
    assert files == sorted(["results.csv", "curves.csv", *(name.format(k) for k in range(3) for name in STEP_FILES)])
    # the count covers the dumps too: it used to read 8 of these 17 files
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {len(files)} files to {out}"

    # every stored entry comes back exactly, explicit zeros included
    meshes = [initial_mesh("square")] + [load_mesh(out / f"mesh_step_{k}.json") for k in (1, 2)]
    for k, mesh in enumerate(meshes):
        system = assemble(mesh)
        for name, matrix in (("stiffness", system.stiffness), ("boundary_mass", system.boundary_mass)):
            read = scipy.io.mmread(out / f"{name}_step_{k}.mtx").tocsr()
            assert read.shape == matrix.shape
            for field in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(read, field), getattr(matrix, field))


def test_run_reference_override(tmp_path, capsys):
    out = tmp_path / "ref"
    code = main(
        ["run", "--steps", "1", "--out", str(out), "--quiet", "--reference", "3.0"]
    )
    assert code == 0
    header, row = (out / "results.csv").read_text().splitlines()
    lam, err = float(row.split(",")[2]), float(row.split(",")[3])
    assert abs(err - abs(lam - 3.0)) < 1e-15
    # a NaN reference used to exit 0 with nan in the error columns, which
    # `steklov rate` then could not fit
    for bad in ("nan", "inf", "0", "-1"):
        out = tmp_path / f"ref_{bad}"
        assert main(["run", "--steps", "3", "--out", str(out), "--quiet", "--reference", bad]) == 1
        assert capsys.readouterr().err.startswith("error: reference eigenvalue must be finite and positive")
        assert not out.exists()
    # a negative seed is refused before step 0 is assembled
    out = tmp_path / "seed"
    assert main(["run", "--steps", "3", "--out", str(out), "--quiet", "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: solver seed must be non-negative, got -1")
    assert not out.exists()


def test_rate_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--steps", "5", "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    code = main(["rate", "--csv", str(out / "results.csv"), "--last", "4"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("slope -")
    assert "over 4 points" in text
    # without --last the window is fit_rate's own default
    assert main(["rate", "--csv", str(out / "results.csv")]) == 0
    assert f"over {inspect.signature(fit_rate).parameters['last'].default} points" in capsys.readouterr().out
    # windows below three points are refused, not silently widened or shifted
    for last in ("0", "-2"):
        assert main(["rate", "--csv", str(out / "results.csv"), "--last", last]) == 1
        assert "window" in capsys.readouterr().err
    # an infinite error is skipped, where it used to print "slope nan"
    header, *rows = (out / "results.csv").read_text().splitlines()
    fields = rows[-1].split(",")
    fields[3] = "inf"
    broken = tmp_path / "inf.csv"
    broken.write_text("\n".join([header, *rows[:-1], ",".join(fields)]) + "\n")
    assert main(["rate", "--csv", str(broken), "--last", "5"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("slope -") and "over 4 points" in text
    # a run killed in the middle of an append leaves a last row with no line
    # end; rate names its line instead of fitting it or printing a traceback
    cut = tmp_path / "cut.csv"
    cut.write_bytes((out / "results.csv").read_bytes()[:-5])
    assert main(["rate", "--csv", str(cut)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cut}, line 6: ")
    # every row a run writes has an error, so an empty one is malformed
    fields[3] = ""
    empty = tmp_path / "empty.csv"
    empty.write_text("\n".join([header, *rows[:-1], ",".join(fields)]) + "\n")
    assert main(["rate", "--csv", str(empty)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {empty}, line 6: ")


def test_rate_rejects_foreign_csv(tmp_path, capsys):
    bad = tmp_path / "x.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["rate", "--csv", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_mesh_validate(tmp_path, capsys):
    path = tmp_path / "mesh.json"
    save_mesh(initial_mesh("notched"), path)
    assert main(["mesh", "validate", str(path)]) == 0
    text = capsys.readouterr().out
    assert "OK" in text
    assert "vertices 17  cells 19" in text
    assert "gamma estimate" in text


def test_mesh_validate_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    assert main(["mesh", "validate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err
    # valid JSON whose top level is not an object used to report a missing
    # field "list indices must be integers or slices, not str"
    path.write_text("[1, 2]")
    assert main(["mesh", "validate", str(path)]) == 1
    assert "must hold a JSON object with fields 'vertices', 'cells' and 'boundary'" in capsys.readouterr().err

    # malformed items are named errors, not tracebacks or a silent "OK"
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    boundary = [{"edge": [k, (k + 1) % 4], "tag": "gamma0"} for k in range(4)]
    cases = [
        (square, [[0, 1, 2, 3]], [{"tag": "gamma0"}] + boundary[1:], "error: "),
        (square, [[0, 1, 2, 3]], boundary[:3] + [[3, 0]], "error: "),
        (square, [[0, 1, 2, 3.7]], boundary, "error: "),
        (square + [[5.0, 5.0]], [[0, 1, 2, 3]], boundary, "error: vertex 4 is not used by any cell"),
        (square[:3], 5, [], "error: field 'cells' "),
        (square, [[0, 1, 2, 3]], 7, "error: field 'boundary' "),
        # coordinates given as a string or a boolean are not read as 1.0
        (square[:1] + [["1", 0.0]] + square[2:], [[0, 1, 2, 3]], boundary, "error: vertex 1 "),
        (square[:3] + [[True, 1.0]], [[0, 1, 2, 3]], boundary, "error: vertex 3 "),
        # the diagonal of the square is not a boundary edge
        (square, [[0, 1, 2, 3]], boundary + [{"edge": [0, 2], "tag": "gamma0"}],
         "error: tagged edge (0, 2) is not a boundary edge"),
        # an edge tagged twice used to keep the last tag
        (square, [[0, 1, 2, 3]], boundary[:1] + [{"edge": [0, 1], "tag": "gamma1"}] + boundary[1:],
         "error: boundary items 0 and 1 "),
        # an area that overflows used to print "OK" and "gamma estimate nan",
        # and a squared diameter that overflows a false "degenerate (zero area)"
        ([[0, 0], [1, 0], [1e308, 1e308]], [[0, 1, 2]], boundary[:2] + [{"edge": [2, 0], "tag": "gamma0"}],
         "error: cell 0 is too large"),
        ([[0, 0], [1, 0], [1e200, 1e200]], [[0, 1, 2]], boundary[:2] + [{"edge": [2, 0], "tag": "gamma0"}],
         "error: cell 0 is too large"),
    ]
    for verts, cells, items, message in cases:
        path.write_text(json.dumps({"vertices": verts, "cells": cells, "boundary": items}))
        assert main(["mesh", "validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        assert captured.err.startswith(message)


def test_missing_file_is_reported_not_raised(tmp_path, capsys):
    assert main(["mesh", "validate", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_solver_failure_maps_to_exit_code(tmp_path, capsys, monkeypatch):
    failing_solve(monkeypatch, 2, ConvergenceError("no convergence", best_residual=1.0))
    code = main(["run", "--steps", "2", "--out", str(tmp_path / "fail"), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: no convergence")


def test_mesh_validate_rejects_disconnected_mesh(tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_text(json.dumps(TWO_SQUARES))
    assert main(["mesh", "validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert "disconnected" in captured.err


def test_rerun_leaves_only_its_own_step_files(tmp_path):
    out, fresh = tmp_path / "rerun", tmp_path / "fresh"
    # emit_outputs lists every file the run leaves: the tables, then each
    # step's snapshots and dumps
    config = ExperimentConfig(steps=4, out_dir=str(out), dump_indicators=True, dump_matrices=True)
    written = emit_outputs(run_experiment(config))
    assert [path.name for path in written] == ["results.csv", "curves.csv", *(
        name.format(k) for k in range(4) for name in STEP_FILES)]
    assert set(written) == set(out.iterdir())
    assert main(["run", "--steps", "2", "--out", str(out), "--quiet"]) == 0
    assert main(["run", "--steps", "2", "--out", str(fresh), "--quiet"]) == 0
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    assert files == {path.name: path.read_bytes() for path in fresh.iterdir()}
    assert sorted(files) == ["curves.csv", "mesh_step_0.json", "mesh_step_0.svg",
                             "mesh_step_1.json", "mesh_step_1.svg", "results.csv"]

    # a file of another name stays, and a refused rerun deletes nothing
    (out / "notes.txt").write_text("kept")
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main(["run", "--steps", "1", "--out", str(out), "--quiet", "--reference", "nan"]) == 1
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert main(["run", "--steps", "1", "--out", str(out), "--quiet"]) == 0
    assert (out / "notes.txt").read_text() == "kept"
    assert not (out / "mesh_step_1.json").exists()


@pytest.fixture
def passed_configs(monkeypatch):
    """The configs ``steklov run`` hands to run_experiment; nothing is solved."""
    configs = []

    def fake_run(config, progress=None):
        configs.append(config)

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    monkeypatch.setattr(cli, "emit_outputs", lambda result: [])
    return configs


def test_run_defaults_are_the_config_defaults(tmp_path, passed_configs):
    out = str(tmp_path / "d")
    assert main(["run", "--out", out]) == 0
    assert main(["run", "--out", out, "--quiet"]) == 0
    assert passed_configs == [ExperimentConfig(out_dir=out)] * 2


# one non-default value per ExperimentConfig field but out_dir, as parsed
FLAG_CASES = [
    (["--test", "notched"], "test", "notched"),
    (["--method", "uniform-fem"], "method", "uniform-fem"),
    (["--steps", "3"], "steps", 3),
    (["--mark-frac", "0.25"], "mark_fraction", 0.25),
    (["--tol", "1e-8"], "tol", 1e-8),
    (["--seed", "7"], "seed", 7),
    (["--reference", "3.5"], "reference", 3.5),
    (["--dump-indicators"], "dump_indicators", True),
    (["--dump-matrices"], "dump_matrices", True),
]


def test_flag_cases_cover_every_config_field():
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    assert sorted(name for _, name, _ in FLAG_CASES) == sorted(fields - {"out_dir"})


@pytest.mark.parametrize("flags, name, value", FLAG_CASES, ids=[case[1] for case in FLAG_CASES])
def test_each_run_flag_sets_its_own_field(tmp_path, passed_configs, flags, name, value):
    out = str(tmp_path / "d")
    assert value != getattr(ExperimentConfig(), name)
    assert main(["run", "--out", out, "--quiet", *flags]) == 0
    (config,) = passed_configs
    assert config == dataclasses.replace(ExperimentConfig(out_dir=out), **{name: value})
    assert type(getattr(config, name)) is type(value)


def test_bad_arguments_exit_with_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--test", "cube", "--out", "/tmp/x"])
    assert info.value.code == 2
    # the usage line names each flag's value as the flag, not as its field
    usage = capsys.readouterr().err
    assert "[--mark-frac MARK_FRAC]" in usage and "--out OUT " in usage
    with pytest.raises(SystemExit) as info:
        main(["run", "--eigs", "2", "--out", "/tmp/x"])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def child_env():
    """Environment of a child process that imports the package from where
    this process found it, so it also runs from a source checkout that was
    never installed."""
    src = str(Path(steklov.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_installed_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "steklov.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "rate" in proc.stdout


def test_importing_the_cli_leaves_scipy_io_unloaded():
    # scipy.io is imported only when matrices are dumped: loading it costs
    # every process about 22 ms of start-up
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, steklov.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.io')))"],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a BLAS dot product sums in an order set by its thread count; with one
    # on the float path, steps 10-12 of this run wrote other last digits
    # under two threads than under one
    files = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "steklov.cli", "run", "--test", "notched", "--method", "adaptive-vem",
             "--steps", "13", "--dump-indicators", "--quiet", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**child_env(), "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        files[threads] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert "indicators_step_12.csv" in files["1"]
    assert sorted(files["1"]) == sorted(files["2"])
    assert [name for name in sorted(files["1"]) if files["1"][name] != files["2"][name]] == []


def test_ctrl_c_keeps_the_finished_rows(tmp_path):
    # SIGINT once step 3's progress line is out: rows 0..3 at least are on
    # disk in both tables, with the same N column, and the run ends with one
    # line naming them and the shell's status for SIGINT, not a traceback.
    # The child gets the default SIGINT disposition: one inherited as ignored
    # (a background job of a non-interactive shell) would keep Python from
    # raising KeyboardInterrupt
    out = tmp_path / "stopped"
    proc = subprocess.Popen(
        [sys.executable, "-m", "steklov.cli", "run", "--test", "notched", "--steps", "30", "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    line = ""
    try:
        for line in proc.stdout:
            if line.startswith("step 3 "):
                proc.send_signal(signal.SIGINT)
                break
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert line.startswith("step 3 ") and proc.returncode == 130
    assert err == f"interrupted; the tables in {out} keep every finished step\n"
    ns, curve_ns = table_ns(out)
    assert len(ns) >= 4 and curve_ns == ns
