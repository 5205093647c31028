"""Command line interface: subcommands, exit codes, output files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steklov
from steklov import experiments
from steklov.cli import main
from steklov.experiments import initial_mesh, read_results_csv
from steklov.mesh import load_mesh, save_mesh

from test_eigensolver import two_disconnected_squares
from test_experiments import failing_second_solve


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


def test_run_dump_flags_produce_files(tmp_path):
    out = tmp_path / "dumps"
    code = main(
        ["run", "--steps", "1", "--out", str(out), "--quiet",
         "--dump-indicators", "--dump-matrices"]
    )
    assert code == 0
    assert (out / "indicators_step_0.csv").exists()
    assert (out / "stiffness_step_0.txt").exists()
    assert (out / "boundary_mass_step_0.txt").exists()


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


def test_rate_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--steps", "5", "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    code = main(["rate", "--csv", str(out / "results.csv"), "--last", "4"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("slope -")
    assert "over 4 points" in text
    # windows below three points are refused, not silently widened or shifted
    for last in ("0", "-2"):
        assert main(["rate", "--csv", str(out / "results.csv"), "--last", last]) == 1
        assert "window" in capsys.readouterr().err


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
    failing_second_solve(monkeypatch)
    code = main(["run", "--steps", "2", "--out", str(tmp_path / "fail"), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: no convergence")


def test_disconnected_mesh_exits_with_message(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "initial_mesh", lambda test: two_disconnected_squares())
    code = main(["run", "--steps", "1", "--out", str(tmp_path / "split"), "--quiet"])
    assert code == 1
    assert "disconnected: its stiffness graph has 2 connected components" in capsys.readouterr().err


def test_bad_arguments_exit_with_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--test", "cube", "--out", "/tmp/x"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["run", "--eigs", "2", "--out", "/tmp/x"])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_installed_entry_point_help():
    # the child imports the package from where this process found it, so the
    # check also runs from a source checkout that was never installed
    src = str(Path(steklov.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "steklov.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "rate" in proc.stdout
