"""Command line interface: subcommands, exit codes, output files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steklov
from steklov.cli import main
from steklov.experiments import initial_mesh
from steklov.mesh import save_mesh


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
    assert lines[-1].startswith("wrote ")
    assert (out / "results.csv").exists()
    assert (out / "curves.csv").exists()
    for k in range(3):
        assert (out / f"mesh_step_{k}.json").exists()
        assert (out / f"mesh_step_{k}.svg").exists()


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


def test_run_reference_override(tmp_path):
    out = tmp_path / "ref"
    code = main(
        ["run", "--steps", "1", "--out", str(out), "--quiet", "--reference", "3.0"]
    )
    assert code == 0
    header, row = (out / "results.csv").read_text().splitlines()
    lam, err = float(row.split(",")[2]), float(row.split(",")[3])
    assert abs(err - abs(lam - 3.0)) < 1e-15


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
        ([[0, 1, 2, 3]], [{"tag": "gamma0"}] + boundary[1:]),
        ([[0, 1, 2, 3]], boundary[:3] + [[3, 0]]),
        ([[0, 1, 2, 3.7]], boundary),
    ]
    for cells, items in cases:
        path.write_text(json.dumps({"vertices": square, "cells": cells, "boundary": items}))
        assert main(["mesh", "validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        assert captured.err.startswith("error: ")


def test_missing_file_is_reported_not_raised(tmp_path, capsys):
    assert main(["mesh", "validate", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_solver_failure_maps_to_exit_code(tmp_path, capsys):
    out = tmp_path / "fail"
    code = main(["run", "--steps", "1", "--eigs", "99", "--out", str(out), "--quiet"])
    assert code == 1
    assert "finite positive" in capsys.readouterr().err


def test_bad_arguments_exit_with_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--test", "cube", "--out", "/tmp/x"])
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
