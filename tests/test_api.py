"""Public API surface: every exported name resolves, importing one module
loads no other of the package, and the README's Python example and
command-line transcripts run as shown."""

import ast
import importlib
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import steklov
from steklov.cli import main

from test_cli import child_env

MODULES = sorted(info.name for info in pkgutil.iter_modules(steklov.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_module_all_name_resolves():
    assert MODULES
    for name in MODULES:
        module = importlib.import_module(f"steklov.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"steklov.{name}.__all__ lists missing names {missing}"


def test_importing_one_module_loads_no_other_of_the_package():
    # the package namespace is empty: every name is imported from its module
    tree = ast.parse(Path(steklov.__file__).read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert ast.get_docstring(tree)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, steklov.mesh; print(sorted(m for m in sys.modules if m.split('.')[0] == 'steklov'))"],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['steklov', 'steklov.mesh']\n"


def test_readme_python_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    result = namespace["result"]
    # the relation the paragraph after the example states
    assert len(result.meshes) == len(result.records) == len(result.marks)
    assert capsys.readouterr().out.count("\n") == len(result.records) + 1


def test_readme_command_line_transcripts_print_what_they_show(tmp_path, monkeypatch, capsys):
    # every `$ steklov ...` line of the README's shell blocks, in order, from
    # one directory; a `...` line stands for the lines it leaves out
    monkeypatch.chdir(tmp_path)
    ran = 0
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S):
        lines = block.splitlines()
        starts = [k for k, line in enumerate(lines) if line.startswith("$ ")]
        for k, end in zip(starts, starts[1:] + [len(lines)]):
            program, *argv = shlex.split(lines[k][2:])
            assert program == "steklov"
            assert main(argv) == 0, lines[k]
            shown = "\n".join(lines[k + 1:end]).strip().splitlines()
            pattern = "\n".join(".*" if line == "..." else re.escape(line) for line in shown)
            printed = capsys.readouterr().out
            assert re.fullmatch(pattern + "\n", printed, flags=re.S), f"{lines[k]}\n{printed}"
            ran += 1
    assert ran == 3
