"""Public API surface: every exported name resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import steklov

MODULES = sorted(info.name for info in pkgutil.iter_modules(steklov.__path__))


def test_every_module_all_name_resolves():
    assert MODULES
    for name in MODULES:
        module = importlib.import_module(f"steklov.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"steklov.{name}.__all__ lists missing names {missing}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(steklov.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"steklov.{node.module}")
        for alias in node.names:
            assert hasattr(steklov, alias.name), alias.name
            assert alias.name in module.__all__, f"{alias.name} is not in steklov.{node.module}.__all__"
