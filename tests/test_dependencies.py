"""The package runs on the standard library and numpy alone: every module
it imports is one of those, and numpy is the one runtime dependency its
metadata declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "simposets"


def test_the_package_imports_only_the_standard_library_and_numpy():
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported - set(sys.stdlib_module_names) == {"numpy"}


def test_numpy_is_the_only_declared_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group().lower() for dep in meta["project"]["dependencies"]]
    assert names == ["numpy"]
