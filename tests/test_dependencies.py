"""The package runs on the standard library and numpy alone: every module
it imports is one of those, and numpy is the one runtime dependency its
metadata declares."""

import ast
import os
import re
import subprocess
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


# The pipeline of the random model and of the CLI, end to end: a sample,
# its JSON round trip, its ideal, its separation quotient, its
# reconstruction and theta gluing, and ``simposets random``.
PIPELINE = """
import sys
from simposets import (
    Poset, RandomModelParams, are_isomorphic, fiber_relation, quotient_by_gluing,
    rand_simplicial_poset, reconstruct_theta_pair, separation, stanley_poset_ideal, theta_glue,
)
from simposets.cli import run
p = Poset.from_json(rand_simplicial_poset(RandomModelParams(n=8, p1=0.8, p2=0.6, seed=1)).to_json())
stanley_poset_ideal(p).render_lines()
assert are_isomorphic(quotient_by_gluing(fiber_relation(separation(p))), p)
assert are_isomorphic(theta_glue(*reconstruct_theta_pair(p)), p)
assert run(["random", "--n", "6", "--p1", "0.5", "--p2", "0.5", "--seed", "1", "--count", "3"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""


def test_the_pipeline_never_loads_numpy_ma():
    """``np.unique`` imports ``numpy.ma``, whose import takes about 10 ms,
    so every deduplication sorts and tests neighbours instead."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PIPELINE], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
