"""The entry points that run in a process of their own: ``python -m
simposets``, the ``simposets`` console script (``cli.main``) and
``scripts/tally_experiment.py``.  Each runs as a subprocess, so the exit
status and the streams are those a shell sees."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from simposets import RandomModelParams, boolean_lattice, run_batch

ROOT = Path(__file__).resolve().parents[1]
MESSAGE = "Assignment of atoms-atoms or facets-facets invalid."


def launch(*argv, cwd):
    """Run python with ``argv``, the package's source first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


def glue_delta(tmp_path):
    """A glue-delta call whose spec maps a facet but none of its atoms."""
    poset = tmp_path / "b2.json"
    poset.write_text(boolean_lattice(2).to_json())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"facet_map": {"x1*x2": "x1*x2"}, "atom_map": {}}))
    out = str(tmp_path / "out.json")
    return ["glue-delta", "--a", str(poset), "--b", str(poset), "--spec", str(spec), "--out", out]


# One call per documented exit code: argv, status, stdout, stderr.
EXITS = {
    "success": (lambda d: ["check", "--complex", "a*b*c,b*c*d", "--test", "faceposet"], 0, "true\n", ""),
    "malformed input": (
        lambda d: ["check", "--complex", "a*,b", "--test", "simplicial"],
        1,
        "",
        "error: malformed facet in string: 'a*'\n",
    ),
    "size guard": (
        lambda d: ["random", "--n", "13", "--p1", "0.5", "--p2", "0.5", "--seed", "1"],
        2,
        "",
        "error: the random model is guarded at n <= 12\n",
    ),
    "invalid gluing": (glue_delta, 3, "", MESSAGE + "\n"),
}


@pytest.mark.parametrize("name", EXITS)
def test_python_m_simposets_exit_codes(tmp_path, name):
    argv, status, out, err = EXITS[name]
    done = launch("-m", "simposets", *argv(tmp_path), cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (status, out, err)
    assert not (tmp_path / "out.json").exists()


def test_console_script_main_exits_with_the_status_of_run(tmp_path):
    """``cli.main``, the ``simposets`` console script, reads ``sys.argv``
    and exits with the status ``run`` returns."""
    code = "import sys; from simposets.cli import main; sys.argv[0] = 'simposets'; main()"
    done = launch("-c", code, *glue_delta(tmp_path), cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (3, "", MESSAGE + "\n")
    done = launch("-c", code, "random", "--n", "4", "--p1", "1", "--p2", "0", "--seed", "3", "--tally", cwd=tmp_path)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("faceposet: 1/1\n{\n")


def test_tally_experiment_dumps_the_batches_of_run_batch(tmp_path):
    dump = tmp_path / "batches.json"
    script = str(ROOT / "scripts" / "tally_experiment.py")
    argv = ["--n", "6", "--sweep", "0.3", "0.7", "--count", "40", "--seed", "7", "--json", str(dump)]
    done = launch(script, *argv, cwd=tmp_path)
    assert done.returncode == 0 and done.stderr == ""
    batches = [run_batch(RandomModelParams(n=6, p1=p, p2=p, seed=7), 40) for p in (0.3, 0.7)]
    assert json.loads(dump.read_text()) == batches
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["n=6 p1=0.3 p2=0.3 seed=7", "n=6 p1=0.7 p2=0.7 seed=7"]
    for line, batch in zip(lines, batches):
        assert f"faceposet {batch['face_poset_count']}/40 = " in line


def test_tally_experiment_rejects_parameters_as_the_cli_does(tmp_path):
    done = launch(str(ROOT / "scripts" / "tally_experiment.py"), "--n", "13", cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: the random model is guarded at n <= 12\n")
