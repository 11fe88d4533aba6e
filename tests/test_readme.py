"""The README's ``>>>`` examples, run one fenced block at a time, its CLI
session, and its experiment-script transcript."""

import contextlib
import doctest
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from simposets import parse_facet_string
from simposets.cli import run

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# A fenced python block.  Its closing fence follows the last expected output
# directly, so the blocks are cut out before doctest reads them; otherwise
# the fence would count as expected output.
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def test_readme_examples():
    text = README.read_text()
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    globs = {}  # later blocks use names imported by earlier ones
    blocks = list(BLOCK.finditer(text))
    assert blocks, "README has no python examples"
    for k, block in enumerate(blocks, start=1):
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block.group(1), globs, f"README block {k}", str(README), lineno)
        runner.run(test, clear_globs=False)
        globs = test.globs
    assert runner.summarize(verbose=False).failed == 0


# A fenced shell block: ``$ command`` lines, each followed by what it prints.
SHELL = re.compile(r"^```\n(\$ .*?)^```$", re.MULTILINE | re.DOTALL)


def session_steps(text):
    """``(command, printed lines)`` for each ``$`` line of the shell blocks
    from "A session" up to "File formats"."""
    part = text.split("A session:", 1)[1].split("### File formats", 1)[0]
    steps = []
    for block in SHELL.finditer(part):
        for line in block.group(1).splitlines():
            if line.startswith("$ "):
                steps.append((line[2:], []))
            else:
                steps[-1][1].append(line)
    return steps


def test_cli_session_matches_readme(tmp_path, monkeypatch, capsys):
    """Every ``$ simposets`` line of the session and the delta-gluing
    example, run through ``cli.run`` in an empty directory, prints what the
    README shows (stdout, then stderr) and exits 0, or with the code the
    following ``echo $?`` shows.  The inputs are written as the README
    describes them; ``python3 -c`` and ``cat`` lines run in-process."""
    text = README.read_text()
    monkeypatch.chdir(tmp_path)
    # edges.json is the "File formats" example, bowtie.json the face poset of {abc, bcd}
    example = text.split("Poset JSON is the Hasse diagram:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    Path("edges.json").write_text(example)
    Path("bowtie.json").write_text(parse_facet_string("a*b*c,b*c*d").face_poset().to_json())
    steps = session_steps(text)
    spec = "\n".join(next(shown for command, shown in steps if command == "cat spec.json")) + "\n"
    Path("spec.json").write_text(spec)
    bad = json.loads(spec)
    bad["atom_map"].update(x1="x2", x2="x1")
    Path("badspec.json").write_text(json.dumps(bad))
    ran = 0
    for k, (command, shown) in enumerate(steps):
        argv = shlex.split(command, comments=True)
        if argv[0] == "simposets":
            code = run(argv[1:])
            out, err = capsys.readouterr()
            assert (out + err).splitlines() == shown, command
            follow = steps[k + 1] if k + 1 < len(steps) else ("", [])
            assert code == (int(follow[1][0]) if follow[0] == "echo $?" else 0), command
            ran += 1
        elif argv[:2] == ["python3", "-c"] and argv[3] == ">":
            with contextlib.redirect_stdout(io.StringIO()) as out:
                exec(argv[2], {})
            Path(argv[4]).write_text(out.getvalue())
        elif argv[0] == "cat":
            assert Path(argv[1]).read_text().splitlines() == shown
        else:
            assert command == "echo $?", f"no replay for README line: $ {command}"
    assert ran == 10


def run_script(args):
    """``scripts/tally_experiment.py`` with the words of ``args``, on this
    source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "tally_experiment.py"), *args.split()],
        capture_output=True,
        text=True,
        env=env,
    )


def test_tally_experiment_matches_transcript():
    """The experiment script prints the README transcript line for line."""
    args = "--n 6 --count 100 --seed 7 --sweep 0.3 0.5 0.9"
    text = README.read_text()
    prompt = f"$ python3 scripts/tally_experiment.py {args}\n"
    assert prompt in text, "README transcript is missing"
    transcript = text.split(prompt, 1)[1].split("```", 1)[0]
    done = run_script(args)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == transcript.splitlines()


@pytest.mark.parametrize(
    "args, message",
    [
        ("--n 13", "the random model is guarded at n <= 12"),
        ("--count 0", "count must be a positive integer, got 0"),
    ],
)
def test_tally_experiment_rejects_bad_parameters_like_the_cli(args, message, capsys):
    """Input the random model rejects ends the script as it ends
    ``simposets random``: one ``error:`` line and exit 2, no traceback."""
    done = run_script(args)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")
    flag, value = args.split()
    cli_args = {"--n": "6", "--p1": "0.5", "--p2": "0.5", "--seed": "7", "--count": "100", flag: value}
    assert run(["random", *[word for pair in cli_args.items() for word in pair]]) == 2
    assert capsys.readouterr().err == done.stderr
