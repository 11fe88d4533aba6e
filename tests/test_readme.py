"""The README's ``>>>`` examples, run one fenced block at a time, and its
experiment-script transcript."""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_tally_experiment_matches_transcript():
    """The experiment script prints the README transcript line for line."""
    args = "--n 6 --count 100 --seed 7 --sweep 0.3 0.5 0.9"
    text = README.read_text()
    prompt = f"$ python3 scripts/tally_experiment.py {args}\n"
    assert prompt in text, "README transcript is missing"
    transcript = text.split(prompt, 1)[1].split("```", 1)[0]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "tally_experiment.py"), *args.split()],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout
    assert out.splitlines() == transcript.splitlines()
