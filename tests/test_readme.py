"""The README's ``>>>`` examples, run one fenced block at a time."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

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
