"""The README's Python examples, run as doctests.

Only the ```python blocks are examples; `python -m doctest README.md` would
also read each closing fence as expected output, so the blocks are cut out
first."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md block {i}",
                                  str(README), 0)
        assert test.examples
        runner.run(test)
    assert runner.failures == 0
