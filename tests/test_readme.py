"""The README's Python quickstart runs as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_pass():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    test = doctest.DocTestParser().get_doctest("".join(blocks), {}, "README.md", str(README), 0)
    assert test.examples
    report = []
    results = doctest.DocTestRunner(verbose=False).run(test, out=report.append)
    assert results.failed == 0, "".join(report)
    assert results.attempted == len(test.examples)
