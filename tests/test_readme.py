"""The Python examples of README.md, run as doctests."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    failed, attempted = doctest.testfile(
        str(README), module_relative=False, encoding="utf-8",
        optionflags=doctest.NORMALIZE_WHITESPACE)
    assert attempted > 0
    assert failed == 0
