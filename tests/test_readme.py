"""README.md against the package: its Python examples, run as doctests,
and the names the package exports."""

import doctest
import re
from pathlib import Path

import persian_norm

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    failed, attempted = doctest.testfile(
        str(README), module_relative=False, encoding="utf-8",
        optionflags=doctest.NORMALIZE_WHITESPACE)
    assert attempted > 0
    assert failed == 0


def test_every_export_is_documented():
    words = set(re.findall(r"\w+", README.read_text(encoding="utf-8")))
    assert [name for name in persian_norm.__all__ if name not in words] == []
