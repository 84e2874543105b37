"""Reading of the bundled mapping tables and rule files.

All tables are UTF-8 tab-separated resource files with "#" comment lines.
Each is read once, into a plain dict, when the module that uses it is
imported; that module also compiles, once, any ``alternation`` over a
table's surfaces.  Nothing changes a table after it is read, so the tables
are safe to share between threads.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable


def _data_root():
    # the directory beside this module: importing ``importlib.resources``
    # loads ``inspect``, ``tempfile`` and ``pathlib`` on Python 3.12 and later
    return os.path.join(os.path.dirname(__file__), "data")


def rows(relpath: str) -> list[str]:
    """The lines of a bundled file, without blank and "#" comment lines."""
    with open(os.path.join(_data_root(), relpath), encoding="utf-8") as fh:
        text = fh.read()
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def table(*names: str) -> dict[str, str]:
    """Surface -> replacement from the bundled tables ``<name>.tsv``, in file
    order; a line without a tab maps its surface to the empty string.
    Raises ValueError on an empty surface, and on a surface repeated within
    a file or across the files."""
    out: dict[str, str] = {}
    for name in names:
        for ln in rows(f"{name}.tsv"):
            surface, _, replacement = ln.partition("\t")
            if not surface:
                raise ValueError(f"empty surface string in {name}.tsv")
            if surface in out:
                raise ValueError(f"duplicate surface {surface!r} in {name}.tsv")
            out[surface] = replacement
    return out


def alternation(surfaces: Iterable[str]) -> re.Pattern:
    """Every surface, longest first, as one compiled alternation."""
    ordered = sorted(surfaces, key=len, reverse=True)
    return re.compile("|".join(re.escape(s) for s in ordered))


def fixture_path(name: str) -> str:
    return os.path.join(_data_root(), "fixtures", name)
