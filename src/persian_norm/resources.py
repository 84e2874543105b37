"""Reading of the bundled mapping tables and rule files.

All tables are UTF-8 tab-separated resource files with "#" comment lines.
Each is read once, when the module that uses it is imported; a table's
regex is compiled the first time its ``pattern`` is read, so a table used
only for lookups never compiles one.  The resulting structures are
immutable and safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources as importlib_resources


def _data_root():
    return importlib_resources.files("persian_norm") / "data"


def rows(relpath: str) -> list[str]:
    """The lines of a bundled file, without blank and "#" comment lines."""
    text = (_data_root() / relpath).read_text(encoding="utf-8")
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


@dataclass(frozen=True)
class MappingTable:
    """Ordered surface -> replacement table with longest-match-first lookup."""

    entries: tuple[tuple[str, str], ...]
    _lookup: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        surfaces = [s for s, _ in self.entries]
        if any(not s for s in surfaces):
            raise ValueError("empty surface string in mapping table")
        if len(set(surfaces)) != len(surfaces):
            raise ValueError("duplicate surface string in mapping table")
        object.__setattr__(self, "_lookup", dict(self.entries))

    @cached_property
    def pattern(self) -> re.Pattern:
        """Every surface, longest first, as one alternation."""
        ordered = sorted(self._lookup, key=len, reverse=True)
        return re.compile("|".join(re.escape(s) for s in ordered))

    def apply(self, text: str) -> str:
        lookup = self._lookup
        return self.pattern.sub(lambda m: lookup[m.group(0)], text)

    def __contains__(self, surface: str) -> bool:
        return surface in self._lookup

    def __getitem__(self, surface: str) -> str:
        return self._lookup[surface]


def table(name: str) -> MappingTable:
    """Read the bundled table ``<name>.tsv``; a line without a tab maps its
    surface to the empty string."""
    pairs = (ln.partition("\t") for ln in rows(f"{name}.tsv"))
    return MappingTable(entries=tuple((s, r) for s, _, r in pairs))


def fixture_path(name: str):
    return _data_root() / "fixtures" / name
