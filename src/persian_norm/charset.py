"""Character-level canonicalization passes.

Five passes, named by ``pipeline.PASS_NAMES``, run in this order by
``pipeline.normalize_general``: markup-entity decoding (``html.unescape``),
letter variant folding, digit variant folding, punctuation normalization
and emoji removal.  Each is a total function over text, idempotent but
markup-entity decoding, which undoes one level of escaping per run:
``&amp;lt;`` decodes to ``&lt;``, and that to ``<``.  The inventories live
in the tab-separated files under ``persian_norm/data``.

The three fold passes each map characters through one table.
``composed_fold`` gives, for any set of them, one function that folds as
those passes would one after the other: a ``sub`` over the few ligatures
spelled with more than one character, then a single ``str.translate``
through one table composed from theirs.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Callable, Sequence

from .resources import alternation, rows, table

# the fold passes in pipeline order, each with its table
FOLD_TABLES = {
    "fold_characters": table("ligature_map", "char_map"),
    "fold_digits": table("digit_map"),
    "fold_punctuation": table("punct_map"),
}


def check_fold_order(tables: Sequence[dict[str, str]]) -> None:
    """Raise ValueError if ``tables`` break the conditions under which
    folding with them composed is folding with each in turn: only the first
    table may have surfaces of more than one character, and no replacement
    may hold a one-character surface of its own table or of a later one."""
    for i, tbl in enumerate(tables):
        later = {s for t in tables[i:] for s in t if len(s) == 1}
        for surface, replacement in tbl.items():
            if i and len(surface) > 1:
                raise ValueError(
                    f"surface {surface!r} of more than one character "
                    f"in fold table {i}")
            held = later.intersection(replacement)
            if held:
                raise ValueError(
                    f"replacement of {surface!r} holds {min(held)!r}, "
                    f"a surface of fold table {i} or a later one")


check_fold_order(tuple(FOLD_TABLES.values()))

# a code point missing from a translate table costs ``str.translate`` a
# raised and cleared KeyError; ASCII, the Arabic block and ZWNJ are most of
# the text, so those absent from every fold table map to themselves
_COMMON = {cp: cp for cp in (*range(0x80), *range(0x600, 0x700), 0x200C)}


@functools.cache
def composed_fold(passes: frozenset[str]) -> Callable[[str], str]:
    """The fold passes named in ``passes`` (other names are ignored) as one
    function, built once per set of names."""
    tables = [tbl for name, tbl in FOLD_TABLES.items() if name in passes]
    # ``check_fold_order`` keeps every replacement clear of the surfaces of
    # its own and later tables, so a surface folds, through all the tables
    # in turn, to its replacement in the first table that has it; and it
    # keeps the ligatures (the longer surfaces) in the first table, so the
    # translate after their sub leaves their replacements as they are
    mapping = dict(_COMMON)
    for tbl in reversed(tables):
        mapping.update((ord(s), r) for s, r in tbl.items() if len(s) == 1)
    ligatures = {s: r for s, r in tables[0].items() if len(s) > 1} if tables else {}
    ligature_pat = alternation(ligatures) if ligatures else None

    def expand(m):
        return ligatures[m.group()]

    def fold(text: str) -> str:
        if ligature_pat is not None:
            text = ligature_pat.sub(expand, text)
        out = text.translate(mapping)
        # translate always copies: an unchanged text comes back as itself
        return text if out == text else out

    return fold


# one "LO-HI" range of hexadecimal code points per line
_EMOJI_RANGES = tuple(
    (int(lo, 16), int(hi, 16))
    for lo, hi in (ln.split("-") for ln in rows("emoji_ranges.txt"))
)
_EMOJI_ATOM = "[" + "".join(
    f"{chr(lo)}-{chr(hi)}" if hi > lo else chr(lo) for lo, hi in _EMOJI_RANGES
) + "]"
# one emoji with optional variation selector, then ZWJ-joined continuations
_EMOJI_PAT = re.compile(
    _EMOJI_ATOM + "\ufe0f?(?:\u200d" + _EMOJI_ATOM + "\ufe0f?)*")
# a character at or above the lowest emoji code point; the negated class
# compiles far faster than the range up to U+10FFFF
_EMOJI_GUARD = re.compile(
    f"[^\\x00-\\U{min(lo for lo, _ in _EMOJI_RANGES) - 1:08x}]")
_SPACES = re.compile("  +")


def strip_emojis(text: str) -> str:
    """Remove emoji sequences and collapse the whitespace they leave behind."""
    if _EMOJI_GUARD.search(text):
        text = _EMOJI_PAT.sub("", text)
    return _SPACES.sub(" ", text).strip()
