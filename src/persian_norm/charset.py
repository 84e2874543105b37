"""Character-level canonicalization passes.

Five passes, named by ``pipeline.PASS_NAMES``, run in this order by
``pipeline.normalize_general``: markup-entity decoding, letter variant
folding, digit variant folding, punctuation normalization and emoji
removal.  Each is a total function over text.  Each is idempotent but
entity decoding, which undoes up to ``ENTITY_DEPTH`` levels of escaping
(``&amp;lt;`` decodes to ``<``): a text escaped more times than that keeps
a level, which a second run decodes.
The inventories live in the tab-separated files under
``persian_norm/data``.

The three fold passes each map characters through one table.
``composed_fold`` gives, for any set of them, one function that folds as
those passes would one after the other: a ``sub`` over the few ligatures
spelled with more than one character, where a ``search`` finds one, then
one table composed from theirs, from the first character that it changes.
A long text is folded one distinct changed character at a time, each by
one ``str.replace`` through the whole text; a short rest, and the rest of
a text with many distinct changed characters, by one ``str.translate``.
A text with nothing to decode, fold, strip or collapse comes back from the
passes as the same object.
"""

from __future__ import annotations

import functools
import html
import re
from collections.abc import Callable, Iterable, Sequence

from .resources import alternation, rows, table

# the fold passes in pipeline order, each with its table
FOLD_TABLES = {
    "fold_characters": table("ligature_map", "char_map"),
    "fold_digits": table("digit_map"),
    "fold_punctuation": table("punct_map"),
}


# more levels of escaping than real text holds: each level costs a pass over
# the whole text, so ``&`` and n times ``amp;`` would cost n passes
ENTITY_DEPTH = 8


# a decimal character reference with a Persian or Arabic-Indic digit, which
# ``html.unescape`` reads only in ASCII digits
_NON_ASCII_CHARREF = re.compile("&#[0-9]*[۰-۹٠-٩][0-9۰-۹٠-٩]*")
_ASCII_DIGITS = str.maketrans("۰۱۲۳۴۵۶۷۸۹٠١٢٣٤٥٦٧٨٩", "0123456789" * 2)


def _ascii_charref(m: re.Match) -> str:
    return m.group().translate(_ASCII_DIGITS)


def decode_markup_entities(text: str) -> str:
    """``html.unescape`` until nothing changes, for up to ``ENTITY_DEPTH``
    levels of escaping: an escaped entity such as ``&amp;#49;`` decodes to
    ``1``, before the digit fold, and not to a reference the fold would
    make unreadable.  Before each level, the digits of a decimal character
    reference are written in ASCII, so ``&#۱۷۴۰;`` decodes as ``&#1740;``
    does."""
    if "&" not in text:  # most text: cost no more than ``html.unescape``
        return text
    for _ in range(ENTITY_DEPTH):
        decoded = html.unescape(_NON_ASCII_CHARREF.sub(_ascii_charref, text))
        if decoded == text:
            break
        text = decoded
    return text


def check_fold_order(tables: Sequence[dict[str, str]]) -> None:
    """Raise ValueError if ``tables`` break the conditions under which
    folding with them composed is folding with each in turn, one changed
    character after another: only the first table may have surfaces of more
    than one character, and no replacement may hold a one-character surface
    of any table."""
    surfaces = {s for tbl in tables for s in tbl if len(s) == 1}
    for i, tbl in enumerate(tables):
        for surface, replacement in tbl.items():
            if i and len(surface) > 1:
                raise ValueError(
                    f"surface {surface!r} of more than one character "
                    f"in fold table {i}")
            held = surfaces.intersection(replacement)
            if held:
                raise ValueError(
                    f"replacement of {surface!r} holds {min(held)!r}, "
                    "a surface of a fold table")


check_fold_order(tuple(FOLD_TABLES.values()))

# a code point missing from a translate table costs ``str.translate`` a
# raised and cleared KeyError; ASCII, the Arabic block and ZWNJ are most of
# the text, so those absent from every fold table map to themselves
_COMMON = {cp: cp for cp in (*range(0x80), *range(0x600, 0x700), 0x200C)}

# a replace step has a fixed cost of about 0.5 us, what translating about 12
# characters costs, and a line of prose holds several distinct changed
# characters: a rest shorter than this is translated
_LONG_REST = 256
# on 1 M characters a ``replace`` costs 0.5-0.7 ms and the ``translate``
# about 42 ms: translating the rest after this many replacements bounds the
# fold at about twice a plain translate (ski rental)
_REPLACE_BUDGET = 64


def _changed_class(codepoints: Iterable[int]) -> re.Pattern:
    """One character class of ``codepoints``, each run of consecutive code
    points written as one range: ``re`` tests the astral items of a class
    one after another."""
    items = []
    for cp in sorted(codepoints):
        if items and items[-1][1] == cp - 1:
            items[-1][1] = cp
        else:
            items.append([cp, cp])
    return re.compile("[" + "".join(
        re.escape(chr(lo)) + (f"-{re.escape(chr(hi))}" if hi > lo else "")
        for lo, hi in items) + "]")


@functools.cache
def composed_fold(passes: frozenset[str]) -> Callable[[str], str]:
    """The fold passes named in ``passes`` (other names are ignored) as one
    function, built once per set of names.

    The function runs the ligature ``sub`` only where a ``search`` finds a
    ligature, then searches one class of the code points that the composed
    table changes: a text without one is returned as it is.  While at least
    ``_LONG_REST`` characters are left from the match on, and fewer than
    ``_REPLACE_BUDGET`` distinct characters have been replaced, every
    occurrence of the matched character is replaced and the search resumes at the match;
    what is left is translated from the match on."""
    tables = [tbl for name, tbl in FOLD_TABLES.items() if name in passes]
    if not tables:
        return lambda text: text
    # ``check_fold_order`` keeps every replacement clear of the surfaces of
    # every table, so a surface folds, through all the tables in turn, to
    # its replacement in the first table that has it, and no replacement is
    # changed by a later one, whether the surfaces are translated at once or
    # replaced one after another; and it keeps the ligatures (the longer
    # surfaces) in the first table, so the fold after their sub leaves their
    # replacements as they are
    folded = {}
    for tbl in reversed(tables):
        folded.update((ord(s), r) for s, r in tbl.items() if len(s) == 1)
    # no replacement holds its own surface, so every surface is changed
    changed = _changed_class(folded)
    mapping = {**_COMMON, **folded}
    ligatures = {s: r for s, r in tables[0].items() if len(s) > 1}
    ligature_pat = alternation(ligatures) if ligatures else None

    def expand(m):
        return ligatures[m.group()]

    def fold(text: str) -> str:
        if ligature_pat is not None and ligature_pat.search(text):
            text = ligature_pat.sub(expand, text)
        m = changed.search(text)
        if m is None:
            return text
        # the characters before the first changed one are their own fold,
        # and no replacement holds a surface, so a replaced character is
        # gone from the whole text and the search resumes where it stood
        i = m.start()
        replaced = 0
        while len(text) - i >= _LONG_REST and replaced < _REPLACE_BUDGET:
            c = m.group()
            text = text.replace(c, mapping[ord(c)])
            replaced += 1
            m = changed.search(text, i)
            if m is None:
                return text
            i = m.start()
        return text[:i] + text[i:].translate(mapping)

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
    """Remove emoji sequences, collapse every run of spaces (those an emoji
    leaves behind and those the text had) to one, and strip whitespace at
    both ends."""
    if _EMOJI_GUARD.search(text):
        text = _EMOJI_PAT.sub("", text)
    if "  " in text:
        text = _SPACES.sub(" ", text)
    return text.strip()
