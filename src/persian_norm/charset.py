"""Character-level canonicalization passes.

Each pass is a total, idempotent function over text: letter variant folding,
digit variant folding, punctuation normalization, markup-entity decoding and
emoji removal.  The inventories live in the tab-separated files under
``persian_norm/data``.
"""

from __future__ import annotations

import html
import re

from .resources import alternation, rows, table

# each table's alternation tries its longest surfaces first, so a ligature
# wins over the letters it is spelled with
_CHARS = table("ligature_map", "char_map")
_CHARS_PAT = alternation(_CHARS)
_DIGITS = table("digit_map")
_DIGITS_PAT = alternation(_DIGITS)
_PUNCT = table("punct_map")
_PUNCT_PAT = alternation(_PUNCT)


def fold_characters(text: str) -> str:
    """Fold Arabic letter variants, decorated Latin letters and ligatures."""
    return _CHARS_PAT.sub(lambda m: _CHARS[m.group(0)], text)


def fold_digits(text: str) -> str:
    """Replace every supported digit variant with Persian digits."""
    return _DIGITS_PAT.sub(lambda m: _DIGITS[m.group(0)], text)


def fold_punctuation(text: str) -> str:
    """Canonicalize punctuation variants and expand vulgar fractions."""
    return _PUNCT_PAT.sub(lambda m: _PUNCT[m.group(0)], text)


def decode_markup_entities(text: str) -> str:
    """Decode HTML character entities; unknown "&" sequences pass through."""
    return html.unescape(text)


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


def strip_emojis(text: str) -> str:
    """Remove emoji sequences and collapse the whitespace they leave behind."""
    out = _EMOJI_PAT.sub("", text)
    out = re.sub(r"  +", " ", out)
    return out.strip()


def is_emoji_char(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _EMOJI_RANGES)
