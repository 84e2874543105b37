"""Character-level canonicalization passes.

Each pass is a total, idempotent function over text: letter variant folding,
digit variant folding, punctuation normalization, markup-entity decoding and
emoji removal.  The inventories live in the tab-separated files under
``persian_norm/data``.
"""

from __future__ import annotations

import html
import re
from functools import lru_cache

from .resources import emoji_ranges, table


@lru_cache(maxsize=None)
def _char_tables():
    # ligatures first so multi-char surfaces win over their constituents
    lig = table("ligature_map")
    chars = table("char_map")
    merged = tuple(lig.entries) + tuple(chars.entries)
    from .resources import MappingTable

    return MappingTable(entries=merged)


def fold_characters(text: str) -> str:
    """Fold Arabic letter variants, decorated Latin letters and ligatures."""
    return _char_tables().apply(text)


def fold_digits(text: str) -> str:
    """Replace every supported digit variant with Persian digits."""
    return table("digit_map").apply(text)


def fold_punctuation(text: str) -> str:
    """Canonicalize punctuation variants and expand vulgar fractions."""
    return table("punct_map").apply(text)


def decode_markup_entities(text: str) -> str:
    """Decode HTML character entities; unknown "&" sequences pass through."""
    return html.unescape(text)


@lru_cache(maxsize=None)
def _emoji_pattern() -> re.Pattern:
    cls = "".join(
        f"{chr(lo)}-{chr(hi)}" if hi > lo else chr(lo)
        for lo, hi in emoji_ranges()
    )
    atom = f"[{cls}]"
    # one emoji with optional variation selector, then ZWJ-joined continuations
    seq = atom + "\ufe0f?(?:\u200d" + atom + "\ufe0f?)*"
    return re.compile(seq)


def strip_emojis(text: str) -> str:
    """Remove emoji sequences and collapse the whitespace they leave behind."""
    out = _emoji_pattern().sub("", text)
    out = re.sub(r"  +", " ", out)
    return out.strip()


def is_emoji_char(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in emoji_ranges())
