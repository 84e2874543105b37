"""Persian number-to-words conversion (cardinal, ordinal, decimal, grouped).

Covers 0 .. 10**15 - 1 with triple grouping and the scale words
هزار / میلیون / میلیارد / هزار میلیارد.  ``words_to_number`` is the exact
inverse of ``cardinal_words`` and doubles as the test oracle.
"""

from __future__ import annotations

from functools import lru_cache

ZWNJ = "‌"
MAX_VALUE = 10**15

ONES = ["صفر", "یک", "دو", "سه", "چهار", "پنج", "شش", "هفت", "هشت", "نه"]
TEENS = [
    "ده", "یازده", "دوازده", "سیزده", "چهارده",
    "پانزده", "شانزده", "هفده", "هجده", "نوزده",
]
TENS = [
    "", "", "بیست", "سی", "چهل", "پنجاه", "شصت", "هفتاد", "هشتاد", "نود",
]
HUNDREDS = [
    "", "صد", "دویست", "سیصد", "چهارصد",
    "پانصد", "ششصد", "هفتصد", "هشتصد", "نهصد",
]
SCALES = ["", "هزار", "میلیون", "میلیارد", "هزار میلیارد"]

FRACTION_PLACES = ["دهم", "صدم", "هزارم"]

CONJ = " و "

DIGITS = "0123456789۰۱۲۳۴۵۶۷۸۹٠١٢٣٤٥٦٧٨٩"  # ASCII, Persian, Arabic-Indic
ZEROS = DIGITS[::10]


def _three_digit_words(n: int) -> str:
    parts = []
    if n >= 100:
        parts.append(HUNDREDS[n // 100])
        n %= 100
    if n >= 20:
        parts.append(TENS[n // 10])
        n %= 10
    elif n >= 10:
        parts.append(TEENS[n - 10])
        n = 0
    if n > 0:
        parts.append(ONES[n])
    return CONJ.join(parts)


@lru_cache(maxsize=65536)
def cardinal_words(n: int) -> str:
    """Standard Persian cardinal reading of a non-negative integer."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"expected int, got {type(n).__name__}")
    if n < 0 or n >= MAX_VALUE:
        raise ValueError(f"value out of range [0, 10^15): {n}")
    if n == 0:
        return ONES[0]
    groups = []
    scale_idx = 0
    while n > 0:
        groups.append((n % 1000, scale_idx))
        n //= 1000
        scale_idx += 1
    parts = []
    for value, idx in reversed(groups):
        if value == 0:
            continue
        scale = SCALES[idx]
        if value == 1 and scale.startswith("هزار"):
            parts.append(scale)
        elif scale:
            parts.append(f"{_three_digit_words(value)} {scale}")
        else:
            parts.append(_three_digit_words(value))
    return CONJ.join(parts)


def ordinal_words(n: int, first_form: str = "یکم") -> str:
    """Persian ordinal; ``first_form`` picks "یکم" or "اول" for 1."""
    if n < 1:
        raise ValueError(f"ordinal requires a positive integer, got {n}")
    if n == 1:
        return first_form
    words = cardinal_words(n)
    tokens = words.split(" ")
    last = tokens[-1]
    if last == "سه":
        tokens[-1] = "سوم"
    elif last == "یک":
        tokens[-1] = "یکم"
    elif last.endswith("ی"):
        tokens[-1] = last + ZWNJ + "ام"
    else:
        tokens[-1] = last + "م"
    return " ".join(tokens)


def decimal_words(integer_part: str, fraction_part: str) -> str:
    """Read a decimal number: integer, "ممیز", fraction with place value."""
    if not integer_part or not fraction_part:
        raise ValueError("both integer and fraction parts must be non-empty")
    if integer_part.lstrip(DIGITS) or fraction_part.lstrip(DIGITS):
        raise ValueError("decimal parts must be digit strings of the three scripts")
    int_words = cardinal_words(int(integer_part))
    if len(fraction_part) <= len(FRACTION_PLACES):
        frac_words = cardinal_words(int(fraction_part))
        place = FRACTION_PLACES[len(fraction_part) - 1]
        return f"{int_words} ممیز {frac_words} {place}"
    digits = " ".join(ONES[int(d)] for d in fraction_part)
    return f"{int_words} ممیز {digits}"


def grouped_digit_words(digits: str, group_sizes: list[int]) -> str:
    """Read a digit string group by group (phone/ID style).

    A group's leading zeros, each one of ``ZEROS``, are each read "صفر";
    the remainder is a cardinal.  Groups are joined by single spaces
    without a conjunction.
    """
    if not digits or digits.lstrip(DIGITS):
        raise ValueError("digits must be a digit string of the three scripts")
    if any(s not in (1, 2, 3, 4) for s in group_sizes):
        raise ValueError(f"group sizes must be in 1..4: {group_sizes}")
    if sum(group_sizes) != len(digits):
        raise ValueError(
            f"group sizes {group_sizes} do not cover {len(digits)} digits"
        )
    words, pos = [], 0
    for size in group_sizes:
        words.append(_group_words(digits[pos:pos + size]))
        pos += size
    return " ".join(words)


def _group_words(group: str) -> str:
    """One group of ``grouped_digit_words``, its digits unchecked."""
    stripped = group.lstrip(ZEROS)
    zeros = [ONES[0]] * (len(group) - len(stripped))
    return " ".join([*zeros, cardinal_words(int(stripped))] if stripped else zeros)


def _word_ends(group: str) -> int:
    """Bit k-1 set where a word of the group's reading ends after digit k.

    Each leading zero is one word ("صفر"), the rest one cardinal; two
    groupings of a digit string read the same exactly when their words end
    at the same digits.
    """
    zeros = len(group) - len(group.lstrip(ZEROS))
    return ((1 << zeros) - 1) | (1 << (len(group) - 1))


def _scale_tokens(words: str) -> list[str]:
    # the 10^12 scale is the bigram "هزار میلیارد": a "میلیارد" joins the
    # bare "هزار" kept before it
    merged = []
    for t in words.split(" "):
        if t == "میلیارد" and merged and merged[-1] == "هزار":
            merged[-1] = "هزار میلیارد"
        elif t and t != "و":
            merged.append(t)
    return merged


_UNIT_VALUES = {
    **{w: i for i, w in enumerate(ONES)},
    **{w: 10 + i for i, w in enumerate(TEENS)},
    **{w: 10 * i for i, w in enumerate(TENS) if w},
    **{w: 100 * i for i, w in enumerate(HUNDREDS) if w},
}
_SCALE_VALUES = {scale: 1000**i for i, scale in enumerate(SCALES) if scale}


def words_to_number(words: str) -> int:
    """Inverse of :func:`cardinal_words`; rejects malformed input."""
    tokens = _scale_tokens(words.strip())
    if not tokens:
        raise ValueError("empty number words")
    total = 0
    current = 0
    for token in tokens:
        if token in _SCALE_VALUES:
            total += (current or 1) * _SCALE_VALUES[token]
            current = 0
        elif token in _UNIT_VALUES:
            current += _UNIT_VALUES[token]
        else:
            raise ValueError(f"unknown number word: {token!r}")
    return total + current


def group_words_to_digits(words: str, size: int) -> str:
    """Parse one spoken group back to its zero-padded digit string."""
    tokens = words.split(" ")
    zeros = 0
    while zeros < len(tokens) and tokens[zeros] == ONES[0]:
        zeros += 1
    rest = " ".join(tokens[zeros:])
    if rest:
        value = words_to_number(rest)
        out = "0" * zeros + str(value)
    else:
        out = "0" * zeros
    if len(out) != size:
        raise ValueError(f"parsed group {out!r} does not fit size {size}")
    return out
