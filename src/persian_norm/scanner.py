"""Detection and classification of non-standard words (semiotic classes).

``scan`` finds every date, time, phone number, national ID, card number,
Sheba, URL, email, currency amount, symbol, abbreviation and digit run in a
text and returns typed, non-overlapping spans for the verbalizers.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from operator import itemgetter, mul
from typing import NamedTuple

from .numwords import DIGITS
from .resources import alternation, table

# the spoken-form tables of the classes found by table lookup; ``verbalize``
# reads the same tables
CURRENCIES = table("currencies")
SYMBOLS = table("symbols")
MATH_SYMBOLS = table("math_symbols")
ABBREV_FA = table("abbrev_fa")

# the Latin letters, written out: importing ``string`` for them costs about
# 0.7 ms of set-up
_LATIN_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

# the digits scanned; the checks below read them as written, in any mix of
# scripts, after a ``lstrip(DIGITS)`` guard (``int`` takes "_")
D = f"[{DIGITS}]"


class Calendar(Enum):
    SOLAR_HIJRI = "SOLAR_HIJRI"
    GREGORIAN = "GREGORIAN"
    LUNAR_HIJRI = "LUNAR_HIJRI"


class PhoneKind(Enum):
    MOBILE = "MOBILE"
    LANDLINE = "LANDLINE"


SOLAR_MONTHS = [
    "فروردین", "اردیبهشت", "خرداد", "تیر", "مرداد", "شهریور",
    "مهر", "آبان", "آذر", "دی", "بهمن", "اسفند",
]
GREGORIAN_MONTHS = [
    "ژانویه", "فوریه", "مارس", "آوریل", "مه", "ژوئن",
    "ژوئیه", "اوت", "سپتامبر", "اکتبر", "نوامبر", "دسامبر",
]
LUNAR_MONTHS = [
    "محرم", "صفر", "ربیع‌الاول", "ربیع‌الثانی", "جمادی‌الاول",
    "جمادی‌الثانی", "رجب", "شعبان", "رمضان", "شوال", "ذیقعده", "ذیحجه",
]

MONTH_NAMES = {
    Calendar.SOLAR_HIJRI: SOLAR_MONTHS,
    Calendar.GREGORIAN: GREGORIAN_MONTHS,
    Calendar.LUNAR_HIJRI: LUNAR_MONTHS,
}


def _is_solar_hijri_leap(year: int) -> bool:
    """The 33-year arithmetic rule (Borkowski 1996, *Earth, Moon, and
    Planets* 74): 8 leap years in every 33.  It agrees with the astronomical
    calendar, whose year starts at the vernal equinox reckoned at Tehran,
    for the years 1178-1634 AP (1799-2256 CE); outside them it is applied
    as is."""
    return (25 * year + 11) % 33 < 8


def _month_length(calendar: Calendar, year: int, month: int) -> int:
    if calendar is Calendar.SOLAR_HIJRI:
        if month <= 6:
            return 31
        if month <= 11:
            return 30
        return 30 if _is_solar_hijri_leap(year) else 29
    if calendar is Calendar.GREGORIAN:
        if month == 2:
            leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
            return 29 if leap else 28
        return 30 if month in (4, 6, 9, 11) else 31
    return 30  # lunar months have 29 or 30 days


class CalendarDate(namedtuple("CalendarDate", "calendar year month day")):
    """A calendar date, checked against its month's length when built."""

    __slots__ = ()

    def __new__(cls, calendar: Calendar, year: int, month: int, day: int):
        if year < 1:
            raise ValueError(f"invalid year: {year}")
        if not 1 <= month <= 12:
            raise ValueError(f"invalid month: {month}")
        if not 1 <= day <= _month_length(calendar, year, month):
            raise ValueError(
                f"invalid day {day} for month {month} ({calendar.value})")
        return super().__new__(cls, calendar, year, month, day)

    @classmethod
    def _make(cls, fields):  # so that ``_replace`` checks the fields too
        return cls(*fields)


class SemioticSpan(NamedTuple):
    """One span of ``scan``: ``raw`` is ``text[start:end]``."""
    start: int
    end: int
    cls: SemioticClass
    raw: str
    data: dict


def infer_calendar(year: int, lunar_context: bool = False) -> Calendar:
    """Guess the calendar of a year per the documented thresholds."""
    if year < 1:
        raise ValueError(f"invalid year: {year}")
    if lunar_context:
        return Calendar.LUNAR_HIJRI
    if year >= 1700:
        return Calendar.GREGORIAN
    return Calendar.SOLAR_HIJRI


_CUE_WORDS = frozenset(table("phone_cues"))
# each code's value: a code is three digits, "0" first, so a run's first
# three digits, in any script, hold a code exactly when their value is one
_AREA_CODES = frozenset(int(code) for code in table("area_codes"))


def classify_phone(digits: str, left_context: str = "",
                   right_context: str = "") -> PhoneKind | None:
    """Classify a digit run as a phone number from shape and context."""
    if digits.lstrip(DIGITS):
        return None
    if len(digits) == 11 and int(digits[:2]) == 9:  # "09"
        return PhoneKind.MOBILE
    if len(digits) == 11 and int(digits[:3]) in _AREA_CODES:
        return PhoneKind.LANDLINE
    if len(digits) == 8:
        context = f"{left_context} {right_context}"
        if any(cue in context for cue in _CUE_WORDS):
            return PhoneKind.LANDLINE
    return None


# each digit of the three scripts -> the character whose code is its value,
# so that a run read through it and encoded is the bytes of its values
_DIGIT_VALUES = str.maketrans({c: chr(int(c)) for c in DIGITS})
# Luhn's value of a doubled digit, indexed by the digit
_LUHN_DOUBLED = bytes(2 * d - 9 * (d > 4) for d in range(10)).ljust(256, b"\0")


def validate_national_id(digits: str) -> bool:
    """Iranian national-ID mod-11 checksum (all-same strings rejected)."""
    if len(digits) != 10 or digits.lstrip(DIGITS):
        raise ValueError("national ID must be exactly 10 digits")
    values = digits.translate(_DIGIT_VALUES).encode()
    if values.count(values[0]) == 10:
        return False
    r = sum(map(mul, values, range(10, 1, -1))) % 11
    return values[9] == (r if r < 2 else 11 - r)


def validate_card(digits: str) -> bool:
    """Luhn mod-10 check for 16-digit card numbers (all-same rejected)."""
    if len(digits) != 16 or digits.lstrip(DIGITS):
        raise ValueError("card number must be exactly 16 digits")
    values = digits.translate(_DIGIT_VALUES).encode()
    if values.count(values[0]) == 16:
        return False
    # from the right, every second digit is doubled, the last one not
    total = sum(values[-1::-2]) + sum(values[-2::-2].translate(_LUHN_DOUBLED))
    return total % 10 == 0


def validate_sheba(candidate: str) -> bool:
    """IBAN mod-97 check for "IR" + 24 digits; False on malformed input."""
    candidate = candidate.strip()
    digits = candidate[2:]
    if candidate[:2] != "IR" or len(digits) != 24 or digits.lstrip(DIGITS):
        return False
    return int(digits[2:] + "1827" + digits[:2]) % 97 == 1  # I=18, R=27


# --- detectors -------------------------------------------------------------
#
# A detector is a pattern plus a function from one of its matches (and the
# text) to a candidate ``(cls, start, end, data)``, or to None when a check
# on the match fails.

# The date, time, digit-run, decimal, long-number and fraction rows open on
# a digit not preceded by one.  Written as a digit and then a lookbehind,
# rather than a lookbehind first, the pattern starts with a digit, so ``re``
# tries a match only at digits.  The character just matched is that digit,
# so the lookbehind tests only the one before it (``{D}.``, not ``{D}{D}``).
_DATE_PAT = re.compile(
    rf"({D}(?<!{D}.){D}{{0,3}})([/.\-])({D}{{1,2}})\2({D}{{1,4}})(?!{D})"
)


# a lunar month name within 20 characters of a date makes it lunar
_LUNAR_MONTH_PAT = alternation(LUNAR_MONTHS)


def _date(m, text):
    a, _, b, c = m.groups()
    a_i, b_i, c_i = int(a), int(b), int(c)
    if len(a) >= 3 or a_i > 31:
        y, mo, d = a_i, b_i, c_i
    elif len(c) >= 3 or c_i > 31:
        d, mo, y = a_i, b_i, c_i
    else:
        return None
    lunar = _LUNAR_MONTH_PAT.search(
        text, max(0, m.start() - 20), m.end() + 20) is not None
    try:
        date = CalendarDate(infer_calendar(y, lunar_context=lunar), y, mo, d)
    except ValueError:
        return None
    return SemioticClass.DATE, m.start(), m.end(), {"date": date}


_TIME_PAT = re.compile(rf"({D}(?<!{D}.){D}?):({D}{{2}})(?::({D}{{2}}))?(?!{D})")


def _time(m, text):
    h = int(m.group(1))
    mi = int(m.group(2))
    s = int(m.group(3)) if m.group(3) else None
    if h > 23 or mi > 59 or (s is not None and s > 59):
        return None
    return (SemioticClass.TIME, m.start(), m.end(),
            {"hour": h, "minute": mi, "second": s})


# The URL, email and Latin abbreviation rows open on one character class
# too, before any alternation: ``re`` then tries them only at those
# characters, not at every Persian letter.  A branch gates the first
# character with a lookbehind (``(?<=h)ttps?`` is ``https?``); the scheme
# and ``www`` branches check no character before it, so in "xhttp://a.com"
# the URL starts at "h".
_TLD = r"(?:com|org|net|ir|io|edu|gov|info|biz|co|uk|de|fr|me|tv|html)"
_URL_PAT = re.compile(
    r"[A-Za-z0-9\-](?:"
    r"(?<=h)ttps?://\S+"
    r"|(?<=f)tp://\S+"
    r"|(?<=w)ww\.\S+"
    rf"|(?<![\w@.\-].)[A-Za-z0-9\-]*\.(?:[A-Za-z0-9\-]+\.)*{_TLD}(?:/\S*)?"
    # ends neither inside a word, nor before "@" (an email's local part),
    # nor before a dot that goes on ("a.com.au", "a.info@b.com")
    r"(?![\w@]|\.[\w@]))",
)


def _url(m, text):
    end = m.end()
    while end > m.start() and text[end - 1] in ".,;:!؟?)»،":
        end -= 1
    return SemioticClass.URL, m.start(), end, {}


# a local part starts only where the previous character cannot extend it,
# so each start in a run without "@" is tried once and the scan is linear
_EMAIL_PAT = re.compile(
    r"[A-Za-z0-9._\-](?<![A-Za-z0-9._\-].)[A-Za-z0-9._\-]*"
    r"@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
)

_SHEBA_PAT = re.compile(rf"IR{D}{{24}}(?!{D})")


def _sheba(m, text):
    if not validate_sheba(m.group(0)):
        return None
    return SemioticClass.SHEBA, m.start(), m.end(), {}


# a whole digit run of a length some check below can claim: 8 or 11 digits
# (phone), 10 (national ID) or 16 (card)
_DIGIT_RUN_PAT = re.compile(
    rf"{D}(?<!{D}.)(?:{D}{{7}}|{D}{{9,10}}|{D}{{15}})(?!{D})"
)


def _digit_run(m, text):
    """Phone / card / national ID classification of a digit run, or None."""
    run = m.group(0)
    if len(run) in (8, 11):  # the only lengths ``classify_phone`` accepts
        left = text[max(0, m.start() - 20):m.start()]
        right = text[m.end():m.end() + 20]
        kind = classify_phone(run, left, right)
        if kind is not None:
            return SemioticClass.PHONE, m.start(), m.end(), {"kind": kind}
    if len(run) == 16 and validate_card(run):
        cls = SemioticClass.CARD_NUMBER
    elif len(run) == 10 and validate_national_id(run):
        cls = SemioticClass.NATIONAL_ID
    else:
        return None
    return cls, m.start(), m.end(), {}


_DECIMAL_PAT = re.compile(rf"({D}(?<!{D}.){D}{{0,14}})\.({D}+)(?!{D})")


def _decimal(m, text):
    return (SemioticClass.DECIMAL, m.start(), m.end(),
            {"integer": m.group(1), "fraction": m.group(2)})


# a whole run of 16 digits or more
_LONG_NUMBER_PAT = re.compile(rf"{D}(?<!{D}.){D}{{15,}}(?!{D})")


# simple x/y fractions (x < y) read as spoken fractions, e.g. ۱/۲
_FRACTION_PAT = re.compile(rf"({D}(?<!{D}.){D}?)/({D}{{1,2}})(?!{D})")


def _fraction(m, text):
    num = int(m.group(1))
    den = int(m.group(2))
    if not 0 < num < den <= 20:
        return None
    return (SemioticClass.MATH_SYMBOL, m.start(), m.end(),
            {"numerator": num, "denominator": den})


def _one_character(tbl) -> str:
    """The surfaces of ``tbl`` joined; raises ValueError if a surface is not
    one character.  A class of them then matches exactly the surfaces."""
    for surface in tbl:
        if len(surface) != 1:
            raise ValueError(f"table surface {surface!r} is not one character")
    return "".join(tbl)


# Each currency symbol is one character, so the row opens on one class of
# the symbols and digits, and each branch gates that first character with a
# lookbehind, as ``_URL_PAT`` does.  Each symbol also gives a bare-symbol
# candidate, read when a row listed before (e.g. DECIMAL's) claims the amount
_CURRENCY_SYMBOL_PAT = alternation(CURRENCIES)
_CURRENCY_CHARS = _one_character(CURRENCIES)
_SIGNS = re.escape(_CURRENCY_CHARS)
_CURRENCY_PAT = re.compile(
    rf"[{_SIGNS}{DIGITS}](?:"
    rf"(?<=[{_SIGNS}])\s?(?P<amount>{D}+(?:\.{D}+)?)"
    # an amount starts only where a digit run does: no retry from each digit
    # of a long run
    rf"|(?<={D})(?<!{D}.)(?P<rest>{D}*(?:\.{D}+)?)\s?(?P<symbol>[{_SIGNS}]))"
)


def _currency(m, text):
    start = m.start()  # the symbol, or the amount's first digit
    if m.group("amount") is None:
        data = {"symbol": m.group("symbol"), "amount": text[start:m.end("rest")]}
    else:
        data = {"symbol": text[start], "amount": m.group("amount")}
    return SemioticClass.CURRENCY, start, m.end(), data


def _bare_currency(m, text):
    return (SemioticClass.CURRENCY, m.start(), m.end(),
            {"symbol": m.group(0), "amount": None})


_FA = r"؀-ۿ"
_ABBREV_FA_PAT = re.compile(
    rf"(?<![{_FA}\w])(?:{alternation(ABBREV_FA).pattern})(?![{_FA}\w])"
)

# a letter not preceded by a word character: the ``\b`` of a word start
_ABBREV_EN_PAT = re.compile(
    r"[A-Za-z](?<!\w[A-Za-z])(?:"
    r"[A-Za-z]{0,2}(?:\.[A-Za-z]{1,3})+\.?"          # dotted: Ph.D, U.S.A.
    r"|(?<=[A-Z])[A-Z]{1,5}\b(?!\.[A-Za-z]))"       # all-caps acronym: NASA
)


def _needs(*chars: str, run: int = 0) -> tuple[tuple, int]:
    """A row's ``needs``: the set of each of ``chars``, and ``run``, the
    least length of the digit run every match holds whole (0 for none)."""
    return tuple(frozenset(c) for c in chars), run


def _table_needs(tbl, chars: str | None = None) -> frozenset:
    """The characters one of which every match of a table's row holds:
    ``chars`` when given, else the first character of each surface.  Raises
    ValueError if a surface holds none of them."""
    needs = frozenset(chars if chars is not None else (s[0] for s in tbl))
    for surface in tbl:
        if needs.isdisjoint(surface):
            raise ValueError(
                f"table surface {surface!r} holds none of {''.join(sorted(needs))!r}"
            )
    return needs


def _dotless(tbl):
    """``tbl``; raises ValueError if a surface holds a dot.  A span of a
    symbol row then never holds one, as ``_LAST_DOTTED`` assumes."""
    for surface in tbl:
        if "." in surface:
            raise ValueError(f"table surface {surface!r} holds a dot")
    return tbl


# a maximal digit run: a plain number wherever no row listed before claims
# a digit of it.  ``{D}{D}*`` opens on a class: ``re`` tries it only at digits
_NUMBER_PAT = re.compile(rf"{D}{D}*")

# Every semiotic class in overlap-resolution order, with its rows.  A row
# is (pattern, candidate, needs): ``candidate`` maps a match to ``(cls,
# start, end, data)``, or to None when a check fails, and a None candidate
# yields the whole match; ``needs`` is ``(sets, run)``: every match holds a
# character of each of the ``sets`` and a whole maximal run of at least
# ``run`` digits, so a text lacking one skips the row.
# A candidate's span is its match's (``_url`` trims the end, but URL is
# the first row), so ``_accepted`` probes a match's span before its check.
# The row listed first wins an overlap, just as the class listed first
# would: a row's candidates are disjoint; rows sit at their class's place,
# save that the digit-run row also yields CARD_NUMBER and NATIONAL_ID, the
# next two classes; and of a class's two rows, only a bare currency sign can
# overlap an amount, whose row comes first (no math-symbol surface holds a
# digit or "/", so none overlaps a fraction).
_CLASSES = {
    "URL": [(_URL_PAT, _url, _needs(".:", _LATIN_LETTERS))],
    "EMAIL": [(_EMAIL_PAT, None, _needs("@"))],
    "SHEBA": [(_SHEBA_PAT, _sheba, _needs(run=24))],
    "DATE": [(_DATE_PAT, _date, _needs("/.-", DIGITS))],
    "TIME": [(_TIME_PAT, _time, _needs(":", DIGITS))],
    "PHONE": [(_DIGIT_RUN_PAT, _digit_run, _needs(run=8))],
    "CARD_NUMBER": [],
    "NATIONAL_ID": [],
    "DECIMAL": [(_DECIMAL_PAT, _decimal, _needs(".", DIGITS))],
    "LONG_NUMBER": [(_LONG_NUMBER_PAT, None, _needs(run=16))],
    "CURRENCY": [
        (_CURRENCY_PAT, _currency, _needs(_CURRENCY_CHARS, DIGITS)),
        (_CURRENCY_SYMBOL_PAT, _bare_currency, _needs(_CURRENCY_CHARS))],
    "ABBREV_EN": [(_ABBREV_EN_PAT, None, _needs(_LATIN_LETTERS))],
    "ABBREV_FA": [
        (_ABBREV_FA_PAT, None, _needs(_table_needs(ABBREV_FA, ".(")))],
    "MATH_SYMBOL": [
        (_FRACTION_PAT, _fraction, _needs("/", DIGITS)),
        (alternation(_dotless(MATH_SYMBOLS)), None,
         _needs(_table_needs(MATH_SYMBOLS)))],
    "SYMBOL": [
        (alternation(_dotless(SYMBOLS)), None, _needs(_table_needs(SYMBOLS)))],
    "PLAIN_NUMBER": [(_NUMBER_PAT, None, _needs(DIGITS))],
}

# the last class whose spans can hold a dot: no span of a class after it
# does (``_dotless`` keeps the symbol tables free of dots; a fraction and a
# digit run hold none), so the sentence split resolves only the rows of the
# classes up to it
_LAST_DOTTED = "ABBREV_FA"

SemioticClass = Enum("SemioticClass", [(name, name) for name in _CLASSES],
                     module=__name__)


def _whole_match(cls):
    return lambda m, text: (cls, m.start(), m.end(), {})


def _rows() -> tuple[tuple, dict, list, list]:
    """The distinct sets of characters in the rows' ``needs``; each of their
    characters -> the mask with bit ``i`` set for each set ``i`` that holds
    it; every row of ``_CLASSES`` in class order, as ``(pattern, candidate,
    mask, run)`` with its sets as such a mask; and the rows of the classes
    up to ``_LAST_DOTTED``.  Raises ValueError unless every digit shares one
    mask and every Latin letter one, as a run's first character stands for
    the whole run."""
    need_sets = tuple(dict.fromkeys(
        chars for rows in _CLASSES.values() for *_, (sets, _) in rows
        for chars in sets))
    bit = {chars: 1 << i for i, chars in enumerate(need_sets)}
    bits = {}
    for chars in need_sets:
        for c in chars:
            bits[c] = bits.get(c, 0) | bit[chars]
    for run_chars in (DIGITS, _LATIN_LETTERS):
        if len({bits.get(c) for c in run_chars}) != 1:
            raise ValueError(
                f"the characters {run_chars!r} do not all share one need mask")
    every, split = [], []
    for cls, rows in zip(SemioticClass, _CLASSES.values()):
        for pattern, candidate, (sets, run) in rows:
            mask = sum(bit[chars] for chars in set(sets))
            every.append((pattern, candidate or _whole_match(cls), mask, run))
        if cls.name == _LAST_DOTTED:
            split = every.copy()
    return need_sets, bits, every, split


_NEED_SETS, _NEED_BITS, _DETECTORS, _SPLIT_ROWS = _rows()
# the shortest digit run a row needs: the shorter runs meet none
_SHORTEST_RUN = min(run for *_, run in _DETECTORS if run)

# One pass finds which of the rows' characters a text holds: each maximal
# run of digits and each of Latin letters is one token, and every other
# character of a row one token of its own.  Collapsing runs keeps the token
# list short on long numbers and Latin words.  The pattern opens on one
# class, so ``re`` tries it only at those characters; a lookbehind on the
# character matched picks the run, if any, that goes on from it
_TRIGGER = re.compile(
    "[" + re.escape("".join(sorted(_NEED_BITS))) + "]"
    rf"(?:(?<={D}){D}*|(?<=[{_LATIN_LETTERS}])[{_LATIN_LETTERS}]*)?"
)
_first = itemgetter(0)


def _accepted(text: str, tokens, rows) -> list[tuple]:
    """Run, in order, each of the ``rows`` whose needs ``text`` meets: its
    ``tokens`` (``_TRIGGER.findall(text)``) hold a character of each of the
    row's sets and a digit run at least ``run`` long.  Accept each candidate
    ``(cls, start, end, data)`` that overlaps none accepted before; return
    the accepted ones in that order.  A match whose span overlaps one
    accepted costs one probe of the coverage mask: its row's check is not
    run."""
    met = 0  # the sets whose characters ``tokens`` hold
    for c in set(map(_first, tokens)):
        met |= _NEED_BITS[c]
    # the longest digit run, read only when a token is long enough: of the
    # tokens of two characters or more, only digit runs are decimal
    longest = 0
    if max(map(len, tokens), default=0) >= _SHORTEST_RUN:
        longest = max(map(len, filter(str.isdecimal, tokens)), default=0)
    covered = bytearray(len(text))
    probe = covered.find
    accepted = []
    for pattern, candidate, needs, run in rows:
        if needs & met == needs and run <= longest:
            for m in pattern.finditer(text):
                start, end = m.span()
                if probe(1, start, end) == -1:
                    c = candidate(m, text)
                    if c is not None:
                        end = c[2]  # ``_url`` may trim the end
                        covered[start:end] = b"\1" * (end - start)
                        accepted.append(c)
    return accepted


def scan(text: str) -> list[SemioticSpan]:
    """Return all maximal non-overlapping semiotic spans, sorted by start.

    Only the ``_DETECTORS`` rows whose ``needs`` the text meets are run: a
    row is skipped when the text holds no character of one of its sets, or
    no digit run as long as it needs, as none of its matches could then
    occur.  Of two overlapping candidates, the one whose row is listed
    first in ``_CLASSES`` wins (``_accepted``), in time linear in the total
    length of the matches.
    """
    tokens = _TRIGGER.findall(text)
    if not tokens:
        return []
    spans = [SemioticSpan(start, end, cls, text[start:end], data)
             for cls, start, end, data in _accepted(text, tokens, _DETECTORS)]
    spans.sort()  # starts are unique: spans are disjoint and non-empty
    return spans


class _Found(list):
    """Matches found before, in a row in place of the pattern that found
    them: ``_accepted`` reads them as that pattern's matches."""

    def finditer(self, text):
        return iter(self)


# where DATE's row is among the ``_SPLIT_ROWS``
_DATE_ROW = [pattern for pattern, *_ in _SPLIT_ROWS].index(_DATE_PAT)


def protect_non_terminal_dots(text: str) -> list[tuple[int, int]]:
    """Intervals covering every dot, and every "?", "!" and "؟" inside a
    URL, that must not end a sentence: the span of each candidate that wins
    among the ``_SPLIT_ROWS``, and of each dotted date shape, even one the
    calendar rejects.  They come in that order and may overlap.

    The ``_SPLIT_ROWS`` come first in resolution order, so no later row
    changes which of them win, and no span of a later class holds a dot.
    A winner that can hold a terminal mark holds a dot, save a URL written
    with a scheme, so a text with neither has none, and is not scanned.
    DATE's row and the date shapes read one pass of ``_DATE_PAT``.
    """
    if "." not in text and "://" not in text:
        return []
    dates = _Found(_DATE_PAT.finditer(text))
    rows = _SPLIT_ROWS.copy()
    rows[_DATE_ROW] = (dates, *rows[_DATE_ROW][1:])
    intervals = [(start, end) for _, start, end, _
                 in _accepted(text, _TRIGGER.findall(text), rows)]
    intervals += [m.span() for m in dates if m.group(2) == "."]
    return intervals
