"""Detection and classification of non-standard words (semiotic classes).

``scan`` finds every date, time, phone number, national ID, card number,
Sheba, URL, email, currency amount, symbol, abbreviation and digit run in a
text and returns typed, non-overlapping spans for the verbalizers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from string import ascii_letters
from typing import NamedTuple

from .resources import alternation, table

# the spoken-form tables of the classes found by table lookup; ``verbalize``
# reads the same tables
CURRENCIES = table("currencies")
SYMBOLS = table("symbols")
MATH_SYMBOLS = table("math_symbols")
ABBREV_FA = table("abbrev_fa")

# any digit as it may appear in scanned text (ASCII, Persian or Arabic-Indic);
# ``int`` reads all three, so only a digit string kept as a string is converted
_DIGITS = "0123456789۰۱۲۳۴۵۶۷۸۹٠١٢٣٤٥٦٧٨٩"
_TO_ASCII = str.maketrans(_DIGITS, "0123456789" * 3)
D = f"[{_DIGITS}]"


def ascii_digits(s: str) -> str:
    return s.translate(_TO_ASCII)


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


@dataclass(frozen=True)
class CalendarDate:
    calendar: Calendar
    year: int
    month: int
    day: int

    def __post_init__(self):
        if self.year < 1:
            raise ValueError(f"invalid year: {self.year}")
        if not 1 <= self.month <= 12:
            raise ValueError(f"invalid month: {self.month}")
        if not 1 <= self.day <= _month_length(self.calendar, self.year, self.month):
            raise ValueError(
                f"invalid day {self.day} for month {self.month} "
                f"({self.calendar.value})"
            )


class SemioticSpan(NamedTuple):
    """One span of ``scan``: ``raw`` is ``text[start:end]``."""
    start: int
    end: int
    cls: SemioticClass
    raw: str
    data: dict


def infer_calendar(year: int, default: Calendar = Calendar.SOLAR_HIJRI,
                   lunar_context: bool = False) -> Calendar:
    """Guess the calendar of a year per the documented thresholds."""
    if year < 1:
        raise ValueError(f"invalid year: {year}")
    if lunar_context:
        return Calendar.LUNAR_HIJRI
    if year >= 1700:
        return Calendar.GREGORIAN
    return default


_CUE_WORDS = frozenset(table("phone_cues"))
_AREA_CODES = frozenset(table("area_codes"))


def classify_phone(digits: str, left_context: str = "",
                   right_context: str = "") -> PhoneKind | None:
    """Classify a digit run as a phone number from shape and context."""
    digits = ascii_digits(digits)
    if not digits.isdigit():
        return None
    if len(digits) == 11 and digits.startswith("09"):
        return PhoneKind.MOBILE
    if len(digits) == 11 and digits[:3] in _AREA_CODES:
        return PhoneKind.LANDLINE
    if len(digits) == 8:
        context = f"{left_context} {right_context}"
        if any(cue in context for cue in _CUE_WORDS):
            return PhoneKind.LANDLINE
    return None


def _all_same(digits: str) -> bool:
    return len(set(digits)) == 1


def validate_national_id(digits: str) -> bool:
    """Iranian national-ID mod-11 checksum (all-same strings rejected)."""
    digits = ascii_digits(digits)
    if len(digits) != 10 or not digits.isdigit():
        raise ValueError("national ID must be exactly 10 digits")
    if _all_same(digits):
        return False
    total = sum(int(d) * w for d, w in zip(digits[:9], range(10, 1, -1)))
    r = total % 11
    check = r if r < 2 else 11 - r
    return int(digits[9]) == check


def validate_card(digits: str) -> bool:
    """Luhn mod-10 check for 16-digit card numbers (all-same rejected)."""
    digits = ascii_digits(digits)
    if len(digits) != 16 or not digits.isdigit():
        raise ValueError("card number must be exactly 16 digits")
    if _all_same(digits):
        return False
    total = 0
    for i, ch in enumerate(reversed(digits)):
        d = int(ch)
        if i % 2 == 1:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return total % 10 == 0


def validate_sheba(candidate: str) -> bool:
    """IBAN mod-97 check for "IR" + 24 digits; False on malformed input."""
    candidate = ascii_digits(candidate.strip())
    if len(candidate) != 26 or not candidate.startswith("IR"):
        return False
    if not candidate[2:].isdigit():
        return False
    rearranged = candidate[4:] + "1827" + candidate[2:4]  # I=18, R=27
    return int(rearranged) % 97 == 1


# --- detectors -------------------------------------------------------------
#
# A detector is a pattern plus a function from one of its matches (and the
# text) to a candidate ``(cls, start, end, data)``, or to None when a check
# on the match fails.

# The date, time, decimal and fraction rows open on a digit not preceded by
# one.  Written as a digit and then a lookbehind, rather than a lookbehind
# first, the pattern starts with a digit, so ``re`` tries a match only at
# digits.
_DATE_PAT = re.compile(
    rf"({D}(?<!{D}{D}){D}{{0,3}})([/.\-])({D}{{1,2}})\2({D}{{1,4}})(?!{D})"
)


def _date(m, text):
    a, _, b, c = m.groups()
    a_i, b_i, c_i = int(a), int(b), int(c)
    if len(a) >= 3 or a_i > 31:
        y, mo, d = a_i, b_i, c_i
    elif len(c) >= 3 or c_i > 31:
        d, mo, y = a_i, b_i, c_i
    else:
        return None
    window = text[max(0, m.start() - 20):m.end() + 20]
    lunar = any(name in window for name in LUNAR_MONTHS)
    try:
        date = CalendarDate(infer_calendar(y, lunar_context=lunar), y, mo, d)
    except ValueError:
        return None
    return SemioticClass.DATE, m.start(), m.end(), {"date": date}


_TIME_PAT = re.compile(rf"({D}(?<!{D}{D}){D}?):({D}{{2}})(?::({D}{{2}}))?(?!{D})")


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
    rf"{D}(?<!{D}{D})(?:{D}{{7}}|{D}{{9,10}}|{D}{{15}})(?!{D})"
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


_DECIMAL_PAT = re.compile(rf"({D}(?<!{D}{D}){D}{{0,14}})\.({D}+)(?!{D})")


def _decimal(m, text):
    return (SemioticClass.DECIMAL, m.start(), m.end(),
            {"integer": ascii_digits(m.group(1)),
             "fraction": ascii_digits(m.group(2))})


# a whole run of 16 digits or more
_LONG_NUMBER_PAT = re.compile(rf"{D}(?<!{D}{D}){D}{{15,}}(?!{D})")


# simple x/y fractions (x < y) read as spoken fractions, e.g. ۱/۲
_FRACTION_PAT = re.compile(rf"({D}(?<!{D}{D}){D}?)/({D}{{1,2}})(?!{D})")


def _fraction(m, text):
    num = int(m.group(1))
    den = int(m.group(2))
    if not 0 < num < den <= 20:
        return None
    return (SemioticClass.MATH_SYMBOL, m.start(), m.end(),
            {"numerator": num, "denominator": den})


# every currency symbol is one character, so the longest-first order is
# the table's file order.  Each symbol also gives a bare-symbol candidate,
# read when a row listed before (e.g. DECIMAL's) claims the amount
_CURRENCY_SYMBOL_PAT = alternation(CURRENCIES)
_AMOUNT = rf"{D}+(?:\.{D}+)?"
_CURRENCY_PAT = re.compile(
    rf"(?P<pre>{_CURRENCY_SYMBOL_PAT.pattern})\s?(?P<preamt>{_AMOUNT})"
    # an amount starts only where a digit run does: no retry from each digit
    # of a long run
    rf"|(?<!{D})(?P<postamt>{_AMOUNT})\s?(?P<post>{_CURRENCY_SYMBOL_PAT.pattern})"
)


def _currency(m, text):
    if m.group("pre"):
        data = {"symbol": m.group("pre"), "amount": m.group("preamt")}
    else:
        data = {"symbol": m.group("post"), "amount": m.group("postamt")}
    return SemioticClass.CURRENCY, m.start(), m.end(), data


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


def _needs(*chars: str) -> tuple[frozenset, ...]:
    return tuple(frozenset(c) for c in chars)


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
    symbol row then never holds one, as its class declares."""
    for surface in tbl:
        if "." in surface:
            raise ValueError(f"table surface {surface!r} holds a dot")
    return tbl


_CURRENCY_CHARS = _table_needs(CURRENCIES)

# a maximal digit run: a plain number wherever no row listed before claims
# a digit of it
_NUMBER_PAT = re.compile(rf"{D}+")

# Every semiotic class in overlap-resolution order: (can a span of it hold
# a dot, its rows).  A row is (pattern, candidate, needs): ``candidate``
# maps a match to ``(cls, start, end, data)``, or to None when a check
# fails, and a None candidate yields the whole match; every match holds a
# character of each set in ``needs``, so a text lacking one skips it.
# The row listed first wins an overlap, just as the class listed first
# would: a row's candidates are disjoint (each lies in its ``finditer``
# match; ``_url`` only trims the end); rows sit at their class's place,
# save that the digit-run row also yields CARD_NUMBER and NATIONAL_ID, the
# next two classes; and of a class's two rows, only a bare currency sign can
# overlap an amount, whose row comes first (no math-symbol surface holds a
# digit or "/", so none overlaps a fraction).
_CLASSES = {
    "URL": (True, [(_URL_PAT, _url, _needs(".:", ascii_letters))]),
    "EMAIL": (True, [(_EMAIL_PAT, None, _needs("@"))]),
    "SHEBA": (False, [(_SHEBA_PAT, _sheba, _needs("I", _DIGITS))]),
    "DATE": (True, [(_DATE_PAT, _date, _needs("/.-", _DIGITS))]),
    "TIME": (False, [(_TIME_PAT, _time, _needs(":", _DIGITS))]),
    "PHONE": (False, [(_DIGIT_RUN_PAT, _digit_run, _needs(_DIGITS))]),
    "CARD_NUMBER": (False, []),
    "NATIONAL_ID": (False, []),
    "DECIMAL": (True, [(_DECIMAL_PAT, _decimal, _needs(".", _DIGITS))]),
    "LONG_NUMBER": (False, [(_LONG_NUMBER_PAT, None, _needs(_DIGITS))]),
    "CURRENCY": (True, [
        (_CURRENCY_PAT, _currency, _needs(_CURRENCY_CHARS, _DIGITS)),
        (_CURRENCY_SYMBOL_PAT, _bare_currency, _needs(_CURRENCY_CHARS))]),
    "ABBREV_EN": (True, [(_ABBREV_EN_PAT, None, _needs(ascii_letters))]),
    "ABBREV_FA": (True, [
        (_ABBREV_FA_PAT, None, _needs(_table_needs(ABBREV_FA, ".(")))]),
    "MATH_SYMBOL": (False, [
        (_FRACTION_PAT, _fraction, _needs("/", _DIGITS)),
        (alternation(_dotless(MATH_SYMBOLS)), None,
         _needs(_table_needs(MATH_SYMBOLS)))]),
    "SYMBOL": (False, [
        (alternation(_dotless(SYMBOLS)), None, _needs(_table_needs(SYMBOLS)))]),
    "PLAIN_NUMBER": (False, [(_NUMBER_PAT, None, _needs(_DIGITS))]),
}

SemioticClass = Enum("SemioticClass", [(name, name) for name in _CLASSES],
                     module=__name__)


def _whole_match(cls):
    return lambda m, text: (cls, m.start(), m.end(), {})


def _rows() -> tuple[list, list]:
    """Every row of ``_CLASSES`` in class order, and the rows of the
    classes up to the last one whose spans can hold a dot."""
    every, split = [], []
    for cls, (dotted, rows) in zip(SemioticClass, _CLASSES.values()):
        every += [(pattern, candidate or _whole_match(cls), needs)
                  for pattern, candidate, needs in rows]
        if dotted:
            split = every.copy()
    return every, split


_DETECTORS, _SPLIT_ROWS = _rows()

# one character class over every row's characters: a single pass finds
# which of them a text holds
_TRIGGER = re.compile("[" + re.escape("".join(sorted(
    frozenset().union(*(chars for _, _, needs in _DETECTORS for chars in needs))
))) + "]")


def _candidates(text: str, present: set, rows):
    """The candidates of the ``rows`` whose ``needs`` the ``present``
    characters meet, in resolution order: row by row, each in text order."""
    for pattern, candidate, needs in rows:
        for chars in needs:  # run the row only if the text meets every set
            if present.isdisjoint(chars):
                break
        else:
            for m in pattern.finditer(text):
                c = candidate(m, text)
                if c is not None:
                    yield c


def _resolve(candidates, text: str) -> list[tuple]:
    """Accept, in order, each candidate ``(cls, start, end, data)``
    overlapping none accepted before, and return the accepted ones in that
    order."""
    covered = bytearray(len(text))
    accepted = []
    for c in candidates:
        _, start, end, _ = c
        if covered.find(1, start, end) == -1:
            covered[start:end] = b"\1" * (end - start)
            accepted.append(c)
    return accepted


def scan(text: str) -> list[SemioticSpan]:
    """Return all maximal non-overlapping semiotic spans, sorted by start.

    Only the ``_DETECTORS`` rows whose ``needs`` the text meets are run: a
    row is skipped when the text holds no character of one of its sets, as
    none of its matches could then occur.  Of two overlapping candidates,
    the one whose row is listed first in ``_CLASSES`` wins, in time linear
    in the total length of the candidates.
    """
    present = set(_TRIGGER.findall(text))
    if not present:
        return []
    accepted = _resolve(_candidates(text, present, _DETECTORS), text)
    spans = [SemioticSpan(start, end, cls, text[start:end], data)
             for cls, start, end, data in accepted]
    spans.sort()  # starts are unique: spans are disjoint and non-empty
    return spans


def _dotted_intervals(text: str) -> list[tuple[int, int]]:
    """The ``(start, end)`` of every span of ``scan(text)`` that holds a
    dot, and of every dotted date shape, even one the calendar rejects, in
    no particular order.

    Only the ``_SPLIT_ROWS`` are run.  Their candidates come first in
    resolution order, so no later row changes which of them win, and no
    span of a later class holds a dot.
    """
    present = set(_TRIGGER.findall(text))
    accepted = _resolve(_candidates(text, present, _SPLIT_ROWS), text)
    intervals = [(start, end) for _, start, end, _ in accepted
                 if text.find(".", start, end) != -1]
    intervals += [m.span() for m in _DATE_PAT.finditer(text)
                  if m.group(2) == "."]
    return intervals
