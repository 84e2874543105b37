"""Detection and classification of non-standard words (semiotic classes).

``scan`` finds every date, time, phone number, national ID, card number,
Sheba, URL, email, currency amount, symbol, abbreviation and digit run in a
text and returns typed, non-overlapping spans for the verbalizers.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .resources import table

PERSIAN_DIGITS = "۰۱۲۳۴۵۶۷۸۹"
_TO_ASCII = str.maketrans(PERSIAN_DIGITS + "٠١٢٣٤٥٦٧٨٩", "0123456789" * 2)

# any digit as it may appear in scanned text (ASCII, Persian or Arabic-Indic)
D = "[0-9۰-۹٠-٩]"


def ascii_digits(s: str) -> str:
    return s.translate(_TO_ASCII)


class SemioticClass(Enum):
    DATE = "DATE"
    TIME = "TIME"
    PHONE = "PHONE"
    NATIONAL_ID = "NATIONAL_ID"
    CARD_NUMBER = "CARD_NUMBER"
    SHEBA = "SHEBA"
    URL = "URL"
    EMAIL = "EMAIL"
    CURRENCY = "CURRENCY"
    SYMBOL = "SYMBOL"
    MATH_SYMBOL = "MATH_SYMBOL"
    ABBREV_FA = "ABBREV_FA"
    ABBREV_EN = "ABBREV_EN"
    PLAIN_NUMBER = "PLAIN_NUMBER"
    LONG_NUMBER = "LONG_NUMBER"
    DECIMAL = "DECIMAL"


# overlap resolution order, highest priority first
PRIORITY = [
    SemioticClass.URL,
    SemioticClass.EMAIL,
    SemioticClass.SHEBA,
    SemioticClass.DATE,
    SemioticClass.TIME,
    SemioticClass.PHONE,
    SemioticClass.CARD_NUMBER,
    SemioticClass.NATIONAL_ID,
    SemioticClass.DECIMAL,
    SemioticClass.LONG_NUMBER,
    SemioticClass.CURRENCY,
    SemioticClass.ABBREV_EN,
    SemioticClass.ABBREV_FA,
    SemioticClass.MATH_SYMBOL,
    SemioticClass.SYMBOL,
    SemioticClass.PLAIN_NUMBER,
]
_PRIORITY_INDEX = {cls: i for i, cls in enumerate(PRIORITY)}


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


def _is_gregorian_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def _month_length(calendar: Calendar, year: int, month: int) -> int:
    if calendar is Calendar.SOLAR_HIJRI:
        if month <= 6:
            return 31
        if month <= 11:
            return 30
        return 30  # month 12 has 29 or 30 days; accept the longer bound
    if calendar is Calendar.GREGORIAN:
        lengths = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
        if month == 2 and _is_gregorian_leap(year):
            return 29
        return lengths[month - 1]
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


@dataclass(frozen=True)
class SemioticSpan:
    start: int
    end: int
    cls: SemioticClass
    raw: str
    data: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad span bounds: {self.start}..{self.end}")


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


@lru_cache(maxsize=None)
def _cue_words() -> frozenset:
    return frozenset(s for s, _ in table("phone_cues").entries)

@lru_cache(maxsize=None)
def _area_codes() -> frozenset:
    return frozenset(s for s, _ in table("area_codes").entries)


def classify_phone(digits: str, left_context: str = "",
                   right_context: str = "") -> PhoneKind | None:
    """Classify a digit run as a phone number from shape and context."""
    digits = ascii_digits(digits)
    if not digits.isdigit():
        return None
    if len(digits) == 11 and digits.startswith("09"):
        return PhoneKind.MOBILE
    if len(digits) == 11 and digits[:3] in _area_codes():
        return PhoneKind.LANDLINE
    if len(digits) == 8:
        context = f"{left_context} {right_context}"
        if any(cue in context for cue in _cue_words()):
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

_DATE_PAT = re.compile(
    rf"(?<!{D})({D}{{1,4}})([/.\-])({D}{{1,2}})\2({D}{{1,4}})(?!{D})"
)


def _date_candidates(text):
    out = []
    for m in _DATE_PAT.finditer(text):
        a, _, b, c = m.groups()
        a_i, b_i, c_i = int(ascii_digits(a)), int(ascii_digits(b)), int(ascii_digits(c))
        if len(a) >= 3 or a_i > 31:
            y, mo, d = a_i, b_i, c_i
        elif len(c) >= 3 or c_i > 31:
            d, mo, y = a_i, b_i, c_i
        else:
            continue
        if not 1 <= mo <= 12:
            continue
        window = text[max(0, m.start() - 20):min(len(text), m.end() + 20)]
        lunar = any(name in window for name in LUNAR_MONTHS)
        cal = infer_calendar(y, lunar_context=lunar)
        try:
            date = CalendarDate(cal, y, mo, d)
        except ValueError:
            continue
        out.append((SemioticClass.DATE, m.start(), m.end(), {"date": date}))
    return out


_TIME_PAT = re.compile(rf"(?<!{D})({D}{{1,2}}):({D}{{2}})(?::({D}{{2}}))?(?!{D})")


def _time_candidates(text):
    out = []
    for m in _TIME_PAT.finditer(text):
        h = int(ascii_digits(m.group(1)))
        mi = int(ascii_digits(m.group(2)))
        s = int(ascii_digits(m.group(3))) if m.group(3) else None
        if h > 23 or mi > 59 or (s is not None and s > 59):
            continue
        out.append((
            SemioticClass.TIME, m.start(), m.end(),
            {"hour": h, "minute": mi, "second": s},
        ))
    return out


_TLD = r"(?:com|org|net|ir|io|edu|gov|info|biz|co|uk|de|fr|me|tv|html)"
_URL_PAT = re.compile(
    r"(?:https?|ftp)://\S+"
    r"|www\.\S+"
    rf"|(?<![\w@.\-])(?:[A-Za-z0-9\-]+\.)+{_TLD}(?:/\S*)?"
    # ends neither inside a word, nor before "@" (an email's local part),
    # nor before a dot that goes on ("a.com.au", "a.info@b.com")
    r"(?![\w@]|\.[\w@])",
)


def _url_candidates(text):
    out = []
    for m in _URL_PAT.finditer(text):
        end = m.end()
        while end > m.start() and text[end - 1] in ".,;:!؟?)»،":
            end -= 1
        out.append((SemioticClass.URL, m.start(), end, {}))
    return out


# a local part starts only where the previous character cannot extend it,
# so each start in a run without "@" is tried once and the scan is linear
_EMAIL_PAT = re.compile(
    r"(?<![A-Za-z0-9._\-])[A-Za-z0-9._\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
)


def _email_candidates(text):
    return [
        (SemioticClass.EMAIL, m.start(), m.end(), {})
        for m in _EMAIL_PAT.finditer(text)
    ]


_SHEBA_PAT = re.compile(rf"IR{D}{{24}}(?!{D})")


def _sheba_candidates(text):
    out = []
    for m in _SHEBA_PAT.finditer(text):
        if validate_sheba(m.group(0)):
            out.append((SemioticClass.SHEBA, m.start(), m.end(), {}))
    return out


_DIGIT_RUN_PAT = re.compile(rf"{D}+")


def _digit_run_candidates(text):
    """Phone / card / national ID / long / plain classification of digit runs."""
    out = []
    for m in _DIGIT_RUN_PAT.finditer(text):
        run = ascii_digits(m.group(0))
        left = text[max(0, m.start() - 20):m.start()]
        right = text[m.end():m.end() + 20]
        kind = classify_phone(run, left, right)
        if kind is not None:
            out.append((
                SemioticClass.PHONE, m.start(), m.end(), {"kind": kind},
            ))
            continue
        if len(run) == 16 and validate_card(run):
            out.append((SemioticClass.CARD_NUMBER, m.start(), m.end(), {}))
            continue
        if len(run) == 10 and validate_national_id(run):
            out.append((SemioticClass.NATIONAL_ID, m.start(), m.end(), {}))
            continue
        if len(run) > 15:
            out.append((SemioticClass.LONG_NUMBER, m.start(), m.end(), {}))
        else:
            out.append((SemioticClass.PLAIN_NUMBER, m.start(), m.end(), {}))
    return out


_DECIMAL_PAT = re.compile(rf"(?<!{D})({D}{{1,15}})\.({D}+)(?!{D})")


def _decimal_candidates(text):
    return [
        (SemioticClass.DECIMAL, m.start(), m.end(),
         {"integer": ascii_digits(m.group(1)),
          "fraction": ascii_digits(m.group(2))})
        for m in _DECIMAL_PAT.finditer(text)
    ]


# simple x/y fractions (x < y) read as spoken fractions, e.g. ۱/۲
_FRACTION_PAT = re.compile(rf"(?<!{D})({D}{{1,2}})/({D}{{1,2}})(?!{D})")


def _fraction_candidates(text):
    out = []
    for m in _FRACTION_PAT.finditer(text):
        num = int(ascii_digits(m.group(1)))
        den = int(ascii_digits(m.group(2)))
        if 0 < num < den <= 20:
            out.append((
                SemioticClass.MATH_SYMBOL, m.start(), m.end(),
                {"numerator": num, "denominator": den},
            ))
    return out


@lru_cache(maxsize=None)
def _currency_pattern() -> re.Pattern:
    # every currency symbol is one character, so the table's longest-first
    # order is its file order
    syms = table("currencies")._pattern.pattern
    amount = rf"{D}+(?:\.{D}+)?"
    return re.compile(
        rf"(?P<pre>{syms})\s?(?P<preamt>{amount})"
        # an amount starts only where a digit run does: no retry from each
        # digit of a long run
        rf"|(?<!{D})(?P<postamt>{amount})\s?(?P<post>{syms})"
        rf"|(?P<bare>{syms})"
    )


def _currency_candidates(text):
    out = []
    for m in _currency_pattern().finditer(text):
        if m.group("pre"):
            data = {"symbol": m.group("pre"), "amount": m.group("preamt")}
            sym_span = m.span("pre")
        elif m.group("post"):
            data = {"symbol": m.group("post"), "amount": m.group("postamt")}
            sym_span = m.span("post")
        else:
            data = {"symbol": m.group("bare"), "amount": None}
            sym_span = None
        out.append((SemioticClass.CURRENCY, m.start(), m.end(), data))
        if sym_span is not None:
            # fallback bare-symbol span in case the amount is claimed by a
            # higher-priority class (e.g. DECIMAL)
            out.append((
                SemioticClass.CURRENCY, sym_span[0], sym_span[1],
                {"symbol": data["symbol"], "amount": None},
            ))
    return out


def _symbol_candidates(text):
    out = [
        (SemioticClass.SYMBOL, m.start(), m.end(), {})
        for m in table("symbols")._pattern.finditer(text)
    ]
    out += [
        (SemioticClass.MATH_SYMBOL, m.start(), m.end(), {})
        for m in table("math_symbols")._pattern.finditer(text)
    ]
    return out


@lru_cache(maxsize=None)
def _abbrev_fa_pattern() -> re.Pattern:
    alts = table("abbrev_fa")._pattern.pattern
    fa = r"؀-ۿ"
    return re.compile(rf"(?<![{fa}\w])(?:{alts})(?![{fa}\w])")


def _abbrev_fa_candidates(text):
    return [
        (SemioticClass.ABBREV_FA, m.start(), m.end(), {})
        for m in _abbrev_fa_pattern().finditer(text)
    ]


_ABBREV_EN_PAT = re.compile(
    r"\b[A-Za-z]{1,3}(?:\.[A-Za-z]{1,3})+\.?"   # dotted: Ph.D, U.S.A.
    r"|\b[A-Z]{2,6}\b(?!\.)"                    # all-caps acronym: NASA
)


def _abbrev_en_candidates(text):
    return [
        (SemioticClass.ABBREV_EN, m.start(), m.end(), {})
        for m in _ABBREV_EN_PAT.finditer(text)
    ]


# detectors flagged True only ever match digit-bearing spans and can be
# skipped outright when the text has no digits
_DETECTORS = [
    (_url_candidates, False),
    (_email_candidates, False),
    (_sheba_candidates, True),
    (_date_candidates, True),
    (_time_candidates, True),
    (_digit_run_candidates, True),
    (_decimal_candidates, True),
    (_currency_candidates, False),
    (_abbrev_en_candidates, False),
    (_abbrev_fa_candidates, False),
    (_fraction_candidates, True),
    (_symbol_candidates, False),
]

_ANY_DIGIT = re.compile(D)


def scan(text: str) -> list[SemioticSpan]:
    """Return all maximal non-overlapping semiotic spans, sorted by start.

    Overlaps are resolved by class priority (see ``PRIORITY``), then by
    match length, then by position.
    """
    has_digit = _ANY_DIGIT.search(text) is not None
    candidates = []
    for detector, digits_only in _DETECTORS:
        if digits_only and not has_digit:
            continue
        candidates.extend(detector(text))
    candidates.sort(
        key=lambda c: (_PRIORITY_INDEX[c[0]], -(c[2] - c[1]), c[1])
    )
    # accepted spans are disjoint, so sorted by start they are sorted by end
    # too; a candidate overlaps one exactly when the first span ending after
    # its start begins before its end
    starts: list[int] = []
    ends: list[int] = []
    accepted: list[SemioticSpan] = []
    for cls, start, end, data in candidates:
        i = bisect_right(ends, start)
        if i < len(starts) and starts[i] < end:
            continue
        starts.insert(i, start)
        ends.insert(i, end)
        accepted.insert(i, SemioticSpan(start=start, end=end, cls=cls,
                                        raw=text[start:end], data=data))
    return accepted
