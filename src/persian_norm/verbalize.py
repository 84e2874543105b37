"""Spoken-form rewriting for classified spans.

Each semiotic class has a family of legitimate spoken renderings, a
sequence that ``READINGS`` builds from a span; a ``SelectionPolicy`` picks
one of them (fixed index or seeded random).
"""

from __future__ import annotations

import random
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .numwords import ZWNJ, cardinal_words, decimal_words, grouped_digit_words, ordinal_words
from .resources import rows, table
from .scanner import (
    ABBREV_FA,
    CURRENCIES,
    MATH_SYMBOLS,
    MONTH_NAMES,
    SYMBOLS,
    CalendarDate,
    PhoneKind,
    SemioticClass,
    SemioticSpan,
    ascii_digits,
)


@dataclass(frozen=True)
class SelectionPolicy:
    """Takes option ``index`` when ``seed`` is None (``fixed``); otherwise
    draws from ``random.Random(seed)`` (``seeded``)."""

    index: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"option index must be 0 or more, not {self.index}")

    @classmethod
    def fixed(cls, index: int = 0) -> "SelectionPolicy":
        return cls(index=index)

    @classmethod
    def seeded(cls, seed: int) -> "SelectionPolicy":
        return cls(seed=seed)

    def choose(self, options: Sequence[str], rng: random.Random | None = None) -> str:
        """The option this policy takes: FIXED takes ``index``, or option 0
        when there are fewer options; SEEDED draws ``rng.randrange(count)``,
        the same draw as ``rng.choice`` on a list of ``count`` options.
        """
        count = option_count(options)
        if count < 1:
            raise ValueError("no options to choose from")
        if self.seed is None:
            return options[self.index if self.index < count else 0]
        rng = rng if rng is not None else random.Random(self.seed)
        return options[rng.randrange(count)]


def option_count(options: Sequence[str]) -> int:
    """``len(options)``, also past ``sys.maxsize``, where ``len`` raises
    ``OverflowError``: a run of 159 digits or more has more groupings."""
    return options.__len__()


@lru_cache(maxsize=None)
def compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """All orderings of 3s and 2s summing to n, those starting with 3 first."""
    if n == 0:
        return ((),)
    out = []
    for p in (3, 2):
        if p <= n:
            for rest in compositions(n - p):
                out.append((p,) + rest)
    return tuple(out)


@lru_cache(maxsize=256)
def _count_window(n: int) -> tuple[int, int, int]:
    """``(c(n-2), c(n-1), c(n))`` where ``c(m) = len(compositions(m))``.

    Iterates ``c(m) = c(m-3) + c(m-2)`` up from ``c(-2) = c(-1) = 0``,
    ``c(0) = 1``.
    """
    a, b, c = 0, 0, 1
    for _ in range(n):
        a, b, c = b, c, a + b
    return a, b, c


def composition_count(n: int) -> int:
    """``len(compositions(n))``, without building a composition."""
    return _count_window(n)[2] if n >= 0 else 0


def composition_at(n: int, index: int) -> tuple[int, ...]:
    """``compositions(n)[index]`` for ``0 <= index``, without building the
    others: a 3 comes first while ``index`` is below the count of the
    compositions that start with 3."""
    a, b, c = _count_window(n)
    if not 0 <= index < c:
        raise IndexError(f"composition {index} of {n} out of range ({c})")
    sizes = []
    while n:
        # step the window down with c(m-3) = c(m) - c(m-2)
        threes = c - a          # c(n-3): those that start with 3
        c4 = b - threes         # c(n-4)
        if index < threes:
            sizes.append(3)
            n -= 3
            a, b, c = a - c4, c4, threes
        else:
            index -= threes
            sizes.append(2)
            n -= 2
            a, b, c = c4, threes, a
    return tuple(sizes)


# --- dates -----------------------------------------------------------------

_DATE_TEMPLATES = tuple(rows("templates/date.txt"))


def date_variants(d: CalendarDate) -> list[str]:
    months = MONTH_NAMES[d.calendar]
    fields = {
        "day_ordinal": ordinal_words(d.day, first_form="اول"),
        "day_cardinal": cardinal_words(d.day),
        "month_name": months[d.month - 1],
        "month_number": cardinal_words(d.month),
        "year_cardinal": cardinal_words(d.year),
    }
    return [tpl.format(**fields) for tpl in _DATE_TEMPLATES]


# --- times -----------------------------------------------------------------

def time_variants(hour: int, minute: int, second: int | None = None) -> list[str]:
    if not (0 <= hour <= 23 and 0 <= minute <= 59):
        raise ValueError(f"invalid time {hour}:{minute}")
    if second is not None and not 0 <= second <= 59:
        raise ValueError(f"invalid second {second}")
    h = cardinal_words(hour)
    if minute == 0 and second is None:
        base = [h]  # the zero is never read
    else:
        m = cardinal_words(minute)
        with_units = f"{h} و {m} دقیقه"
        bare = f"{h} و {m}"
        if second is not None:
            s = cardinal_words(second)
            with_units += f" و {s} ثانیه"
            bare += f" و {s}"
        base = [with_units, bare]
    return base + [f"ساعت {v}" for v in base]


# --- digit groups: phone numbers, IDs, cards, Sheba ------------------------

class GroupedReadings:
    """The readings of a digit string spoken a group at a time, as a
    read-only sequence.

    Reading ``i`` is ``prefix`` followed by ``digits`` read in the groups of
    ``compositions(len(digits))[i]``.  With ``lead``, the reading in the
    ``lead`` group sizes comes first and every composition that reads the
    same is left out.  Length and indexing build no other reading, so a
    policy's pick costs one ``grouped_digit_words`` call however many
    groupings there are.
    """

    # a plain class: a dataclass costs a millisecond of every import
    def __init__(self, digits: str, prefix: str = "", lead: tuple[int, ...] = ()):
        self.digits = digits
        self.prefix = prefix
        self.lead = lead

    def _say(self, sizes) -> str:
        words = grouped_digit_words(self.digits, list(sizes))
        return f"{self.prefix} {words}" if self.prefix else words

    @cached_property
    def _same_as_lead(self) -> list[int]:
        """Ranks, ascending, of the compositions that read like ``lead``."""
        if not self.lead:
            return []
        digits, n = self.digits, len(self.digits)
        target, pos = 0, 0
        for size in self.lead:
            target |= _word_ends(digits[pos:pos + size]) << pos
            pos += size
        ranks = []
        stack = [(0, 0)]  # (position, rank of the first composition from here)
        while stack:
            pos, rank = stack.pop()
            if pos == n:
                ranks.append(rank)
                continue
            for size, skip in ((3, 0), (2, composition_count(n - pos - 3))):
                group = digits[pos:pos + size]
                if (len(group) == size
                        and (target >> pos) & ((1 << size) - 1) == _word_ends(group)):
                    stack.append((pos + size, rank + skip))
        return sorted(ranks)

    def __len__(self) -> int:
        n = composition_count(len(self.digits))
        return n + 1 - len(self._same_as_lead) if self.lead else n

    def __getitem__(self, index: int) -> str:
        """Reading ``index``, indexed like the list ``readings()``; raises
        ``IndexError`` past either end."""
        if index < 0:
            index += option_count(self)
        if self.lead:
            if index == 0:
                return self._say(self.lead)
            index -= 1
            for rank in self._same_as_lead:
                if index >= rank:
                    index += 1
        return self._say(composition_at(len(self.digits), index))

    def readings(self) -> list[str]:
        """Every reading, built from ``compositions`` one by one."""
        out = [self._say(sizes) for sizes in compositions(len(self.digits))]
        if self.lead:
            first = self._say(self.lead)
            out = [first] + [v for v in out if v != first]
        return out


def _word_ends(group: str) -> int:
    """Bit k-1 set where a word of the group's reading ends after digit k.

    Each leading zero is one word ("صفر"), the rest one cardinal; two
    groupings of a digit string read the same exactly when their words end
    at the same digits.
    """
    zeros = len(group) - len(group.lstrip("0"))
    return ((1 << zeros) - 1) | (1 << (len(group) - 1))


def phone_readings(digits: str, kind: PhoneKind) -> GroupedReadings:
    digits = ascii_digits(digits)
    if kind is PhoneKind.MOBILE:
        # the 4-digit prefix is always read the same way: صفر + 3-digit cardinal
        prefix = f"صفر {cardinal_words(int(digits[1:4]))}"
        return GroupedReadings(digits[4:], prefix)
    if len(digits) == 11:
        # landline with area code 0XX
        return GroupedReadings(digits[3:], grouped_digit_words(digits[:3], [3]))
    return GroupedReadings(digits)


def grouped_id_readings(digits: str, cls: SemioticClass) -> GroupedReadings:
    digits = ascii_digits(digits)
    if cls is SemioticClass.SHEBA:
        body = digits[2:] if digits.startswith("IR") else digits
        return GroupedReadings(body, "آی آر")
    if cls is SemioticClass.CARD_NUMBER:
        # cards default to the fixed 2x8 grouping; other splits follow
        return GroupedReadings(digits, lead=(2,) * 8)
    return GroupedReadings(digits)


# --- symbols, currencies, abbreviations ------------------------------------

_CLASS_TABLES = {
    SemioticClass.SYMBOL: SYMBOLS,
    SemioticClass.CURRENCY: CURRENCIES,
    SemioticClass.MATH_SYMBOL: MATH_SYMBOLS,
}


def verbalize_symbol(token: str, cls: SemioticClass = SemioticClass.SYMBOL) -> str:
    return _CLASS_TABLES[cls][token]


def verbalize_fraction(numerator: int, denominator: int) -> str:
    return f"{cardinal_words(numerator)} {ordinal_words(denominator)}"


_LETTER_NAMES = dict(table("letter_names").entries)


def spell_latin_letters(token: str) -> str:
    letters = [_LETTER_NAMES[ch.lower()] for ch in token if ch.isalpha()]
    return ZWNJ.join(letters)


def expand_abbreviation(token: str) -> str:
    """Expand a Persian abbreviation or spell a Latin one letter by letter."""
    if token in ABBREV_FA:
        return ABBREV_FA[token]
    if re.fullmatch(r"[A-Za-z.]+", token) and any(c.isalpha() for c in token):
        return spell_latin_letters(token)
    return token


# --- URLs and emails -------------------------------------------------------

URL_PATH_LIMIT = 10


# plain dicts: ``verbalize_url_email`` looks up every character
_URL_WORDS = {style: dict(table(f"url_words_{style}").entries)
              for style in ("latin", "persian")}


def verbalize_url_email(raw: str, style: str = "latin") -> str:
    """Spell out URL/email separators; long URL paths are dropped."""
    words = _URL_WORDS[style]
    m = re.match(r"(?P<scheme>[a-zA-Z]+)://(?P<rest>.*)", raw)
    if m:
        host, _, path = m.group("rest").partition("/")
        if path and (len(path) > URL_PATH_LIMIT or "%" in path):
            path = ""
        raw = m.group("scheme") + "://" + host + ("/" + path if path else "")
    parts = []
    for ch in raw:
        if ch in words:
            parts.append(" " + words[ch] + " ")
        else:
            parts.append(ch)
    return re.sub(r"\s+", " ", "".join(parts)).strip()


# --- the readings of each class --------------------------------------------

def _grouped_id(span: SemioticSpan) -> GroupedReadings:
    return grouped_id_readings(span.raw, span.cls)


def _url_email(span: SemioticSpan) -> list[str]:
    return [verbalize_url_email(span.raw)]


def _currency(span: SemioticSpan) -> list[str]:
    name = verbalize_symbol(span.data["symbol"], SemioticClass.CURRENCY)
    amount = span.data.get("amount")
    if not amount:
        return [name]
    integer, dot, fraction = ascii_digits(amount).partition(".")
    words = decimal_words(integer, fraction) if dot else cardinal_words(int(integer))
    return [f"{words} {name}"]


def _symbol(span: SemioticSpan) -> list[str]:
    if "numerator" in span.data:
        return [verbalize_fraction(span.data["numerator"], span.data["denominator"])]
    return [verbalize_symbol(span.raw, span.cls)]


def _abbreviation(span: SemioticSpan) -> list[str]:
    return [expand_abbreviation(span.raw)]


# class -> span -> every legitimate reading of the span, in the order a FIXED
# policy's index counts
READINGS: dict[SemioticClass, Callable[[SemioticSpan], Sequence[str]]] = {
    SemioticClass.DATE: lambda span: date_variants(span.data["date"]),
    SemioticClass.TIME: lambda span: time_variants(
        span.data["hour"], span.data["minute"], span.data["second"]),
    SemioticClass.PHONE: lambda span: phone_readings(span.raw, span.data["kind"]),
    SemioticClass.NATIONAL_ID: _grouped_id,
    SemioticClass.CARD_NUMBER: _grouped_id,
    SemioticClass.SHEBA: _grouped_id,
    SemioticClass.LONG_NUMBER: _grouped_id,
    SemioticClass.URL: _url_email,
    SemioticClass.EMAIL: _url_email,
    SemioticClass.CURRENCY: _currency,
    SemioticClass.SYMBOL: _symbol,
    SemioticClass.MATH_SYMBOL: _symbol,
    SemioticClass.ABBREV_FA: _abbreviation,
    SemioticClass.ABBREV_EN: _abbreviation,
    SemioticClass.DECIMAL: lambda span: [
        decimal_words(span.data["integer"], span.data["fraction"])],
    SemioticClass.PLAIN_NUMBER: lambda span: [
        cardinal_words(int(span.raw))],
}


def span_variants(span: SemioticSpan) -> Sequence[str]:
    """All legitimate spoken renderings of one classified span."""
    return READINGS[span.cls](span)
