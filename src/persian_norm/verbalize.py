"""Spoken-form rewriting for classified spans.

Each semiotic class has a family of legitimate spoken renderings, a
sequence that ``READINGS`` builds from a span; a ``SelectionPolicy`` picks
one of them (fixed index or seeded random).
"""

from __future__ import annotations

import random
import re
from collections import namedtuple
from collections.abc import Callable, Sequence
from functools import lru_cache

from .numwords import (
    DIGITS, ZWNJ, _group_words, _grouping_words, _word_ends, _zero_bits, cardinal_words,
    decimal_words, ordinal_words)
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
)


class SelectionPolicy(namedtuple("SelectionPolicy", "index seed")):
    """Takes option ``index`` when ``seed`` is None (``fixed``); otherwise
    draws from ``random.Random(seed)`` (``seeded``).  A seed is of a type
    ``random.Random`` takes, a ``bytearray`` kept as ``bytes``: both seed
    the same state, and the policy stays hashable and its draws fixed."""

    __slots__ = ()

    def __new__(cls, index: int = 0, seed: int | float | str | bytes | None = None):
        if not isinstance(index, int) or isinstance(index, bool):
            raise TypeError(f"option index must be an int, not {index!r}")
        if index < 0:
            raise ValueError(f"option index must be 0 or more, not {index}")
        if isinstance(seed, bytearray):
            seed = bytes(seed)
        elif seed is not None and not isinstance(seed, (int, float, str, bytes)):
            raise TypeError("seed must be an int, float, str, bytes or "
                            f"bytearray, not {type(seed).__name__}")
        return super().__new__(cls, index, seed)

    @classmethod
    def _make(cls, fields):  # so that ``_replace`` checks the fields too
        return cls(*fields)

    @classmethod
    def fixed(cls, index: int = 0) -> "SelectionPolicy":
        return cls(index=index)

    @classmethod
    def seeded(cls, seed: int | float | str | bytes) -> "SelectionPolicy":
        return cls(seed=seed)

    def choose(self, options: Sequence[str], rng: random.Random | None = None) -> str:
        """The option this policy takes: FIXED takes ``index``, or option 0
        when there are fewer, and counts none; SEEDED draws ``randrange(count)``
        from ``rng``, the same draw as ``rng.choice`` on ``count`` options.
        """
        if self.seed is None:
            for index in (self.index, 0):
                try:
                    return options[index]
                except IndexError:
                    pass
            raise ValueError("no options to choose from")
        count = option_count(options)
        if count < 1:
            raise ValueError("no options to choose from")
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


def composition_count(n: int) -> int:
    """``len(compositions(n))``, without building a composition: iterates
    ``c(m) = c(m-3) + c(m-2)`` up from ``c(-2) = c(-1) = 0``, ``c(0) = 1``."""
    a, b, c = 0, 0, 1
    for _ in range(n):
        a, b, c = b, c, a + b
    return c if n >= 0 else 0


def composition_at(n: int, index: int) -> tuple[int, ...]:
    """``compositions(n)[index]`` for ``0 <= index``, without building the
    others.  The first ``c(n-3)`` compositions of n are a 3 followed by
    those of n-3, in order, so the count walks up only to the shortest
    tail m = n (mod 3) whose count passes ``index``, then (n-m)/3 threes
    lead: a small index builds no count wider than itself."""
    a, b, c, m = 0, 0, 1, 0  # (c(m-2), c(m-1), c(m))
    while m < n and (c <= index or (n - m) % 3):
        a, b, c = b, c, a + b
        m += 1
    if not 0 <= index < c:
        raise IndexError(f"composition {index} of {n} out of range")
    sizes = [3] * ((n - m) // 3)
    while m:
        # step the window down with c(m-3) = c(m) - c(m-2)
        threes = c - a          # c(m-3): those that start with 3
        c4 = b - threes         # c(m-4)
        if index < threes:
            sizes.append(3)
            m -= 3
            a, b, c = a - c4, c4, threes
        else:
            index -= threes
            sizes.append(2)
            m -= 2
            a, b, c = c4, threes, a
    return tuple(sizes)


# --- dates -----------------------------------------------------------------

_DATE_TEMPLATES = tuple(rows("templates/date.txt"))


# named as a function: it is called as a date family's builder, like
# ``phone_readings``
class date_variants:
    """The readings of a date, one per template of ``templates/date.txt``,
    as a read-only sequence: indexing formats only the template it reads."""

    def __init__(self, d: CalendarDate):
        self._fields = {
            "day_ordinal": ordinal_words(d.day, first_form="اول"),
            "day_cardinal": cardinal_words(d.day),
            "month_name": MONTH_NAMES[d.calendar][d.month - 1],
            "month_number": cardinal_words(d.month),
            "year_cardinal": cardinal_words(d.year),
        }

    def __len__(self) -> int:
        return len(_DATE_TEMPLATES)

    def __getitem__(self, index: int) -> str:
        """Reading ``index``; raises ``IndexError`` past either end."""
        return _DATE_TEMPLATES[index].format_map(self._fields)


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
    policy's pick reads only its own groups, each one ``_group_words`` call.
    Raises ValueError unless ``digits`` is a digit string of the three
    scripts and ``lead``, if given, groups of 1 to 4 digits that cover it.
    """

    # a plain class: a dataclass costs a millisecond of every import
    def __init__(self, digits: str, prefix: str = "", lead: tuple[int, ...] = ()):
        if not digits or digits.lstrip(DIGITS):
            raise ValueError("digits must be a digit string of the three scripts")
        if lead and (sum(lead) != len(digits) or not {*lead} <= {1, 2, 3, 4}):
            raise ValueError(f"lead {lead} is no grouping of {len(digits)} digits")
        self.digits = digits
        self.prefix = prefix
        self.lead = lead
        self._same_as_lead = self._ranks_read_like_lead() if lead else []

    def _say(self, sizes) -> str:
        words = _grouping_words(self.digits, sizes)
        return f"{self.prefix} {words}" if self.prefix else words

    def _ranks_read_like_lead(self) -> list[int]:
        """Ranks, ascending, of the compositions that read like ``lead``."""
        n = len(self.digits)
        zeros = _zero_bits(self.digits)
        starts, pos = {}, 0  # size -> bits where a ``lead`` group of it starts
        for size in self.lead:
            starts[size] = starts.get(size, 0) | 1 << pos
            pos += size
        target = 0  # bits where a word of the ``lead`` reading ends
        for size, at in starts.items():
            for j, ends in enumerate(_word_ends(zeros, size)):
                target |= (ends & at) << j
        # fits[size]: bits where a group of ``size`` ends its words as
        # ``target`` does, within the digits
        fits = {}
        for size in (3, 2):
            fit = (1 << max(n - size + 1, 0)) - 1
            for j, ends in enumerate(_word_ends(zeros, size)):
                fit &= ~(ends ^ (target >> j))
            fits[size] = fit
        # counts[m + 2] = c(m), from c(-2): a 2 at ``pos`` skips the c(n-pos-3)
        # compositions that put a 3 there
        counts = [0, 0, 1]
        for _ in range(n):
            counts.append(counts[-2] + counts[-3])
        ranks = []
        stack = [(0, 0)]  # (position, rank of the first composition from here)
        while stack:
            pos, rank = stack.pop()
            if pos == n:
                ranks.append(rank)
                continue
            if fits[3] >> pos & 1:
                stack.append((pos + 3, rank))
            if fits[2] >> pos & 1:
                stack.append((pos + 2, rank + counts[n - pos - 1]))
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


def phone_readings(digits: str, kind: PhoneKind) -> GroupedReadings:
    # the first ``head`` digits are one group, always read the same way: a
    # mobile's 09XX, a landline's area code 0XX; an 8-digit landline has none
    head = 4 if kind is PhoneKind.MOBILE else len(digits) - 8
    return GroupedReadings(
        digits[head:], _group_words(digits[:head]) if head else "")


# --- abbreviations ---------------------------------------------------------

_LETTER_NAMES = table("letter_names")


def expand_abbreviation(token: str) -> str:
    """Expand a Persian abbreviation or spell a Latin one letter by letter."""
    if token in ABBREV_FA:
        return ABBREV_FA[token]
    if re.fullmatch(r"[A-Za-z.]+", token) and any(c.isalpha() for c in token):
        return ZWNJ.join(_LETTER_NAMES[c.lower()] for c in token if c.isalpha())
    return token


# --- URLs and emails -------------------------------------------------------

URL_PATH_LIMIT = 10


_URL_SEPARATORS = str.maketrans(
    {ch: f" {word} " for ch, word in table("url_words_latin").items()})


def verbalize_url_email(raw: str) -> str:
    """Spell out URL/email separators; long URL paths are dropped."""
    m = re.match(r"(?P<scheme>[a-zA-Z]+)://(?P<rest>.*)", raw)
    if m:
        host, _, path = m.group("rest").partition("/")
        if path and (len(path) > URL_PATH_LIMIT or "%" in path):
            path = ""
        raw = m.group("scheme") + "://" + host + ("/" + path if path else "")
    return re.sub(r"\s+", " ", raw.translate(_URL_SEPARATORS)).strip()


# --- the readings of each class --------------------------------------------

def _currency(span: SemioticSpan) -> list[str]:
    name = CURRENCIES[span.data["symbol"]]
    amount = span.data.get("amount")
    if not amount:
        return [name]
    integer, dot, fraction = amount.partition(".")
    words = decimal_words(integer, fraction) if dot else cardinal_words(int(integer))
    return [f"{words} {name}"]


# class -> span -> every legitimate reading of the span, in the order a FIXED
# policy's index counts
READINGS: dict[SemioticClass, Callable[[SemioticSpan], Sequence[str]]] = {
    SemioticClass.DATE: lambda span: date_variants(span.data["date"]),
    SemioticClass.TIME: lambda span: time_variants(
        span.data["hour"], span.data["minute"], span.data["second"]),
    SemioticClass.PHONE: lambda span: phone_readings(span.raw, span.data["kind"]),
    SemioticClass.NATIONAL_ID: lambda span: GroupedReadings(span.raw),
    # cards default to the fixed 2x8 grouping; other splits follow
    SemioticClass.CARD_NUMBER: lambda span: GroupedReadings(span.raw, lead=(2,) * 8),
    # the row's pattern starts with "IR"
    SemioticClass.SHEBA: lambda span: GroupedReadings(span.raw[2:], "آی آر"),
    SemioticClass.LONG_NUMBER: lambda span: GroupedReadings(span.raw),
    SemioticClass.URL: lambda span: [verbalize_url_email(span.raw)],
    SemioticClass.EMAIL: lambda span: [verbalize_url_email(span.raw)],
    SemioticClass.CURRENCY: _currency,
    SemioticClass.SYMBOL: lambda span: [SYMBOLS[span.raw]],
    SemioticClass.MATH_SYMBOL: lambda span: [
        f"{cardinal_words(span.data['numerator'])} "
        f"{ordinal_words(span.data['denominator'])}"
        if "numerator" in span.data else MATH_SYMBOLS[span.raw]],
    SemioticClass.ABBREV_FA: lambda span: [expand_abbreviation(span.raw)],
    SemioticClass.ABBREV_EN: lambda span: [expand_abbreviation(span.raw)],
    SemioticClass.DECIMAL: lambda span: [
        decimal_words(span.data["integer"], span.data["fraction"])],
    SemioticClass.PLAIN_NUMBER: lambda span: [
        cardinal_words(int(span.raw))],
}


def span_variants(span: SemioticSpan) -> Sequence[str]:
    """All legitimate spoken renderings of one classified span."""
    return READINGS[span.cls](span)
