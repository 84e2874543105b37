"""Seeded input generators for the four benchmark workloads.

Every generator takes a ``random.Random`` and returns plain strings; the
program under test only ever sees those strings.  The same seed gives the
same bytes.

A workload is three lists:

* ``docs``: the inputs of the MB/s metrics, each passed as one call
* ``items``: the inputs of the latency percentiles (for prose and dense,
  the same lines as ``docs``)
* ``pairs``: ``(shape, small, big)`` where ``big`` is ``small`` at twice
  the size, for the growth metrics: ``small`` twice over where the shape
  allows it, a fresh input of twice the size for the adversarial shapes
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# --- prose: the criterion-7 throughput corpus --------------------------------
# A stand-alone copy of the generator in tests/test_acceptance.py, so that the
# workload does not change when the tests do.  selftest.py checks that both
# still build the same bytes at seed 3.

PROSE_WORDS = (
    "کتاب خانه مدرسه درخت آسمان دریا کوه شهر روستا خیابان دوست خورشید "
    "باران برف بهار تابستان پاییز زمستان صبح شب روز هفته ماه سال"
).split()

PROSE_EMOJIS = "😀🌍⚽🚗👍"

PROSE_BYTES = 1_000_000


def prose_token(rng: random.Random) -> str:
    kind = rng.randrange(10)
    if kind == 0:
        return f"{rng.randrange(24)}:{rng.randrange(60):02d}"
    if kind == 1:
        return f"{rng.randrange(1300, 1450)}/{rng.randrange(1, 13)}/{rng.randrange(1, 29)}"
    if kind == 2:
        return f"{rng.randrange(1000)}{rng.choice('$€%')}"
    if kind == 3:
        return f"{rng.randrange(100)}.{rng.randrange(1, 100)}"
    if kind == 4:
        return "09" + "".join(str(rng.randrange(10)) for _ in range(9))
    if kind == 5:
        return str(rng.randrange(10_000))
    if kind == 6:
        return rng.choice(PROSE_EMOJIS)
    return rng.choice(PROSE_WORDS)


def prose_lines(rng: random.Random) -> list[str]:
    """About 1 MB of 5-15-word lines, one semiotic token per ten words."""
    lines = []
    size = 0
    while size < PROSE_BYTES:
        tokens = [
            prose_token(rng) if rng.randrange(10) == 0 else rng.choice(PROSE_WORDS)
            for _ in range(rng.randrange(5, 15))
        ]
        line = " ".join(tokens)
        lines.append(line)
        size += len(line.encode("utf-8")) + 1
    return lines


# --- dense: about half the tokens are semiotic -------------------------------

def _digits(rng: random.Random, n: int) -> str:
    return "".join(str(rng.randrange(10)) for _ in range(n))


def luhn_card(rng: random.Random) -> str:
    """A 16-digit card number whose Luhn check digit is correct."""
    while True:
        body = "6" + _digits(rng, 14)
        total = 0
        for i, ch in enumerate(reversed(body)):
            d = int(ch)
            if i % 2 == 0:  # doubled once the check digit is appended
                d *= 2
                if d > 9:
                    d -= 9
            total += d
        card = body + str((10 - total % 10) % 10)
        if len(set(card)) > 1:
            return card


def national_id(rng: random.Random) -> str:
    """A 10-digit Iranian national ID with a correct mod-11 check digit."""
    while True:
        body = _digits(rng, 9)
        r = sum(int(d) * w for d, w in zip(body, range(10, 1, -1))) % 11
        nid = body + str(r if r < 2 else 11 - r)
        if len(set(nid)) > 1:
            return nid


def sheba(rng: random.Random) -> str:
    """"IR" + 24 digits with correct IBAN mod-97 check digits."""
    bban = _digits(rng, 22)
    check = 98 - int(bban + "182700") % 97
    return f"IR{check:02d}{bban}"


DENSE_WORDS = (
    "پرداخت حساب شماره کارت بانک مبلغ تاریخ ساعت جلسه قرار سفارش ارسال "
    "دریافت قیمت تخفیف کد ملی تلفن نشانی سایت ایمیل گزارش فایل درصد"
).split()

_LATIN_NAMES = "ali sara reza mina news shop mail data web".split()
_DOMAINS = "example.com shop.ir news.org data.net bank.ir".split()
_ABBREV_FA = "ر.ک ن.ک ق.م ه.ش ه.ق پ.ن ص.پ ک.پ".split()
_ABBREV_EN = "Ph.D U.N NASA UNESCO BBC".split()
_SYMBOLS = "×÷±√≈≠≤≥∞½¼¾°©™"
_CURRENCIES = "$€£¥"

# the kinds whose value scan must classify with the named class
ID_KINDS = {"card": "CARD_NUMBER", "national_id": "NATIONAL_ID", "sheba": "SHEBA"}


DENSE_KINDS = (
    "card", "national_id", "sheba", "mobile", "landline", "date_solar",
    "date_gregorian", "time", "url", "email", "currency", "fraction",
    "decimal", "abbrev_fa", "abbrev_en", "symbol", "percent", "number",
)


def dense_token(rng: random.Random, kind: str) -> str:
    """One semiotic token of the given kind."""
    if kind == "card":
        return luhn_card(rng)
    if kind == "national_id":
        return national_id(rng)
    if kind == "sheba":
        return sheba(rng)
    if kind == "mobile":
        return "09" + _digits(rng, 9)
    if kind == "landline":
        return rng.choice(("021", "031", "051", "071")) + str(rng.randrange(2, 10)) + _digits(rng, 7)
    if kind == "date_solar":
        sep = rng.choice("/-.")
        return f"{rng.randrange(1300, 1450)}{sep}{rng.randrange(1, 13):02d}{sep}{rng.randrange(1, 29):02d}"
    if kind == "date_gregorian":
        return f"{rng.randrange(1990, 2031)}/{rng.randrange(1, 13)}/{rng.randrange(1, 29)}"
    if kind == "time":
        return f"{rng.randrange(24)}:{rng.randrange(60):02d}:{rng.randrange(60):02d}"
    if kind == "url":
        scheme = rng.choice(("https://", "http://", "www.", ""))
        path = rng.choice(("", "/news", "/shop/cart", "/about"))
        host = rng.choice(_DOMAINS)
        if scheme == "www.":
            host = host.split(".", 1)[0] + ".com"
        return f"{scheme}{host}{path}"
    if kind == "email":
        return f"{rng.choice(_LATIN_NAMES)}.{rng.choice(_LATIN_NAMES)}@{rng.choice(_DOMAINS)}"
    if kind == "currency":
        amount = str(rng.randrange(1, 100_000))
        if rng.randrange(3) == 0:
            amount += f".{rng.randrange(10, 100)}"
        sym = rng.choice(_CURRENCIES)
        return sym + amount if rng.randrange(2) else amount + sym
    if kind == "fraction":
        den = rng.randrange(2, 21)
        return f"{rng.randrange(1, den)}/{den}"
    if kind == "decimal":
        return f"{rng.randrange(1000)}.{rng.randrange(1, 1000)}"
    if kind == "abbrev_fa":
        return rng.choice(_ABBREV_FA)
    if kind == "abbrev_en":
        return rng.choice(_ABBREV_EN)
    if kind == "symbol":
        return rng.choice(_SYMBOLS)
    if kind == "percent":
        return f"{rng.randrange(100)}%"
    return str(rng.randrange(1_000_000))


def dense_lines(rng: random.Random, n: int = 1200) -> tuple[list[str], list[tuple[str, str]]]:
    """Short lines in which about half the tokens are semiotic.

    Kinds are dealt from shuffled decks, so every seed gets the same mix of
    classes and only the values and their placement vary.  Returns the lines
    and every (token, kind) placed in them whose kind is in ``ID_KINDS``.
    """
    lines, ids, deck = [], [], []
    for _ in range(n):
        tokens = []
        for _ in range(rng.randrange(4, 11)):
            if rng.randrange(2):
                if not deck:
                    deck = list(DENSE_KINDS)
                    rng.shuffle(deck)
                kind = deck.pop()
                token = dense_token(rng, kind)
                if kind in ID_KINDS:
                    ids.append((token, kind))
                tokens.append(token)
            else:
                tokens.append(rng.choice(DENSE_WORDS))
        lines.append(" ".join(tokens))
    return lines, ids


# --- documents: whole web-style documents as one string ----------------------

DOC_WORDS = (
    "امروز دیروز کتاب خانه مدرسه شهر کشور دولت مردم گزارش خبر سال ماه "
    "پژوهش دانشگاه دانشجو استاد مقاله نتیجه بازار قیمت رشد کاهش افزایش "
    "شرکت کار برنامه سیستم شبکه ایران تهران جهان مهم بزرگ کوچک جدید"
).split()

DOC_VERBS = (
    "رفت آمد گفت کرد شد بود داشت دید گرفت داد نوشت خواند رسید ماند "
    "ساخت یافت خواست گذاشت رفتند گفتند کردند شدند بودند نوشتند "
    "می‌رود می‌گوید می‌کند می‌شود می‌نویسد است هست"
).split()

_ARABIC_VARIANTS = str.maketrans("یک", "يك")
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_PERSIAN = str.maketrans("0123456789", "۰۱۲۳۴۵۶۷۸۹")
_ENTITIES = ("&amp;", "&quot;", "&nbsp;", "&#1740;", "&lt;", "&gt;")
_DOC_ABBREV = ("ر.ک", "ق.م", "ه.ش", "Ph.D", "U.N")

DOC_SENTENCES = 1600
DOC_PARAGRAPH = 4
GROWTH_PARAGRAPHS = 100


def _doc_number(rng: random.Random, text: str) -> str:
    style = rng.randrange(3)
    if style == 1:
        return text.translate(_ARABIC_INDIC)
    if style == 2:
        return text.translate(_PERSIAN)
    return text


def _doc_token(rng: random.Random) -> str:
    kind = rng.randrange(8)
    if kind == 0:
        return _doc_number(rng, f"{rng.randrange(100)}.{rng.randrange(1, 100)}")
    if kind == 1:
        return rng.choice(_DOC_ABBREV)
    if kind == 2:
        return rng.choice(("www.example.com", "news.example.org/latest",
                           "https://data.example.ir/report", "info@example.com"))
    if kind == 3:
        return _doc_number(rng, f"{rng.randrange(1380, 1404)}/{rng.randrange(1, 13)}/{rng.randrange(1, 29)}")
    if kind == 4:
        return _doc_number(rng, str(rng.randrange(100_000)))
    if kind == 5:
        return _doc_number(rng, f"{rng.randrange(100)}%")
    if kind == 6:
        return rng.choice(_ENTITIES)
    return _doc_number(rng, f"{rng.randrange(24)}:{rng.randrange(60):02d}")


def _doc_sentence(rng: random.Random) -> str:
    words = []
    for _ in range(rng.randrange(5, 14)):
        if rng.randrange(8) == 0:
            words.append(_doc_token(rng))
        else:
            word = rng.choice(DOC_WORDS)
            if rng.randrange(4) == 0:
                word = word.translate(_ARABIC_VARIANTS)  # web-style letters
            words.append(word)
    words.append(rng.choice(DOC_VERBS))
    mark = rng.choice((".", ".", ".", ".", ".", "؟", "!", "...", ""))
    return " ".join(words) + mark


def document(rng: random.Random) -> list[str]:
    """One document as a list of paragraphs of ``DOC_PARAGRAPH`` sentences."""
    return [
        " ".join(_doc_sentence(rng) for _ in range(DOC_PARAGRAPH))
        for _ in range(DOC_SENTENCES // DOC_PARAGRAPH)
    ]


# --- adversarial: the shapes on which today's code is super-linear ----------

def letter_run(rng: random.Random, n: int) -> str:
    """A Latin letter run with no "@": the email pattern rescans it."""
    letters = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(n))
    return f"متن {letters} پایان"


def number_line(rng: random.Random, n: int) -> str:
    """Many short numbers on one line: overlap resolution is quadratic."""
    return " ".join(str(rng.randrange(1, 1000)) for _ in range(n))


def decimal_paragraph(rng: random.Random, n: int) -> str:
    """Decimals in one paragraph: every dot is looked up in every interval."""
    return " ".join(
        f"عدد {rng.randrange(100)}.{rng.randrange(1, 100)}" for _ in range(n)
    ) + " پایان."


def digit_run(rng: random.Random, n: int) -> str:
    """One long digit run: every digit-group composition is built."""
    return "شماره " + str(rng.randrange(1, 10)) + _digits(rng, n - 1)


ADVERSARIAL_SHAPES = {
    # shape: (generator, n for growth pairs, n range for latency items)
    "letter_run": (letter_run, 2000, (50, 400)),
    "number_line": (number_line, 800, (10, 60)),
    "decimal_paragraph": (decimal_paragraph, 400, (10, 60)),
    "digit_run": (digit_run, 16, (16, 24)),
}


# --- assembly ---------------------------------------------------------------

@dataclass
class Workload:
    docs: list[str]
    items: list[str]
    pairs: list[tuple[str, str, str]]
    seeded_policy: bool = False
    ids: list[tuple[str, str]] = field(default_factory=list)


def _doubled(shape: str, text: str, sep: str) -> tuple[str, str, str]:
    # the same content twice, so that only the length changes
    return (shape, text, text + sep + text)


def build(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "prose":
        lines = prose_lines(rng)
        return Workload(lines, lines, [_doubled("paragraph", " ".join(lines[:512]), " ")])
    if name == "dense":
        lines, ids = dense_lines(rng)
        return Workload(lines, lines, [_doubled("paragraph", " ".join(lines[:128]), " ")],
                        seeded_policy=True, ids=ids)
    if name == "documents":
        paragraphs = [document(rng) for _ in range(3)]
        docs = ["\n".join(d) for d in paragraphs]
        # 400 sentences: long enough to grow super-linearly, short enough to
        # time many times in one run
        part = "\n".join(paragraphs[0][:GROWTH_PARAGRAPHS])
        return Workload(docs, [p for d in paragraphs for p in d],
                        [_doubled("document", part, "\n")])
    if name == "adversarial":
        pairs, items = [], []
        for shape, (gen, n, (lo, hi)) in ADVERSARIAL_SHAPES.items():
            pairs.append((shape, gen(rng, n), gen(rng, 2 * n)))
        for _ in range(250):
            for gen, _, (lo, hi) in ADVERSARIAL_SHAPES.values():
                items.append(gen(rng, rng.randrange(lo, hi + 1)))
        docs = [s for _, small, big in pairs for s in (small, big)]
        return Workload(docs, items, pairs)
    raise ValueError(f"unknown workload: {name}")


WORKLOADS = ("prose", "dense", "documents", "adversarial")
