"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS line once every assertion
in it holds, so `pytest -v -s tests/test_acceptance.py` gives a one-line
verdict per criterion.
"""

import random
import re
import time

from persian_norm import (
    PhoneKind,
    PipelineConfig,
    SelectionPolicy,
    cardinal_words,
    enumerate_verbalizations,
    expand_abbreviation,
    normalize_general,
    normalize_speech,
    split_sentences,
    validate_card,
    validate_national_id,
    verbalize_url_email,
    words_to_number,
)
from persian_norm.numwords import MAX_VALUE, group_words_to_digits, grouped_digit_words
from persian_norm.pipeline import PASS_NAMES
from persian_norm.resources import fixture_path, table
from persian_norm.verbalize import READINGS, compositions, phone_readings
from persian_norm.scanner import SemioticClass, SemioticSpan

N_PROPERTY = 10_000

ONE = {name: PipelineConfig(enabled_passes={name}) for name in PASS_NAMES}


def _collapse(s: str) -> str:
    return re.sub(r" +", " ", s).strip()


# published reference outputs, keyed by the verbatim input string
REFERENCE_OUTPUTS = {
    "11:35": [
        "یازده و سی و پنج",
        "یازده و سی و پنج دقیقه",
    ],
    "1400-07-25": [
        "بیست و پنج مهر ماه هزار و چهارصد",
        "بیست و پنجم مهر هزار و چهارصد",
        "بیست و پنج مهر سال هزار و چهارصد",
        "بیست و پنج هفت هزار و چهارصد",
    ],
    "09397796915": [
        "صفر نهصد و سی و نه هفتاد و هفت نود و شش نهصد و پانزده",
        "صفر نهصد و سی و نه هفتاد و هفت نهصد و شصت و نه پانزده",
        "صفر نهصد و سی و نه هفتصد و هفتاد و نه شصت و نه پانزده",
    ],
    "0523924984": [
        "صفر پنج بیست و سه نود و دو چهل و نه هشتاد و چهار",
        "صفر پنجاه و دو سی و نه دویست و چهل و نه هشتاد و چهار",
    ],
    "6104337852441441": [
        "شصت و یک صفر چهار سی و سه هفتاد و هشت "
        "پنجاه و دو چهل و چهار چهارده چهل و یک",
    ],
}


def test_criterion_1_reference_table_reproduction():
    start = time.perf_counter()
    for raw, expected_list in REFERENCE_OUTPUTS.items():
        produced = {_collapse(v) for v in enumerate_verbalizations(raw)}
        for expected in expected_list:
            assert _collapse(expected) in produced, (raw, expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print("criterion 1 (reference table reproduction): PASS")


def test_criterion_2_worked_examples():
    assert normalize_speech("1397/7/9") == "نهم مهر سال هزار و سیصد و نود و هفت"
    raw = "http://wpc.be1e.edgecastcdn.net/news/20ak9qy4prra.html"
    assert verbalize_url_email(raw) == (
        "http do noghte slash slash wpc dot be1e dot edgecastcdn dot net"
    )
    assert expand_abbreviation("ر.ک") == "رجوع کنید"
    assert expand_abbreviation("Ph.D") == "پی‌اچ‌دی"
    print("criterion 2 (worked examples): PASS")


def test_criterion_3_number_words_oracle():
    start = time.perf_counter()
    for n in range(100_000):
        assert words_to_number(cardinal_words(n)) == n
    rng = random.Random(20260823)
    for _ in range(1_000):
        n = rng.randrange(MAX_VALUE)
        assert words_to_number(cardinal_words(n)) == n
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print("criterion 3 (number-words round trip): PASS")


def test_criterion_4_segmentation_accuracy():
    from persian_norm.cli import evaluate_gold_fixture, read_gold_fixture

    gold_path = fixture_path("segmentation_gold.txt")
    accuracy = evaluate_gold_fixture(gold_path)
    assert accuracy >= 0.85, f"accuracy {accuracy:.4f}"

    # the three dot families must never cause a split
    families = {
        "decimal": [
            "عدد 3.14 مهم است.", "نرخ 2.5 درصد بود.", "وزن 1.75 کیلوگرم شد.",
            "خطا 0.05 بود.", "بارش 12.8 میلی‌متر رسید.",
        ],
        "abbreviation": [
            "برای جزئیات ر.ک فصل سوم.", "رویداد در 540 ق.م رخ داد.",
            "شاعر در 1310 ه.ش زاده شد.", "نسخه به قرن پنجم ه.ق تعلق دارد.",
            "او مدرک Ph.D گرفت.",
        ],
        "url": [
            "سایت example.com را ببینید.", "صفحه http://news.example.org/latest باز شد.",
            "ایمیل support@example.com است.", "فایل readme.html را بخوانید.",
            "مقاله در archive.example.org آمد.",
        ],
    }
    for family, sentences in families.items():
        for sentence in sentences:
            assert split_sentences(sentence) == [sentence], (family, sentence)
    print(f"criterion 4 (segmentation, accuracy {accuracy:.4f}): PASS")


_WORDS = (
    "کتاب خانه مدرسه درخت آسمان دریا کوه شهر روستا خیابان دوست خورشید "
    "باران برف بهار تابستان پاییز زمستان صبح شب روز هفته ماه سال"
).split()

_EMOJIS = "😀🌍⚽🚗👍"


def _random_token(rng):
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
        return rng.choice(_EMOJIS)
    return rng.choice(_WORDS)


def _random_text(rng):
    return " ".join(_random_token(rng) for _ in range(rng.randrange(1, 8)))


_SPOKEN_SYMBOLS = (
    set(table("symbols"))
    | set(table("currencies"))
    | set(table("math_symbols"))
)


def test_criterion_5_property_suites():
    rng = random.Random(7)
    config = PipelineConfig(policy=SelectionPolicy.fixed(0))

    for _ in range(N_PROPERTY):
        text = _random_text(rng)
        for name, one in ONE.items():
            once = normalize_general(text, one)
            assert normalize_general(once, one) == once, (name, text)
        spoken = normalize_speech(text, config)
        assert normalize_speech(spoken, config) == spoken, text
        # purity: nothing left that still needs verbalizing
        assert not any(ch.isdigit() or "۰" <= ch <= "۹" for ch in spoken), text
        assert not any(ch in _SPOKEN_SYMBOLS for ch in spoken), text

    for _ in range(N_PROPERTY):
        digits = "09" + "".join(str(rng.randrange(10)) for _ in range(9))
        for sizes, words in zip(compositions(7),
                                phone_readings(digits, PhoneKind.MOBILE).readings()):
            groups = words.split(" و ")  # not group-aligned; re-derive instead
            rebuilt = "0" + group_words_to_digits(
                grouped_digit_words(digits[1:4], [3]), 3
            )
            pos = 4
            for size in sizes:
                rebuilt += group_words_to_digits(
                    grouped_digit_words(digits[pos:pos + size], [size]), size
                )
                pos += size
            assert rebuilt == digits
            assert groups  # keep the parse honest: variants are non-empty

    for _ in range(N_PROPERTY):
        digits = "".join(str(rng.randrange(10)) for _ in range(10))
        span = SemioticSpan(0, 10, SemioticClass.NATIONAL_ID, digits, {})
        for words in READINGS[SemioticClass.NATIONAL_ID](span).readings():
            assert not any(ch.isdigit() for ch in words)

    for _ in range(N_PROPERTY):
        text = " ".join(rng.choice(_WORDS) for _ in range(rng.randrange(1, 12)))
        if rng.randrange(2):
            text += rng.choice(".!?؟")
        joined = "".join(split_sentences(text))
        assert joined.replace(" ", "") == text.replace(" ", ""), text

    for _ in range(N_PROPERTY):
        text = _random_text(rng)
        seed = rng.randrange(1_000)
        cfg = PipelineConfig(policy=SelectionPolicy.seeded(seed))
        a = normalize_speech(text, cfg)
        b = normalize_speech(text, cfg)
        assert a.encode() == b.encode(), text
    print("criterion 5 (property suites): PASS")


def test_criterion_6_checksum_perturbations():
    nid = "0523924984"
    assert validate_national_id(nid)
    rejected = 0
    for i in range(9):  # perturb each data digit, keep the check digit
        d = (int(nid[i]) + 1) % 10
        mutant = nid[:i] + str(d) + nid[i + 1:]
        if not validate_national_id(mutant):
            rejected += 1
    assert rejected == 9

    card = "6104337852441441"
    assert validate_card(card)
    rejected = 0
    for i in range(15):
        d = (int(card[i]) + 1) % 10
        mutant = card[:i] + str(d) + card[i + 1:]
        if not validate_card(mutant):
            rejected += 1
    assert rejected == 15
    print("criterion 6 (checksum perturbations): PASS")


def criterion_7_corpus() -> tuple[list[str], int]:
    """The criterion-7 lines and their size in bytes: prose-like density,
    roughly one semiotic token per ten words."""
    rng = random.Random(3)
    lines = []
    size = 0
    while size < 1_000_000:
        tokens = [
            _random_token(rng) if rng.randrange(10) == 0 else rng.choice(_WORDS)
            for _ in range(rng.randrange(5, 15))
        ]
        line = " ".join(tokens)
        lines.append(line)
        size += len(line.encode("utf-8")) + 1
    return lines, size


def test_criterion_7_throughput():
    lines, size = criterion_7_corpus()
    start = time.perf_counter()
    for line in lines:
        normalize_speech(line)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s for {size} bytes"
    print(f"criterion 7 (throughput, {elapsed:.2f}s/MB): PASS")
