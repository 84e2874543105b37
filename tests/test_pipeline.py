import random
import re

import pytest

from persian_norm import (
    PipelineConfig,
    SelectionPolicy,
    enumerate_verbalizations,
    normalize_general,
    normalize_speech,
)
from persian_norm.charset import ENTITY_DEPTH
from persian_norm.pipeline import ENUMERATION_CAP, PASS_NAMES, _assemble


def test_general_folds_everything():
    assert normalize_general("عدد ⑥ و علي و ٪ و &amp; 😀") == \
        "عدد ۶ و علی و % و &"


def test_general_plain_text_unchanged():
    text = "متن ساده فارسی بدون تغییر"
    assert normalize_general(text) == text


def test_general_idempotent():
    samples = [
        "عدد ⑥ ٪😀",
        "علي wrote ي ك",
        "a &lt b &amp; c",
        "",
    ]
    for text in samples:
        once = normalize_general(text)
        assert normalize_general(once) == once


# an entity is decoded before the fold, which then maps what it decodes to;
# every level of escaping is undone, so a second run finds no entity left
@pytest.mark.parametrize("text", ["&amp;lt;", "&amp;amp;lt;", "&hellip;", "&ndash;"])
def test_general_idempotent_on_entities(text):
    once = normalize_general(text)
    assert normalize_general(once) == once


# an escaped numeric reference is decoded before the fold makes its digits
# Persian, which would leave ``&#۴۹;``
@pytest.mark.parametrize("text, expected", [
    ("&amp;lt;", "<"),
    ("&amp;amp;lt;", "<"),
    ("&amp;#49;", "۱"),
    ("&" + "amp;" * (ENTITY_DEPTH - 1) + "lt;", "<"),
    # a level past ``ENTITY_DEPTH`` is left for the next run
    ("&" + "amp;" * ENTITY_DEPTH + "lt;", "&lt;"),
])
def test_general_decodes_every_level_of_escaping(text, expected):
    assert normalize_general(text) == expected


# the fold reads what an entity decodes to: the digits of a numeric
# reference are still ASCII when it is decoded, and the fold's fullwidth
# semicolon does not complete an entity left without one
@pytest.mark.parametrize("text, expected", [
    ("&#1587;&#1604;&#1575;&#1605;", "سلام"),
    ("&#x6F1;", "۱"),
    ("c&lt；", "c<;"),
])
def test_general_decodes_entities_before_the_fold(text, expected):
    assert normalize_general(text) == expected


def test_speech_reads_a_number_written_as_entities():
    assert normalize_speech("عدد &#49;&#50; است") == "عدد دوازده است"


# the digit-run row sits before DECIMAL's, so a fraction of a length and
# checksum the row claims is read as a phone, ID or card, and the point is
# left in the text (ROADMAP direction 2)
@pytest.mark.xfail(strict=True, reason="decimal fraction read as a national ID")
def test_speech_decimal_with_an_id_shaped_fraction():
    assert normalize_speech("عدد 3.0523924984 است") == \
        "عدد سه ممیز صفر پنج دو سه نه دو چهار نه هشت چهار است"


# a digit counts as a word character beside an abbreviation, so the
# abbreviation is read only once the digit is spoken (ROADMAP direction 7)
@pytest.mark.xfail(strict=True, reason="abbreviation glued to a digit")
@pytest.mark.parametrize("text", ["7ر.ک", "ر.ک7", "4IR"])
def test_speech_abbreviation_glued_to_a_digit_is_idempotent(text):
    once = normalize_speech(text)
    assert normalize_speech(once) == once


# the abbreviations of "before noon" and "after noon" after a time
@pytest.mark.parametrize("text, expected", [
    ("جلسه ساعت ۱۰ ق.ظ برگزار شد.", "جلسه ساعت ده قبل از ظهر برگزار شد."),
    ("ساعت ۵ ب.ظ رسید.", "ساعت پنج بعد از ظهر رسید."),
])
def test_speech_reads_noon_abbreviations(text, expected):
    assert normalize_speech(text) == expected


def test_disable_pass():
    config = PipelineConfig().disable("strip_emojis")
    assert "😀" in normalize_general("سلام 😀", config)
    assert "😀" not in normalize_general("سلام 😀")


def test_disable_unknown_pass_rejected():
    with pytest.raises(ValueError):
        PipelineConfig().disable("no_such_pass")
    with pytest.raises(ValueError):
        PipelineConfig(enabled_passes=frozenset({"bogus"}))


def test_speech_time_elision():
    assert normalize_speech("ساعت 8:00") == "ساعت هشت"


def test_speech_currency():
    assert normalize_speech("قیمت 25$ بود") == "قیمت بیست و پنج دلار بود"


def test_speech_bare_currency_symbol():
    assert normalize_speech("فقط $ ماند") == "فقط دلار ماند"


def test_speech_decimal():
    assert normalize_speech("عدد 3.14 است") == "عدد سه ممیز چهارده صدم است"


def test_speech_percent():
    assert normalize_speech("رشد ۲ ٪ بود") == "رشد دو درصد بود"


def test_speech_date_default_template():
    assert normalize_speech("تاریخ 1397/7/9 بود") == \
        "تاریخ نهم مهر سال هزار و سیصد و نود و هفت بود"


def test_speech_plain_text_unchanged():
    text = "متن بدون عدد و نماد"
    assert normalize_speech(text) == text


def test_speech_general_prepass_applies():
    # Persian-variant digits and arabic letters fold before scanning
    assert normalize_speech("ساعت ٨:٠٠") == "ساعت هشت"


def test_speech_no_digits_remain():
    samples = [
        "ساعت 11:35 و قیمت 25$ و عدد 3.14",
        "تماس: 09397796915",
        "تاریخ 1400-07-25",
        "کد ملی 0523924984 است",
        "تاریخ 0000/01/01 بود",  # year 0 is no date
    ]
    for text in samples:
        out = normalize_speech(text)
        assert not any(ch.isdigit() for ch in out), out
        assert not any("۰" <= ch <= "۹" for ch in out), out


def test_enumerate_year_zero():
    assert enumerate_verbalizations("31/12/000")


def test_speech_punctuation_spacing():
    out = normalize_speech("ساعت 11:35.")
    assert out.endswith("دقیقه.") or out.endswith("پنج.")
    assert " ." not in out


def test_speech_seeded_determinism():
    config = PipelineConfig(policy=SelectionPolicy.seeded(42))
    text = "در 1400-07-25 ساعت 11:35 با 09397796915 تماس بگیرید"
    assert normalize_speech(text, config) == normalize_speech(text, config)


def test_speech_seeds_differ_somewhere():
    text = "در 1400-07-25 ساعت 11:35 با 09397796915 تماس بگیرید"
    outputs = {
        normalize_speech(text, PipelineConfig(policy=SelectionPolicy.seeded(s)))
        for s in range(20)
    }
    assert len(outputs) > 1


def test_enumerate_contains_seeded_choice():
    text = "ساعت 11:35 رسید"
    everything = enumerate_verbalizations(text)
    for seed in range(10):
        config = PipelineConfig(policy=SelectionPolicy.seeded(seed))
        assert normalize_speech(text, config) in everything


def test_enumerate_counts_multiply():
    # one date (10 templates) and one mobile phone (3 partitions)
    text = "در 1400-07-25 با 09397796915 تماس بگیرید"
    assert len(enumerate_verbalizations(text)) == 30


def test_enumerate_plain_text():
    assert enumerate_verbalizations("متن ساده") == ["متن ساده"]


def test_enumerate_deduplicates():
    out = enumerate_verbalizations("ساعت 8:00")
    assert len(out) == len(set(out))


def test_enumerate_cap_enforced():
    # seven dates: 10**7 combinations blows the cap
    text = " و ".join(["1400-07-25"] * 7)
    with pytest.raises(ValueError):
        enumerate_verbalizations(text)
    assert ENUMERATION_CAP == 10**4


def test_fixed_template_index():
    config = PipelineConfig(policy=SelectionPolicy.fixed(1))
    out = normalize_speech("تاریخ 1397/7/9 بود", config)
    assert out != normalize_speech("تاریخ 1397/7/9 بود")
    assert out in [
        f"تاریخ {v} بود"
        for v in enumerate_verbalizations("1397/7/9")
    ]


def test_negative_template_index_rejected():
    with pytest.raises(ValueError):
        SelectionPolicy.fixed(-1)


def test_line_streaming_equivalence():
    lines = ["ساعت 8:00", "قیمت 25$ بود", "متن ساده"]
    joined_out = [normalize_speech(ln) for ln in lines]
    assert joined_out == ["ساعت هشت", "قیمت بیست و پنج دلار بود", "متن ساده"]


@pytest.mark.parametrize("kind", [set, list, tuple])
def test_config_takes_any_collection_of_passes(kind):
    config = PipelineConfig(enabled_passes=kind(["fold_digits"]))
    assert config.enabled_passes == frozenset({"fold_digits"})
    assert normalize_general("۶ 😀 ي", config) == "۶ 😀 ي"
    assert normalize_general("6 😀", config.disable("fold_digits")) == "6 😀"


def test_config_is_frozen():
    config = PipelineConfig()
    with pytest.raises(Exception):
        config.policy = SelectionPolicy.seeded(1)


def test_pass_names_stable():
    assert PASS_NAMES == (
        "fold_characters", "fold_digits", "fold_punctuation",
        "decode_markup_entities", "strip_emojis",
    )


@pytest.mark.parametrize("text, spoken", [
    ("خبر را گفت BBC.", "خبر را گفت بی\u200cبی\u200cسی."),
    ("سازمان NASA. بعد", "سازمان ان\u200cای\u200cاس\u200cای. بعد"),
])
def test_acronym_read_before_full_stop(text, spoken):
    assert normalize_speech(text) == spoken


# the clean-up as two passes: runs of spaces collapsed, then the space
# before a closing mark dropped
_MULTI_SPACE = re.compile(r"  +")
_SPACE_BEFORE_PUNCT = re.compile(r" (?=[.,،؛;:!؟?»)\]])")


def _two_pass_cleanup(text):
    return _SPACE_BEFORE_PUNCT.sub("", _MULTI_SPACE.sub(" ", text)).strip()


def test_one_pass_cleanup_matches_the_two_pass_one():
    rng = random.Random(41)
    alphabet = " .,،؛;:!؟?»)]a\tب"
    for _ in range(100_000):
        text = "".join(rng.choices(alphabet, k=rng.randrange(16)))
        # with no spans, ``_assemble`` only cleans the text up
        assert _assemble(text, [], []) == _two_pass_cleanup(text), repr(text)
