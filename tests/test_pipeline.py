import pytest

from persian_norm import (
    PipelineConfig,
    SelectionPolicy,
    enumerate_verbalizations,
    normalize_general,
    normalize_speech,
)
from persian_norm.pipeline import ENUMERATION_CAP, PASS_NAMES


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
