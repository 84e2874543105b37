import pytest

from persian_norm import (
    decode_markup_entities,
    fold_characters,
    fold_digits,
    fold_punctuation,
    strip_emojis,
)
from persian_norm.charset import _EMOJI_PAT, is_emoji_char


def test_arabic_yeh_folds_to_persian():
    assert fold_characters("علي") == "علی"


def test_ascii_identity():
    assert fold_characters("abc") == "abc"


def test_enclosed_latin_capital():
    assert fold_characters("Ⓘ") == "I"


def test_arabic_kaf():
    assert fold_characters("كتاب") == "کتاب"


def test_honorific_ligature_expands():
    assert fold_characters("ﷺ") == "صلی الله علیه و سلم"


def test_fold_digits_ascii():
    assert fold_digits("6") == "۶"


def test_fold_digits_enclosed_variants():
    assert fold_digits("⑥❻") == "۶۶"


def test_fold_digits_identity_on_persian():
    assert fold_digits("۶") == "۶"


def test_fold_digits_multichar_enclosed():
    assert fold_digits("⑩") == "۱۰"
    assert fold_digits("⑮") == "۱۵"


def test_fold_punctuation_half():
    assert fold_punctuation("½") == "۱/۲"


def test_fold_punctuation_percent_variants():
    assert fold_punctuation("٪") == "%"
    assert fold_punctuation("％") == "%"


def test_fold_punctuation_identity():
    assert fold_punctuation(".") == "."


def test_decode_entity_without_semicolon():
    assert decode_markup_entities("&lt") == "<"


def test_decode_named_entity():
    assert decode_markup_entities("a &amp; b") == "a & b"


def test_unknown_ampersand_untouched():
    assert decode_markup_entities("R&D") == "R&D"


def test_strip_emoji_with_space():
    assert strip_emojis("سلام 😀") == "سلام"


def test_strip_emoji_identity():
    assert strip_emojis("no emoji") == "no emoji"


def test_strip_emoji_modifier_sequence():
    assert strip_emojis("👍🏽ok") == "ok"


def test_strip_zwj_sequence_as_unit():
    assert strip_emojis("کار 👨‍👩‍👧 تمام") == "کار تمام"


@pytest.mark.parametrize("fn", [
    fold_characters, fold_digits, fold_punctuation,
    decode_markup_entities, strip_emojis,
])
@pytest.mark.parametrize("text", [
    "علي ⑥ ٪ &amp; 😀 سلام",
    "متن ساده فارسی",
    "mixed text با ۱۲۳ and ي",
    "",
])
def test_idempotence(fn, text):
    once = fn(text)
    assert fn(once) == once


def test_digit_output_has_no_variants():
    noisy = "6٦⑥❻６⁶0۴"
    out = fold_digits(noisy)
    assert all(ch in "۰۱۲۳۴۵۶۷۸۹" for ch in out)


def test_strip_output_disjoint_from_emoji_ranges():
    out = strip_emojis("سلام 😀🌍⚽ خوبی؟ 🚗")
    assert not any(is_emoji_char(ch) for ch in out)


def test_fold_order_independence_on_disjoint_domains():
    text = "علي wrote ⑥ نامه با 6 قلم"
    assert fold_digits(fold_characters(text)) == fold_characters(fold_digits(text))


def test_whitespace_positions_preserved():
    text = "اي ب ج 123"
    out = fold_characters(text)
    assert [i for i, c in enumerate(text) if c == " "] == \
        [i for i, c in enumerate(out) if c == " "]


def test_emoji_pattern_compiles():
    assert _EMOJI_PAT.search("😀")
