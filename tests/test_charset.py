import html
import itertools
import random
import re

import pytest

try:
    from re import _parser as sre_parse  # Python 3.11 and later
except ImportError:  # Python 3.10; importing ``sre_parse`` warns from 3.11 on
    import sre_parse

from persian_norm import PipelineConfig, normalize_general
from persian_norm.charset import (
    ENTITY_DEPTH,
    _EMOJI_PAT,
    _EMOJI_RANGES,
    _changed_class,
    check_fold_order,
    composed_fold,
)
from persian_norm.pipeline import PASS_NAMES
from persian_norm.resources import alternation, table

ONE = {name: PipelineConfig(enabled_passes={name}) for name in PASS_NAMES}


def is_emoji_char(ch):
    return any(lo <= ord(ch) <= hi for lo, hi in _EMOJI_RANGES)


def test_arabic_yeh_folds_to_persian():
    assert normalize_general("علي", ONE["fold_characters"]) == "علی"


def test_ascii_identity():
    assert normalize_general("abc", ONE["fold_characters"]) == "abc"


def test_enclosed_latin_capital():
    assert normalize_general("Ⓘ", ONE["fold_characters"]) == "I"


def test_arabic_kaf():
    assert normalize_general("كتاب", ONE["fold_characters"]) == "کتاب"


def test_honorific_ligature_expands():
    assert normalize_general("ﷺ", ONE["fold_characters"]) == "صلی الله علیه و سلم"


def test_fold_digits_ascii():
    assert normalize_general("6", ONE["fold_digits"]) == "۶"


def test_fold_digits_enclosed_variants():
    assert normalize_general("⑥❻", ONE["fold_digits"]) == "۶۶"


def test_fold_digits_identity_on_persian():
    assert normalize_general("۶", ONE["fold_digits"]) == "۶"


def test_fold_digits_multichar_enclosed():
    assert normalize_general("⑩", ONE["fold_digits"]) == "۱۰"
    assert normalize_general("⑮", ONE["fold_digits"]) == "۱۵"


def test_fold_punctuation_half():
    assert normalize_general("½", ONE["fold_punctuation"]) == "۱/۲"


def test_fold_punctuation_percent_variants():
    assert normalize_general("٪", ONE["fold_punctuation"]) == "%"
    assert normalize_general("％", ONE["fold_punctuation"]) == "%"


def test_fold_punctuation_identity():
    assert normalize_general(".", ONE["fold_punctuation"]) == "."


def test_decode_entity_without_semicolon():
    assert normalize_general("&lt", ONE["decode_markup_entities"]) == "<"


def test_decode_named_entity():
    assert normalize_general("a &amp; b", ONE["decode_markup_entities"]) == "a & b"


def test_unknown_ampersand_untouched():
    assert normalize_general("R&D", ONE["decode_markup_entities"]) == "R&D"


def test_strip_emoji_with_space():
    assert normalize_general("سلام 😀", ONE["strip_emojis"]) == "سلام"


def test_strip_emoji_identity():
    assert normalize_general("no emoji", ONE["strip_emojis"]) == "no emoji"


def test_strip_emoji_modifier_sequence():
    assert normalize_general("👍🏽ok", ONE["strip_emojis"]) == "ok"


def test_strip_zwj_sequence_as_unit():
    assert normalize_general("کار 👨‍👩‍👧 تمام", ONE["strip_emojis"]) == "کار تمام"


@pytest.mark.parametrize("name", PASS_NAMES)
@pytest.mark.parametrize("text", [
    "علي ⑥ ٪ &amp; 😀 سلام",
    "متن ساده فارسی",
    "mixed text با ۱۲۳ and ي",
    "",
])
def test_idempotence(name, text):
    once = normalize_general(text, ONE[name])
    assert normalize_general(once, ONE[name]) == once


def test_digit_output_has_no_variants():
    noisy = "6٦⑥❻６⁶0۴"
    out = normalize_general(noisy, ONE["fold_digits"])
    assert all(ch in "۰۱۲۳۴۵۶۷۸۹" for ch in out)


def test_strip_output_disjoint_from_emoji_ranges():
    out = normalize_general("سلام 😀🌍⚽ خوبی؟ 🚗", ONE["strip_emojis"])
    assert not any(is_emoji_char(ch) for ch in out)


def test_fold_order_independence_on_disjoint_domains():
    text = "علي wrote ⑥ نامه با 6 قلم"
    chars_first = normalize_general(normalize_general(text, ONE["fold_characters"]),
                                    ONE["fold_digits"])
    digits_first = normalize_general(normalize_general(text, ONE["fold_digits"]),
                                     ONE["fold_characters"])
    assert chars_first == digits_first


def test_whitespace_positions_preserved():
    text = "اي ب ج 123"
    out = normalize_general(text, ONE["fold_characters"])
    assert [i for i, c in enumerate(text) if c == " "] == \
        [i for i, c in enumerate(out) if c == " "]


def test_emoji_pattern_compiles():
    assert _EMOJI_PAT.search("😀")


# the fold passes in order, each with its table, read anew from the data,
# and the table's alternation
_FOLD_PASSES = [
    (name, tbl, alternation(tbl)) for name, tbl in [
        ("fold_characters", table("ligature_map", "char_map")),
        ("fold_digits", table("digit_map")),
        ("fold_punctuation", table("punct_map")),
    ]
]


def _sequential_general(text, enabled):
    """normalize_general as the passes one after the other: entity
    decoding ``ENTITY_DEPTH`` times, one alternation sub per fold table,
    then emoji removal."""
    if "decode_markup_entities" in enabled:
        for _ in range(ENTITY_DEPTH):
            text = html.unescape(text)
    for name, tbl, pattern in _FOLD_PASSES:
        if name in enabled:
            text = pattern.sub(lambda m: tbl[m.group(0)], text)
    if "strip_emojis" in enabled:
        text = re.sub("  +", " ", _EMOJI_PAT.sub("", text)).strip()
    return text


def _fold_fuzz_lines(n, seed=0):
    chars = set()
    for _, tbl, _ in _FOLD_PASSES:
        for surface, replacement in tbl.items():
            chars.update(surface + replacement)
    pieces = sorted(chars) + [
        "صلّـے", "صلـے", "&amp;", "&lt", "&amp;lt;", "➀", "👨\u200d👩\u200d👧", "😀\u200d",
        "\ufe0f", "←", "\u218f", " ", "  ", "a", "ب",
    ] * 3
    rng = random.Random(seed)
    return ["".join(rng.choice(pieces) for _ in range(rng.randrange(1, 20)))
            for _ in range(n)]


def test_composed_fold_matches_the_passes_in_turn():
    lines = _fold_fuzz_lines(2000)
    for r in range(len(PASS_NAMES) + 1):
        for subset in itertools.combinations(PASS_NAMES, r):
            config = PipelineConfig(enabled_passes=frozenset(subset))
            for text in lines:
                assert normalize_general(text, config) == \
                    _sequential_general(text, subset), (subset, text)


def test_fold_order_check_raises_on_a_later_surface_in_a_replacement():
    with pytest.raises(ValueError, match="'x'"):
        check_fold_order([{"a": "bx"}, {"x": "y"}])
    with pytest.raises(ValueError, match="'a'"):
        check_fold_order([{"a": "ba"}])
    with pytest.raises(ValueError, match="'ab'"):
        check_fold_order([{"c": "d"}, {"ab": "x"}])
    check_fold_order([{"ab": "x"}, {"y": "z"}])


def test_emoji_guard_starts_at_the_lowest_emoji():
    assert normalize_general("a \u2190 b", ONE["strip_emojis"]) == "a b"
    assert normalize_general("a \u218f b", ONE["strip_emojis"]) == "a \u218f b"


def test_fold_key_that_is_an_emoji_is_folded():
    assert is_emoji_char("➀")
    assert normalize_general("➀") == "۱"


@pytest.mark.parametrize("ligature, disabled, expected", [
    ("صلّـے", None, "صلی"),
    ("صلّـے", "fold_characters", "صلّے"),  # its tatweel is still deleted
    ("صلّـے", "fold_digits", "صلی"),
    ("صلّـے", "fold_punctuation", "صلی"),
    ("صلـے", None, "صلی"),
    ("صلـے", "fold_characters", "صلے"),
    ("صلـے", "fold_digits", "صلی"),
    ("صلـے", "fold_punctuation", "صلی"),
])
def test_ligature_with_each_fold_pass_disabled(ligature, disabled, expected):
    config = PipelineConfig() if disabled is None else PipelineConfig().disable(disabled)
    assert normalize_general(ligature, config) == expected


_FOLD_NAMES = [name for name, _, _ in _FOLD_PASSES]
_FOLD_SUBSETS = [frozenset(subset) for r in range(len(_FOLD_NAMES) + 1)
                 for subset in itertools.combinations(_FOLD_NAMES, r)]
_SURFACES = sorted({s for _, tbl, _ in _FOLD_PASSES for s in tbl if len(s) == 1})


def _translate_reference(text, enabled):
    """The fold passes one after the other, each as a plain
    ``str.translate`` through its one-character surfaces."""
    for name, tbl, _ in _FOLD_PASSES:
        if name in enabled:
            text = text.translate({ord(s): r for s, r in tbl.items() if len(s) == 1})
    return text


@pytest.mark.parametrize("enabled", _FOLD_SUBSETS, ids=lambda s: "+".join(sorted(s)) or "none")
def test_fold_of_each_surface_matches_translate(enabled):
    fold = composed_fold(enabled)
    for c in _SURFACES:
        text = "ب" + c + "ب"
        assert fold(text) == _translate_reference(text, enabled), (enabled, c)


_CLEAN = "ب" * 10_000


@pytest.mark.parametrize("text", [
    "يب ب", "ب بي ب", "ب ب ي", "ي", _CLEAN + "ي", _CLEAN + "ي" + _CLEAN,
    "1 ب", "ب 1", "ب ١۲3", "🄰", "🅰", "ب🄰ب", "ب 🅰", "صلّـے1", "1صلـے", "5صلّـے٦",
    "",
])
def test_fold_from_the_first_changed_character(text):
    for enabled in _FOLD_SUBSETS:
        assert composed_fold(enabled)(text) == _sequential_general(text, enabled), \
            (enabled, text)


@pytest.mark.parametrize("text", ["", "ب", "متن ساده فارسی با ۱۲۳", _CLEAN + " a b"])
def test_text_with_nothing_to_change_is_returned_as_itself(text):
    for r in range(len(PASS_NAMES) + 1):
        for subset in itertools.combinations(PASS_NAMES, r):
            assert normalize_general(text, PipelineConfig(subset)) is text, subset


def test_changed_class_writes_astral_code_points_as_ranges():
    # ``re`` tests each astral item of a class in turn; consecutive code
    # points written as one range are one item
    codepoints = [ord(s) for s in _SURFACES]
    assert any(cp > 0xFFFF for cp in codepoints)
    pattern = _changed_class(codepoints)
    op, items = sre_parse.parse(pattern.pattern)[0]
    assert op is sre_parse.IN
    for op, av in items:
        if op is sre_parse.LITERAL:
            assert av <= 0xFFFF, hex(av)
        else:
            assert op is sre_parse.RANGE
            assert av[0] < av[1] or av[1] <= 0xFFFF, [hex(cp) for cp in av]
    covered = {cp for op, av in items
               for cp in ([av] if op is sre_parse.LITERAL else range(av[0], av[1] + 1))}
    assert covered == set(codepoints)
