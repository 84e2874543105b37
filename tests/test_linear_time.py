"""Time grows linearly on the input shapes that used to be super-linear.

Each test times an input and the same shape at twice the size, one after
the other, seven times with the garbage collector off (as ``timeit`` does),
and bounds the median of the seven log2 time ratios: about 1 when time is
linear, 2 when it is quadratic.  The sizes are large enough that a quadratic
cost dominates the per-call overhead.
"""

import gc
import math
import random
import statistics
import time

import pytest

from persian_norm import (
    PipelineConfig,
    SelectionPolicy,
    SemioticClass,
    normalize_general,
    normalize_speech,
    scan,
    split_sentences,
)
from persian_norm.scanner import _accepted
from test_scanner import one_match_rows

GROWTH_BOUND = 1.4


def _growth(fn, small, big, calls=1):
    def timed(arg):
        start = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        return time.perf_counter() - start

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        ratios = [math.log2(timed(big) / timed(small)) for _ in range(7)]
    finally:
        if gc_was_enabled:
            gc.enable()
    return statistics.median(ratios)


def _letter_run(n):
    rng = random.Random(1)
    letters = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(n))
    return f"متن {letters} پایان"


def _number_line(n):
    rng = random.Random(1)
    return " ".join(str(rng.randrange(1, 1000)) for _ in range(n))


def _digit_run(n):
    return "شماره " + "".join(str(i * 7 % 9 + 1) for i in range(n))


def _seven_digit_runs(n):
    # each run one digit short of the shortest the digit-run row needs
    rng = random.Random(1)
    return " ".join(str(rng.randrange(10**6, 10**7)) for _ in range(n)) + " پایان."


def _dotted_letter_run(n):
    return _letter_run(n) + "."


def _decimal_paragraph(n):
    rng = random.Random(1)
    return " ".join(
        f"عدد {rng.randrange(100)}.{rng.randrange(1, 100)}" for _ in range(n)
    ) + " پایان."


def _unpunctuated_words(n):
    # about 9.6 UTF-8 bytes a word; no terminal mark, so the whole text is one
    # segment that falls back to the verb split
    rng = random.Random(1)
    words = ("دانش‌آموزان", "به", "مدرسه", "رفتند", "معلم", "درس", "داد", "و")
    return " ".join(rng.choice(words) for _ in range(n))


def _short_sentences(n):
    rng = random.Random(1)
    return " ".join(f"هوا سرد بود{rng.choice('.!?؟')}" for _ in range(n))


def _unfinished_ligatures(n):
    # "صل" begins both ligature surfaces; the run never completes one
    return "متن " + "صل" * n + " پایان"


def _joined_emoji(n):
    return "متن " + "\u200d".join(["😀"] * n) + " پایان"


def _reversed_spans(n):
    # rows of one match each: n disjoint TIME matches from the end of the
    # text back to its start, each followed by a PLAIN_NUMBER match that it
    # covers, so each row matches before the rows listed ahead of it
    candidates = []
    for i in reversed(range(n)):
        candidates.append((SemioticClass.TIME, 4 * i, 4 * i + 3, {}))
        candidates.append((SemioticClass.PLAIN_NUMBER, 4 * i + 2, 4 * i + 3, {}))
    return "1:2 " * n, set(), one_match_rows(candidates)


def test_latin_letter_run_speech():
    # the email detector retried a local part from every letter of the run
    growth = _growth(normalize_speech, _letter_run(4000), _letter_run(8000), calls=20)
    assert growth < GROWTH_BOUND


def test_many_numbers_on_one_line_speech():
    # overlap resolution against every accepted span was quadratic
    growth = _growth(normalize_speech, _number_line(2000), _number_line(4000))
    assert growth < GROWTH_BOUND


def test_long_digit_run_speech():
    # building every digit-group reading grew as 1.32**n
    growth = _growth(normalize_speech, _digit_run(16), _digit_run(32), calls=20)
    assert growth < GROWTH_BOUND


@pytest.mark.parametrize("index", [0, 3])
def test_very_long_digit_run_speech_fixed(index):
    # a FIXED pick counted every grouping of the run, and unranked its
    # grouping with counts as wide as the run
    config = PipelineConfig(policy=SelectionPolicy.fixed(index))
    growth = _growth(lambda text: normalize_speech(text, config),
                     _digit_run(100_000), _digit_run(200_000))
    assert growth < GROWTH_BOUND


def test_many_spans_in_reverse_text_order_resolve():
    # each accepted span was inserted mid-list into three sorted lists
    growth = _growth(lambda args: _accepted(*args), _reversed_spans(25000),
                     _reversed_spans(50000))
    assert growth < GROWTH_BOUND


def test_decimal_paragraph_split():
    # looking up each terminal mark in every protected interval was quadratic
    growth = _growth(split_sentences, _decimal_paragraph(2000),
                     _decimal_paragraph(4000))
    assert growth < GROWTH_BOUND


# each text about 200 KB, and 400 KB at twice n
@pytest.mark.parametrize("shape, n", [
    (_unpunctuated_words, 21_000),
    (_short_sentences, 9_000),
], ids=["no_terminal_mark", "short_sentences"])
def test_split_growth(shape, n):
    growth = _growth(split_sentences, shape(n), shape(2 * n))
    assert growth < GROWTH_BOUND


# each text about 200 KB, and 400 KB at twice n; the scanner's first pass
# gives each run one token
@pytest.mark.parametrize("fn", [scan, split_sentences], ids=["scan", "split"])
@pytest.mark.parametrize("shape, n", [
    (_seven_digit_runs, 25_000),
    (_dotted_letter_run, 200_000),
], ids=["seven_digit_runs", "letter_run"])
def test_run_growth(fn, shape, n):
    growth = _growth(fn, shape(n), shape(2 * n))
    assert growth < GROWTH_BOUND


# dots of Persian abbreviations, each text about 100 KB and 200 KB at twice
# n: in "ر." and "هـ." each dot is an anchor whose abbreviation does not
# match, in "ر.ک" every anchor but the first is guarded off, and in "ر.ک "
# every anchor matches
@pytest.mark.parametrize("fn", [normalize_speech, split_sentences],
                         ids=["speech", "split"])
@pytest.mark.parametrize("unit, n", [
    ("ر.", 33_000), ("ر.ک", 20_000), ("ر.ک ", 17_000), ("هـ.", 20_000),
], ids=["head_dot", "glued", "spaced", "two_letter_head_dot"])
def test_dotted_abbreviation_growth(fn, unit, n):
    growth = _growth(fn, unit * n, unit * (2 * n))
    assert growth < GROWTH_BOUND


def test_long_digit_run_scan():
    # the postfix currency amount was retried from every digit of the run
    growth = _growth(scan, _digit_run(4000), _digit_run(8000), calls=5)
    assert growth < GROWTH_BOUND


def test_unfinished_ligature_run_general():
    # every "صل" begins a ligature, and the letter after it ends the match
    growth = _growth(normalize_general, _unfinished_ligatures(20000),
                     _unfinished_ligatures(40000), calls=5)
    assert growth < GROWTH_BOUND


def test_nested_escapes_general():
    # each level of escaping is one more pass of the entity decoding
    growth = _growth(normalize_general, "&" + "amp;" * 20000 + "lt;",
                     "&" + "amp;" * 40000 + "lt;", calls=5)
    assert growth < GROWTH_BOUND


def test_zwj_joined_emoji_run_general():
    # the whole run is one emoji sequence for the emoji pattern
    growth = _growth(normalize_general, _joined_emoji(10000),
                     _joined_emoji(20000), calls=5)
    assert growth < GROWTH_BOUND


@pytest.mark.parametrize("shape", [
    lambda n: "ب" * n + "1",  # the one changed character is the last
    lambda n: "1" + "ب" * n,  # every character after the first is translated
], ids=["changed_last", "changed_first"])
def test_fold_from_the_first_changed_character_general(shape):
    growth = _growth(normalize_general, shape(100000), shape(200000), calls=5)
    assert growth < GROWTH_BOUND
