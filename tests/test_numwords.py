import random

import pytest

from persian_norm import (
    cardinal_words,
    decimal_words,
    grouped_digit_words,
    ordinal_words,
    words_to_number,
)
from persian_norm.numwords import DIGITS, MAX_VALUE, _group_words, group_words_to_digits

PERSIAN_WORD_CHARS = set(
    "ءآابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهیئ" + "‌ "
)


def test_zero():
    assert cardinal_words(0) == "صفر"


def test_year_1397():
    assert cardinal_words(1397) == "هزار و سیصد و نود و هفت"


def test_twenty_five():
    assert cardinal_words(25) == "بیست و پنج"


def test_scale_words():
    assert cardinal_words(1000) == "هزار"
    assert cardinal_words(1_000_000) == "یک میلیون"
    assert cardinal_words(2_000_000_000) == "دو میلیارد"
    assert cardinal_words(10**12) == "هزار میلیارد"
    assert cardinal_words(5 * 10**12) == "پنج هزار میلیارد"


def test_range_errors():
    with pytest.raises(ValueError):
        cardinal_words(-1)
    with pytest.raises(ValueError):
        cardinal_words(MAX_VALUE)


def test_cardinal_rejects_non_int():
    assert cardinal_words(1)  # a cached 1 does not answer for True
    with pytest.raises(TypeError):
        cardinal_words(True)
    with pytest.raises(TypeError):
        cardinal_words("5")


def test_ordinal_ninth():
    assert ordinal_words(9) == "نهم"


def test_ordinal_twenty_fifth():
    assert ordinal_words(25) == "بیست و پنجم"


def test_ordinal_irregular_three():
    assert ordinal_words(3) == "سوم"
    assert ordinal_words(33) == "سی و سوم"


def test_ordinal_first_forms():
    assert ordinal_words(1) == "یکم"
    assert ordinal_words(1, first_form="اول") == "اول"


def test_ordinal_thirty():
    assert ordinal_words(30) == "سی‌ام"


def test_ordinal_rejects_zero():
    with pytest.raises(ValueError):
        ordinal_words(0)


def test_ordinal_changes_only_last_token():
    for n in (5, 27, 142, 2500, 71, 99):
        card = cardinal_words(n).split(" ")
        ordi = ordinal_words(n).split(" ")
        assert card[:-1] == ordi[:-1]
        assert card[-1] != ordi[-1]


def test_decimal_pi():
    assert decimal_words("3", "14") == "سه ممیز چهارده صدم"


def test_decimal_half():
    assert decimal_words("0", "5") == "صفر ممیز پنج دهم"


def test_decimal_zero_fraction():
    assert decimal_words("1", "0") == "یک ممیز صفر دهم"


def test_decimal_thousandths():
    assert decimal_words("2", "125") == "دو ممیز صد و بیست و پنج هزارم"


def test_decimal_long_fraction_digit_by_digit():
    assert decimal_words("1", "2345") == "یک ممیز دو سه چهار پنج"


def test_decimal_rejects_empty():
    with pytest.raises(ValueError):
        decimal_words("", "5")
    with pytest.raises(ValueError):
        decimal_words("1", "")


def test_decimal_rejects_non_digits():
    with pytest.raises(ValueError):
        decimal_words("1", "2a")


def test_decimal_rejects_superscript_digits():
    with pytest.raises(ValueError, match="digit strings"):
        decimal_words("1", "²")


def test_decimal_rejects_digits_of_other_scripts():
    # Devanagari "05": decimal digits that int() reads, but not ones read here
    with pytest.raises(ValueError, match="digit strings"):
        decimal_words("1", "०५")


def test_grouped_leading_zero():
    assert grouped_digit_words("04", [2]) == "صفر چهار"


def test_grouped_two_pairs():
    assert grouped_digit_words("1441", [2, 2]) == "چهارده چهل و یک"


def test_grouped_single_digit():
    assert grouped_digit_words("7", [1]) == "هفت"


def test_grouped_triple_with_zero():
    assert grouped_digit_words("052", [3]) == "صفر پنجاه و دو"


def test_grouped_reads_zeros_in_every_script():
    assert grouped_digit_words("۰۹۱۲", [4]) == "صفر نهصد و دوازده"
    assert grouped_digit_words("٠٠٥", [3]) == "صفر صفر پنج"


def test_group_reader_reads_like_one_group():
    # the unchecked per-group reader that phone heads are read through
    ascii_groups = [f"{n:0{size}d}" for size in range(1, 5) for n in range(10**size)]
    rng = random.Random(5)
    mixed = ["".join(rng.choice(DIGITS) for _ in range(rng.randint(1, 4)))
             for _ in range(20_000)]
    for group in ascii_groups + mixed:
        assert _group_words(group) == grouped_digit_words(group, [len(group)]), group


def test_grouped_size_mismatch():
    with pytest.raises(ValueError):
        grouped_digit_words("123", [2, 2])


def test_grouped_rejects_non_digits_and_large_groups():
    with pytest.raises(ValueError):
        grouped_digit_words("12a", [3])
    with pytest.raises(ValueError):
        grouped_digit_words("12345", [5])


def test_grouped_rejects_superscript_digits():
    with pytest.raises(ValueError, match="digit string"):
        grouped_digit_words("1²", [2])


def test_grouped_rejects_digits_of_other_scripts():
    # a Devanagari zero is no zero of numwords.ZEROS: "०५" read "پنج"
    with pytest.raises(ValueError, match="digit string"):
        grouped_digit_words("०५", [2])


def test_words_to_number_base_cases():
    assert words_to_number("صفر") == 0
    assert words_to_number("هزار و سیصد و نود و هفت") == 1397
    assert words_to_number("بیست و پنج") == 25


def test_words_to_number_rejects_garbage():
    with pytest.raises(ValueError):
        words_to_number("سلام دنیا")
    with pytest.raises(ValueError):
        words_to_number("")


def test_round_trip_exhaustive_small():
    for n in range(20_000):
        assert words_to_number(cardinal_words(n)) == n


def test_round_trip_randomized_large():
    rng = random.Random(1234)
    for _ in range(2_000):
        n = rng.randrange(MAX_VALUE)
        assert words_to_number(cardinal_words(n)) == n


def test_group_round_trip():
    rng = random.Random(99)
    for _ in range(500):
        sizes = [rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 6))]
        digits = "".join(str(rng.randrange(10)) for _ in range(sum(sizes)))
        words = grouped_digit_words(digits, sizes)
        # re-parse group-wise and re-pad: must reconstruct the digits
        tokens = words.split(" ")
        rebuilt = ""
        # walk the groups again to slice the words per group
        pos = 0
        for size in sizes:
            group = digits[pos:pos + size]
            group_words = grouped_digit_words(group, [size])
            rebuilt += group_words_to_digits(group_words, size)
            pos += size
        assert rebuilt == digits
        assert tokens  # sanity


def test_group_words_to_digits_rejects_a_group_of_another_size():
    # "پنج" parses to "5", one digit, not two
    with pytest.raises(ValueError, match="does not fit size 2"):
        group_words_to_digits("پنج", 2)


def test_output_alphabet():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(MAX_VALUE)
        assert set(cardinal_words(n)) <= PERSIAN_WORD_CHARS
        assert set(ordinal_words(n + 1)) <= PERSIAN_WORD_CHARS
