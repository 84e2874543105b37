import random

import pytest

from persian_norm import (
    Calendar,
    CalendarDate,
    PhoneKind,
    SemioticClass,
    SelectionPolicy,
    expand_abbreviation,
    verbalize_symbol,
    verbalize_url_email,
)
from persian_norm.numwords import grouped_digit_words
from persian_norm.verbalize import (
    compositions,
    date_variants,
    grouped_id_readings,
    phone_readings,
    time_variants,
    verbalize_fraction,
)


def test_compositions_of_seven():
    assert compositions(7) == ((3, 2, 2), (2, 3, 2), (2, 2, 3))


def test_compositions_cover_sum():
    for n in range(2, 30):
        for sizes in compositions(n):
            assert sum(sizes) == n
            assert set(sizes) <= {2, 3}


def test_date_default_reading():
    d = CalendarDate(Calendar.SOLAR_HIJRI, 1397, 7, 9)
    assert SelectionPolicy.fixed().choose(date_variants(d)) == "نهم مهر سال هزار و سیصد و نود و هفت"


def test_date_has_ten_templates():
    d = CalendarDate(Calendar.SOLAR_HIJRI, 1400, 7, 25)
    assert len(date_variants(d)) == 10


def test_date_table_rows_present():
    d = CalendarDate(Calendar.SOLAR_HIJRI, 1400, 7, 25)
    variants = date_variants(d)
    for expected in [
        "بیست و پنج مهر ماه هزار و چهارصد",
        "بیست و پنجم مهر هزار و چهارصد",
        "بیست و پنج مهر سال هزار و چهارصد",
        "بیست و پنج هفت هزار و چهارصد",
    ]:
        assert expected in variants


def test_date_first_day_reads_aval():
    d = CalendarDate(Calendar.SOLAR_HIJRI, 1400, 1, 1)
    assert SelectionPolicy.fixed().choose(date_variants(d)).startswith("اول فروردین")


def test_date_gregorian_month_names():
    d = CalendarDate(Calendar.GREGORIAN, 2018, 1, 10)
    assert "ژانویه" in SelectionPolicy.fixed().choose(date_variants(d))


def test_date_lunar_month_names():
    d = CalendarDate(Calendar.LUNAR_HIJRI, 1443, 1, 9)
    assert "محرم" in SelectionPolicy.fixed().choose(date_variants(d))


def test_time_table_rows():
    variants = time_variants(11, 35)
    assert "یازده و سی و پنج" in variants
    assert "یازده و سی و پنج دقیقه" in variants


def test_time_zero_minute_elided():
    assert SelectionPolicy.fixed().choose(time_variants(8, 0)) == "هشت"
    assert "هشت صفر" not in " ".join(time_variants(8, 0))
    assert time_variants(8, 0) == ["هشت", "ساعت هشت"]


def test_time_with_seconds():
    assert SelectionPolicy.fixed().choose(time_variants(10, 30, 25)) == "ده و سی دقیقه و بیست و پنج ثانیه"


def test_time_rejects_out_of_range():
    with pytest.raises(ValueError):
        time_variants(24, 0)
    with pytest.raises(ValueError):
        time_variants(8, 60)


def test_phone_mobile_partitions():
    variants = phone_readings("09397796915", PhoneKind.MOBILE).readings()
    assert variants == [
        "صفر نهصد و سی و نه هفتصد و هفتاد و نه شصت و نه پانزده",
        "صفر نهصد و سی و نه هفتاد و هفت نهصد و شصت و نه پانزده",
        "صفر نهصد و سی و نه هفتاد و هفت نود و شش نهصد و پانزده",
    ]


def test_phone_prefix_always_identical():
    prefix = "صفر نهصد و سی و نه"
    for v in phone_readings("09397796915", PhoneKind.MOBILE).readings():
        assert v.startswith(prefix)


def test_phone_seeded_determinism():
    policy = SelectionPolicy.seeded(42)
    a = policy.choose(phone_readings("09397796915", PhoneKind.MOBILE))
    b = policy.choose(phone_readings("09397796915", PhoneKind.MOBILE))
    assert a == b


def test_national_id_row_one():
    variants = grouped_id_readings("0523924984", SemioticClass.NATIONAL_ID).readings()
    assert "صفر پنج بیست و سه نود و دو چهل و نه هشتاد و چهار" in variants


def test_national_id_row_two():
    variants = grouped_id_readings("0523924984", SemioticClass.NATIONAL_ID).readings()
    assert "صفر پنجاه و دو سی و نه دویست و چهل و نه هشتاد و چهار" in variants


def test_card_default_pairs():
    family = grouped_id_readings("6104337852441441", SemioticClass.CARD_NUMBER)
    assert SelectionPolicy.fixed().choose(family) == (
        "شصت و یک صفر چهار سی و سه هفتاد و هشت "
        "پنجاه و دو چهل و چهار چهارده چهل و یک"
    )


def test_single_group():
    assert SelectionPolicy.fixed().choose(
        grouped_id_readings("22", SemioticClass.LONG_NUMBER)) == "بیست و دو"


def test_sheba_prefix_spelled():
    out = SelectionPolicy.fixed().choose(
        grouped_id_readings("IR062960000000100324200001", SemioticClass.SHEBA))
    assert out.startswith("آی آر ")


def test_digit_conservation_phone():
    # rebuild each variant from the digit groups it claims to read
    rng = random.Random(5)
    for _ in range(100):
        digits = "09" + "".join(str(rng.randrange(10)) for _ in range(9))
        variants = phone_readings(digits, PhoneKind.MOBILE).readings()
        for sizes, words in zip(compositions(7), variants):
            expected = ["صفر", grouped_digit_words(digits[1:4], [3])]
            pos = 4
            for size in sizes:
                expected.append(grouped_digit_words(digits[pos:pos + size], [size]))
                pos += size
            assert words == " ".join(expected)


def test_symbol_percent():
    assert verbalize_symbol("%") == "درصد"


def test_symbol_currency_dollar():
    assert verbalize_symbol("$", SemioticClass.CURRENCY) == "دلار"


def test_symbol_math_half():
    assert verbalize_symbol("½", SemioticClass.MATH_SYMBOL) == "یک دوم"


def test_symbol_unknown_rejected():
    with pytest.raises(KeyError):
        verbalize_symbol("☃")


def test_fraction_reading():
    assert verbalize_fraction(1, 2) == "یک دوم"
    assert verbalize_fraction(3, 4) == "سه چهارم"


def test_abbrev_persian():
    assert expand_abbreviation("ر.ک") == "رجوع کنید"


def test_abbrev_latin_spelled():
    assert expand_abbreviation("Ph.D") == "پی‌اچ‌دی"


def test_abbrev_unknown_persian_unchanged():
    assert expand_abbreviation("چ.چ") == "چ.چ"


def test_url_long_path_dropped():
    raw = "http://wpc.be1e.edgecastcdn.net/news/20ak9qy4prra.html"
    assert verbalize_url_email(raw) == (
        "http do noghte slash slash wpc dot be1e dot edgecastcdn dot net"
    )


def test_email_at_replaced():
    assert verbalize_url_email("a@b.com") == "a at b dot com"


def test_single_separator():
    assert verbalize_url_email("b.com") == "b dot com"


def test_url_short_path_kept():
    assert verbalize_url_email("http://a.ir/x") == "http do noghte slash slash a dot ir slash x"


def test_url_persian_style():
    assert verbalize_url_email("b.com", style="persian") == "b نقطه com"


def test_policy_fixed_index():
    d = CalendarDate(Calendar.SOLAR_HIJRI, 1400, 7, 25)
    v = date_variants(d)
    for i in range(len(v)):
        assert SelectionPolicy.fixed(i).choose(date_variants(d)) == v[i]


def test_policy_seeded_equal_seeds_equal_outputs():
    d = CalendarDate(Calendar.SOLAR_HIJRI, 1400, 7, 25)
    assert SelectionPolicy.seeded(7).choose(date_variants(d)) == \
        SelectionPolicy.seeded(7).choose(date_variants(d))


def test_outputs_contain_no_digits():
    d = CalendarDate(Calendar.SOLAR_HIJRI, 1400, 7, 25)
    outputs = date_variants(d) + time_variants(11, 35) + \
        phone_readings("09397796915", PhoneKind.MOBILE).readings()
    for out in outputs:
        assert not any(ch.isdigit() for ch in out)
