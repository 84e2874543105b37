import random

import pytest

from persian_norm import (
    PhoneKind,
    SemioticClass,
    SemioticSpan,
    SelectionPolicy,
    enumerate_verbalizations,
    expand_abbreviation,
    scan,
    verbalize_url_email,
)
from persian_norm.numwords import cardinal_words, grouped_digit_words, ordinal_words
from persian_norm.resources import rows
from persian_norm.scanner import MONTH_NAMES, Calendar, CalendarDate
from persian_norm.verbalize import (
    READINGS,
    compositions,
    date_variants,
    phone_readings,
    time_variants,
)


def _id_readings(digits, cls):
    """The readings ``READINGS`` gives a span of ``cls`` written ``digits``."""
    return READINGS[cls](SemioticSpan(0, len(digits), cls, digits, {}))


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


def _eager_date_variants(d):
    """Every template of ``templates/date.txt`` formatted at once, as
    ``date_variants`` built its list before it formatted on indexing."""
    months = MONTH_NAMES[d.calendar]
    fields = {
        "day_ordinal": ordinal_words(d.day, first_form="اول"),
        "day_cardinal": cardinal_words(d.day),
        "month_name": months[d.month - 1],
        "month_number": cardinal_words(d.month),
        "year_cardinal": cardinal_words(d.year),
    }
    return [tpl.format(**fields) for tpl in rows("templates/date.txt")]


def test_date_family_formats_like_the_eager_list():
    rng = random.Random(43)
    for calendar in Calendar:
        for _ in range(60):
            try:
                d = CalendarDate(calendar, rng.randrange(1, 2500),
                                 rng.randrange(1, 13), rng.randrange(1, 32))
            except ValueError:
                continue
            family = date_variants(d)
            assert len(family) == 10
            # checked before ``list``, which stops only at an IndexError
            with pytest.raises(IndexError):
                family[10]
            with pytest.raises(IndexError):
                family[-11]
            eager = _eager_date_variants(d)
            assert list(family) == eager
            assert [family[i] for i in range(-10, 0)] == eager


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
    with pytest.raises(ValueError):
        time_variants(1, 2, 60)


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


def test_landline_with_area_code_family():
    assert enumerate_verbalizations("02112345678") == [
        "صفر بیست و یک صد و بیست و سه چهارصد و پنجاه و شش هفتاد و هشت",
        "صفر بیست و یک صد و بیست و سه چهل و پنج ششصد و هفتاد و هشت",
        "صفر بیست و یک دوازده سیصد و چهل و پنج ششصد و هفتاد و هشت",
        "صفر بیست و یک دوازده سی و چهار پنجاه و شش هفتاد و هشت",
    ]


def test_landline_after_cue_word_family():
    assert enumerate_verbalizations("تلفن 22334455") == [
        "تلفن دویست و بیست و سه سیصد و چهل و چهار پنجاه و پنج",
        "تلفن دویست و بیست و سه سی و چهار چهارصد و پنجاه و پنج",
        "تلفن بیست و دو سیصد و سی و چهار چهارصد و پنجاه و پنج",
        "تلفن بیست و دو سی و سه چهل و چهار پنجاه و پنج",
    ]


def test_mobile_with_a_zero_in_its_prefix_family():
    assert enumerate_verbalizations("09011234567") == [
        "صفر نهصد و یک صد و بیست و سه چهل و پنج شصت و هفت",
        "صفر نهصد و یک دوازده سیصد و چهل و پنج شصت و هفت",
        "صفر نهصد و یک دوازده سی و چهار پانصد و شصت و هفت",
    ]


def test_national_id_row_one():
    variants = _id_readings("0523924984", SemioticClass.NATIONAL_ID).readings()
    assert "صفر پنج بیست و سه نود و دو چهل و نه هشتاد و چهار" in variants


def test_national_id_row_two():
    variants = _id_readings("0523924984", SemioticClass.NATIONAL_ID).readings()
    assert "صفر پنجاه و دو سی و نه دویست و چهل و نه هشتاد و چهار" in variants


def test_card_default_pairs():
    family = _id_readings("6104337852441441", SemioticClass.CARD_NUMBER)
    assert SelectionPolicy.fixed().choose(family) == (
        "شصت و یک صفر چهار سی و سه هفتاد و هشت "
        "پنجاه و دو چهل و چهار چهارده چهل و یک"
    )


def test_single_group():
    assert SelectionPolicy.fixed().choose(
        _id_readings("22", SemioticClass.LONG_NUMBER)) == "بیست و دو"


def test_sheba_prefix_spelled():
    out = SelectionPolicy.fixed().choose(
        _id_readings("IR062960000000100324200001", SemioticClass.SHEBA))
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


def _readings(text, cls):
    """The readings of the one span ``scan`` finds in ``text``, of ``cls``."""
    (span,) = scan(text)
    assert span.cls is cls
    return list(READINGS[span.cls](span))


def test_symbol_percent():
    assert _readings("%", SemioticClass.SYMBOL) == ["درصد"]


def test_symbol_currency_dollar():
    assert _readings("$", SemioticClass.CURRENCY) == ["دلار"]


def test_symbol_math_half():
    assert _readings("½", SemioticClass.MATH_SYMBOL) == ["یک دوم"]


def test_fraction_reading():
    assert _readings("1/2", SemioticClass.MATH_SYMBOL) == ["یک دوم"]
    assert _readings("3/4", SemioticClass.MATH_SYMBOL) == ["سه چهارم"]


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


def test_policy_fixed_index():
    d = CalendarDate(Calendar.SOLAR_HIJRI, 1400, 7, 25)
    v = date_variants(d)
    for i in range(len(v)):
        assert SelectionPolicy.fixed(i).choose(date_variants(d)) == v[i]


def test_policy_rejects_no_options():
    with pytest.raises(ValueError):
        SelectionPolicy.fixed().choose([])


def test_seeded_policy_rejects_no_options():
    with pytest.raises(ValueError, match="no options to choose from"):
        SelectionPolicy.seeded(1).choose([])


def test_policy_seeded_equal_seeds_equal_outputs():
    d = CalendarDate(Calendar.SOLAR_HIJRI, 1400, 7, 25)
    assert SelectionPolicy.seeded(7).choose(date_variants(d)) == \
        SelectionPolicy.seeded(7).choose(date_variants(d))


def test_outputs_contain_no_digits():
    d = CalendarDate(Calendar.SOLAR_HIJRI, 1400, 7, 25)
    outputs = [*date_variants(d), *time_variants(11, 35),
               *phone_readings("09397796915", PhoneKind.MOBILE).readings()]
    for out in outputs:
        assert not any(ch.isdigit() for ch in out)
