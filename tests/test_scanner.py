import random
import re
import string

import pytest

from persian_norm import (
    Calendar,
    CalendarDate,
    PhoneKind,
    SemioticClass,
    classify_phone,
    infer_calendar,
    normalize_general,
    scan,
    validate_card,
    validate_national_id,
    validate_sheba,
)
from persian_norm.resources import MappingTable
from persian_norm.scanner import D, _DETECTORS, _DIGITS, _table_needs
from test_acceptance import criterion_7_corpus
from test_segmenter import _MIXED_LINES


def classes(text):
    return [(s.cls, s.raw) for s in scan(text)]


def test_scan_time():
    spans = scan("ساعت 11:35 رسید")
    assert len(spans) == 1
    assert spans[0].cls is SemioticClass.TIME
    assert spans[0].raw == "11:35"


def test_scan_phone():
    spans = scan("تماس: 09397796915")
    assert len(spans) == 1
    assert spans[0].cls is SemioticClass.PHONE
    assert spans[0].raw == "09397796915"


def test_scan_plain_text_empty():
    assert scan("abc") == []


def test_scan_date_year_first():
    spans = scan("تاریخ 1397/7/9 بود")
    assert spans[0].cls is SemioticClass.DATE
    d = spans[0].data["date"]
    assert (d.year, d.month, d.day) == (1397, 7, 9)
    assert d.calendar is Calendar.SOLAR_HIJRI


def test_scan_date_day_first_gregorian():
    spans = scan("10/1/2018")
    d = spans[0].data["date"]
    assert (d.year, d.month, d.day) == (2018, 1, 10)
    assert d.calendar is Calendar.GREGORIAN


def test_scan_date_dash_separator():
    spans = scan("1400-07-25")
    assert spans[0].cls is SemioticClass.DATE
    assert spans[0].raw == "1400-07-25"


def test_scan_lunar_context():
    spans = scan("نهم رمضان سال 1443/9/9")
    dates = [s for s in spans if s.cls is SemioticClass.DATE]
    assert dates and dates[0].data["date"].calendar is Calendar.LUNAR_HIJRI


@pytest.mark.parametrize("text", ["تاریخ 0000/01/01 بود", "000/5/12"])
def test_year_zero_is_no_date(text):
    assert SemioticClass.DATE not in [s.cls for s in scan(text)]


def test_arabic_indic_digits():
    spans = scan("١٤٠٠/١/٢ ساعت ١٢:٣٠ با ٠٩٣٩٧٧٩٦٩١٥")
    assert [(s.cls, s.raw) for s in spans] == [
        (SemioticClass.DATE, "١٤٠٠/١/٢"),
        (SemioticClass.TIME, "١٢:٣٠"),
        (SemioticClass.PHONE, "٠٩٣٩٧٧٩٦٩١٥"),
    ]
    assert spans[0].data["date"] == CalendarDate(Calendar.SOLAR_HIJRI, 1400, 1, 2)
    assert (spans[1].data["hour"], spans[1].data["minute"]) == (12, 30)
    assert spans[2].data["kind"] is PhoneKind.MOBILE


def test_spans_sorted_non_overlapping():
    spans = scan("در 1400-07-25 ساعت 11:35 با 09397796915 تماس بگیرید")
    starts = [s.start for s in spans]
    assert starts == sorted(starts)
    for a, b in zip(spans, spans[1:]):
        assert a.end <= b.start


def test_raw_matches_offsets():
    text = "قیمت 25$ و عدد ۳۴"
    for span in scan(text):
        assert text[span.start:span.end] == span.raw


def test_url_beats_date_inside():
    spans = scan("http://example.com/2018-01-10/page")
    assert [s.cls for s in spans] == [SemioticClass.URL]


def test_url_beats_phone_inside():
    spans = scan("www.site.ir/09397796915")
    assert [s.cls for s in spans] == [SemioticClass.URL]


def test_email_not_split_into_url():
    spans = scan("a@b.com")
    assert [s.cls for s in spans] == [SemioticClass.EMAIL]
    assert spans[0].raw == "a@b.com"


def test_bare_domain_is_url():
    spans = scan("سایت b.com خوب است")
    assert spans[0].cls is SemioticClass.URL
    assert spans[0].raw == "b.com"


def test_determinism():
    text = "در 1400-07-25 ساعت 11:35 تماس: 09397796915 و 25$"
    assert scan(text) == scan(text)


def test_infer_calendar_thresholds():
    assert infer_calendar(2018) is Calendar.GREGORIAN
    assert infer_calendar(1700) is Calendar.GREGORIAN
    assert infer_calendar(1397) is Calendar.SOLAR_HIJRI
    assert infer_calendar(1443) is Calendar.SOLAR_HIJRI
    assert infer_calendar(1443, lunar_context=True) is Calendar.LUNAR_HIJRI
    assert infer_calendar(1443, default=Calendar.LUNAR_HIJRI) is Calendar.LUNAR_HIJRI


def test_infer_calendar_monotone():
    prev_greg = False
    for year in range(900, 2200):
        greg = infer_calendar(year) is Calendar.GREGORIAN
        assert greg >= prev_greg  # once Gregorian, always Gregorian
        prev_greg = greg


def test_classify_phone_mobile():
    assert classify_phone("09397796915", "تماس", "") is PhoneKind.MOBILE


def test_classify_phone_landline_area_code():
    assert classify_phone("02123456789") is PhoneKind.LANDLINE


def test_classify_phone_local_with_cue():
    assert classify_phone("22334455", "تلفن", "") is PhoneKind.LANDLINE
    assert classify_phone("22334455", "", "") is None


def test_classify_phone_too_short():
    assert classify_phone("1234", "", "") is None


def test_national_id_valid():
    assert validate_national_id("0523924984") is True


def test_national_id_all_same_rejected():
    assert validate_national_id("0000000000") is False


def test_national_id_perturbed():
    assert validate_national_id("0523924985") is False


def test_national_id_length_error():
    with pytest.raises(ValueError):
        validate_national_id("123")


def test_card_valid():
    assert validate_card("6104337852441441") is True


def test_card_perturbed():
    assert validate_card("6104337852441442") is False


def test_card_all_same_rejected():
    assert validate_card("0000000000000000") is False


def test_card_length_error():
    with pytest.raises(ValueError):
        validate_card("6104")


def _make_iban(body22: str) -> str:
    # independent big-integer mod-97 construction of the check digits
    assert len(body22) == 22
    numeric = int(body22 + "182700")  # I=18, R=27, "00" placeholder
    check = 98 - numeric % 97
    return f"IR{check:02d}{body22}"


def test_sheba_constructed_valid():
    iban = _make_iban("0170000000000123456789")
    assert validate_sheba(iban) is True


def test_sheba_too_short():
    assert validate_sheba("IR" + "1" * 23) is False


def test_sheba_wrong_prefix():
    assert validate_sheba("XY" + "1" * 24) is False


def test_sheba_bad_check_digits():
    iban = _make_iban("0170000000000123456789")
    broken = "IR" + f"{(int(iban[2:4]) + 1) % 100:02d}" + iban[4:]
    assert validate_sheba(broken) is False


def test_scan_sheba_span():
    iban = _make_iban("0170000000000123456789")
    spans = scan(f"شبا: {iban}")
    assert [s.cls for s in spans] == [SemioticClass.SHEBA]


def test_long_number():
    spans = scan("1234567890123456789")
    assert [s.cls for s in spans] == [SemioticClass.LONG_NUMBER]


def test_decimal_span():
    spans = scan("عدد 3.14 است")
    assert [s.cls for s in spans] == [SemioticClass.DECIMAL]
    assert spans[0].data == {"integer": "3", "fraction": "14"}


def test_currency_number_then_symbol():
    spans = scan("قیمت 25$ بود")
    assert spans[0].cls is SemioticClass.CURRENCY
    assert spans[0].data["amount"] == "25"


# the currency shapes: an amount before or after its symbol, a bare symbol,
# and the bare-symbol fallback when a higher class claims the amount
@pytest.mark.parametrize("text, expected", [
    ("قیمت $25 بود", [
        (SemioticClass.CURRENCY, "$25", {"symbol": "$", "amount": "25"})]),
    ("25 € شد", [
        (SemioticClass.CURRENCY, "25 €", {"symbol": "€", "amount": "25"})]),
    ("12.5$", [
        (SemioticClass.DECIMAL, "12.5", {"integer": "12", "fraction": "5"}),
        (SemioticClass.CURRENCY, "$", {"symbol": "$", "amount": None})]),
    ("فقط € است", [
        (SemioticClass.CURRENCY, "€", {"symbol": "€", "amount": None})]),
    ("$12$", [
        (SemioticClass.CURRENCY, "$12", {"symbol": "$", "amount": "12"}),
        (SemioticClass.CURRENCY, "$", {"symbol": "$", "amount": None})]),
    ("1/2 و ½", [
        (SemioticClass.MATH_SYMBOL, "1/2", {"numerator": 1, "denominator": 2}),
        (SemioticClass.MATH_SYMBOL, "½", {})]),
])
def test_currency_and_symbol_shapes(text, expected):
    assert [(s.cls, s.raw, s.data) for s in scan(text)] == expected


def test_persian_digit_detection():
    spans = scan("ساعت ۱۱:۳۵")
    assert spans[0].cls is SemioticClass.TIME
    assert spans[0].data["hour"] == 11


def test_abbrev_fa_span():
    spans = scan("ر.ک صفحه ۵")
    assert spans[0].cls is SemioticClass.ABBREV_FA
    assert spans[0].raw == "ر.ک"


def test_abbrev_en_span():
    spans = scan("مدرک Ph.D دارد")
    assert any(
        s.cls is SemioticClass.ABBREV_EN and s.raw == "Ph.D" for s in spans
    )


def test_acronym_before_full_stop():
    assert classes("خبر را گفت BBC.") == [(SemioticClass.ABBREV_EN, "BBC")]
    assert classes("سازمان NASA. بعد") == [(SemioticClass.ABBREV_EN, "NASA")]
    assert classes("سایت NASA.gov است") == [(SemioticClass.URL, "NASA.gov")]


def test_calendar_date_validation():
    with pytest.raises(ValueError):
        CalendarDate(Calendar.SOLAR_HIJRI, 1400, 7, 31)
    with pytest.raises(ValueError):
        CalendarDate(Calendar.GREGORIAN, 2018, 2, 29)
    CalendarDate(Calendar.GREGORIAN, 2020, 2, 29)
    CalendarDate(Calendar.SOLAR_HIJRI, 1400, 1, 31)


def test_esfand_30_only_in_solar_hijri_leap_years():
    with pytest.raises(ValueError):
        CalendarDate(Calendar.SOLAR_HIJRI, 1400, 12, 30)
    CalendarDate(Calendar.SOLAR_HIJRI, 1400, 12, 29)
    for year in (1370, 1375, 1379, 1383, 1387, 1391, 1395, 1399, 1403, 1408):
        CalendarDate(Calendar.SOLAR_HIJRI, year, 12, 30)


@pytest.mark.parametrize("year", [1399, 1403])
def test_scan_esfand_30_of_leap_year(year):
    spans = scan(f"تاریخ {year}/12/30 بود")
    assert [s.cls for s in spans] == [SemioticClass.DATE]
    assert spans[0].data["date"] == CalendarDate(Calendar.SOLAR_HIJRI, year, 12, 30)


def test_scan_esfand_30_of_common_year_is_no_date():
    assert SemioticClass.DATE not in [s.cls for s in scan("تاریخ 1400/12/30 بود")]


def test_rescan_span_in_isolation():
    text = "در 1400-07-25 ساعت 11:35 با 09397796915 تماس بگیرید"
    for span in scan(text):
        again = scan(span.raw)
        assert any(s.cls is span.cls for s in again)


_TRIGGER_CHARS = sorted(
    frozenset().union(*(chars for _, _, needs in _DETECTORS for chars in needs))
)
# single characters, plus the few multi-character pieces some rows need
_FUZZ_PIECES = (
    list("ابپتچخدرزسشصطعفقکگلمنوهیآ")
    + list("0123456789۰۱۲۳۴۵۶۷۸۹٠١٢٣٤٥٦٧٨٩" * 2)
    + list(string.ascii_letters) + list(string.ascii_uppercase)
    + [" "] * 10 + _TRIGGER_CHARS
    + ["http://", "ftp://", "www.", ".com", ".ir", "(ره)", "ه.ش", "IR", "-07-"]
)


def _fuzz_lines(n, seed=0):
    rng = random.Random(seed)
    return ["".join(rng.choice(_FUZZ_PIECES) for _ in range(rng.randrange(1, 30)))
            for _ in range(n)]


def test_every_match_holds_its_row_characters():
    # scan skips a row when the text lacks one of its sets; that is exact
    # only if every match of the row holds a character of each set
    texts = _MIXED_LINES + criterion_7_corpus()[0]
    texts += [normalize_general(t) for t in texts]
    texts += _fuzz_lines(5000)
    for text in texts:
        for pattern, _, needs in _DETECTORS:
            for m in pattern.finditer(text):
                for chars in needs:
                    assert not chars.isdisjoint(m.group(0)), \
                        (pattern.pattern[:40], m.group(0), chars)


def test_digit_set_is_the_digit_class():
    bmp = (chr(c) for c in range(0x10000))
    assert [c for c in bmp if re.fullmatch(D, c)] == sorted(_DIGITS)


def test_table_surface_without_row_characters_raises():
    tbl = MappingTable(entries=(("ر.ک", "رجوع کنید"), ("رک", "رک")))
    with pytest.raises(ValueError, match="رک"):
        _table_needs(tbl, ".(")
    assert _table_needs(tbl) == {"ر"}
