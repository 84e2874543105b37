import random
import re
import string
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from re import _parser as sre_parse  # Python 3.11 and later
except ImportError:  # Python 3.10; importing ``sre_parse`` warns from 3.11 on
    import sre_parse

import persian_norm
from persian_norm import (
    PhoneKind,
    SemioticClass,
    classify_phone,
    normalize_general,
    scan,
    scanner,
    validate_card,
    validate_national_id,
    validate_sheba,
)
from persian_norm.numwords import DIGITS
from persian_norm.resources import alternation, rows
from persian_norm.scanner import (
    Calendar,
    CalendarDate,
    CURRENCIES,
    MATH_SYMBOLS,
    D,
    _ABBREV_EN_PAT,
    _ABBREV_FA_PAT,
    _CLASSES,
    _CURRENCY_PAT,
    _DATE_PAT,
    _DECIMAL_PAT,
    _DETECTORS,
    _DIGIT_RUN_PAT,
    _EMAIL_PAT,
    _FRACTION_PAT,
    _LAST_DOTTED,
    _LONG_NUMBER_PAT,
    _NEED_SETS,
    _NUMBER_PAT,
    _SPLIT_ROWS,
    _TIME_PAT,
    _TLD,
    _URL_PAT,
    _accepted,
    _currency,
    _dotless,
    _one_character,
    _table_needs,
    infer_calendar,
)
from persian_norm.segmenter import protect_non_terminal_dots
from test_acceptance import criterion_7_corpus
from test_segmenter import _DOTTED_CLASSES, _MIXED_LINES, _merged


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


def test_spans_are_frozen():
    span = scan("عدد 12")[0]
    with pytest.raises(AttributeError):
        span.start = 0


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


def test_classify_phone_non_digit():
    assert classify_phone("0912345678x") is None


def test_classify_phone_superscript_digit():
    # "²".isdigit() holds, but it is no decimal digit
    assert classify_phone("0912345678²") is None


# decimal digits that int() reads, of a script none of the checks knows
_DEVANAGARI = str.maketrans("0123456789", "०१२३४५६७८९")


def test_classify_phone_digits_of_other_scripts():
    assert classify_phone("09121234567".translate(_DEVANAGARI)) is None


def test_national_id_valid():
    assert validate_national_id("0523924984") is True


def test_national_id_all_same_rejected():
    assert validate_national_id("0000000000") is False


def test_national_id_perturbed():
    assert validate_national_id("0523924985") is False


def test_national_id_length_error():
    with pytest.raises(ValueError):
        validate_national_id("123")


def test_national_id_superscript_digit_is_a_length_error():
    with pytest.raises(ValueError, match="exactly 10 digits"):
        validate_national_id("052392498²")


def test_national_id_digits_of_other_scripts_are_a_length_error():
    with pytest.raises(ValueError, match="exactly 10 digits"):
        validate_national_id("0523924984".translate(_DEVANAGARI))


def test_card_valid():
    assert validate_card("6104337852441441") is True


def test_card_perturbed():
    assert validate_card("6104337852441442") is False


def test_card_all_same_rejected():
    assert validate_card("0000000000000000") is False


def test_card_length_error():
    with pytest.raises(ValueError):
        validate_card("6104")


def test_card_superscript_digit_is_a_length_error():
    with pytest.raises(ValueError, match="exactly 16 digits"):
        validate_card("610433785244144²")


def test_card_digits_of_other_scripts_are_a_length_error():
    with pytest.raises(ValueError, match="exactly 16 digits"):
        validate_card("6104337852441441".translate(_DEVANAGARI))


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


def test_sheba_non_digit_body():
    assert validate_sheba("IR" + "1" * 23 + "x") is False


def test_sheba_superscript_body_is_malformed():
    assert validate_sheba("IR" + "²" * 24) is False


def test_sheba_digits_of_other_scripts_are_malformed():
    iban = _make_iban("0170000000000123456789")
    assert validate_sheba(iban) is True
    assert validate_sheba(iban.translate(_DEVANAGARI)) is False


def test_sheba_bad_check_digits():
    iban = _make_iban("0170000000000123456789")
    broken = "IR" + f"{(int(iban[2:4]) + 1) % 100:02d}" + iban[4:]
    assert validate_sheba(broken) is False


# Each check reads digits as written: ASCII, Persian, Arabic-Indic or any
# mix gives the same result.
_SCRIPTS = (
    str.maketrans("", ""),
    str.maketrans("0123456789", "۰۱۲۳۴۵۶۷۸۹"),
    str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"),
)


def _in_every_script(text: str) -> list[str]:
    """``text`` with its ASCII digits in each script, in turn by digit, and
    in a seeded random mix."""
    copies = [text.translate(script) for script in _SCRIPTS]
    rng = random.Random(text)
    return copies + [
        "".join(chars[i % 3] for i, chars in enumerate(zip(*copies))),
        "".join(rng.choice(chars) for chars in zip(*copies)),
    ]


@pytest.mark.parametrize("digits, expected", [
    ("0523924984", True), ("0523924985", False),
    ("0000000000", False), ("1111111111", False),
])
def test_national_id_reads_every_script(digits, expected):
    for written in _in_every_script(digits):
        assert validate_national_id(written) is expected, written


def test_national_id_all_same_in_mixed_scripts_rejected():
    # the mod-11 check alone passes "1111111111"
    assert validate_national_id("۱1۱1۱1۱1۱1") is False


@pytest.mark.parametrize("digits, expected", [
    ("6104337852441441", True), ("6104337852441442", False),
    ("0000000000000000", False),
])
def test_card_reads_every_script(digits, expected):
    for written in _in_every_script(digits):
        assert validate_card(written) is expected, written


def test_card_valid_in_mixed_scripts():
    assert validate_card("6104۳۳۷۸٥٢٤٤1441") is True


@pytest.mark.parametrize("sheba, expected", [
    ("IR820540102680020817909002", True),
    ("IR820540102680020817909003", False),
])
def test_sheba_reads_every_script(sheba, expected):
    for written in _in_every_script(sheba):
        assert validate_sheba(written) is expected, written


@pytest.mark.parametrize("digits, left, expected", [
    ("09397796915", "", PhoneKind.MOBILE),
    ("02123456789", "", PhoneKind.LANDLINE),
    ("08712345678", "", PhoneKind.LANDLINE),
    ("22334455", "تلفن", PhoneKind.LANDLINE),
    ("22334455", "", None),
    ("00912345678", "", None),  # "009" is no mobile prefix and no code
    ("90123456789", "", None),
    ("02223456789", "", None),  # "022" is no area code
    ("12123456789", "", None),
])
def test_classify_phone_reads_every_script(digits, left, expected):
    for written in _in_every_script(digits):
        assert classify_phone(written, left, "") is expected, written


def test_classify_phone_mixed_scripts():
    assert classify_phone("0۲1" + "23456789") is PhoneKind.LANDLINE
    assert classify_phone("۰9" + "121234567") is PhoneKind.MOBILE


def test_checks_refuse_what_int_would_read():
    # int(" 9") == 9 and int("1_0") == 10: no check takes a space or a "_"
    assert classify_phone(" 9121234567") is None
    with pytest.raises(ValueError, match="exactly 10 digits"):
        validate_national_id(" 523924984")
    with pytest.raises(ValueError, match="exactly 16 digits"):
        validate_card("6104337852441_41")
    # the check digits are right for the body int() reads without the "_"
    assert validate_sheba(_make_iban("0170000000_00123456789")) is False


def test_area_codes_are_three_ascii_digits_from_zero():
    # classify_phone looks a run's first three digits up by value, which
    # holds only for codes of this shape
    codes = [ln.partition("\t")[0] for ln in rows("area_codes.tsv")]
    assert codes
    for code in codes:
        assert re.fullmatch("0[0-9]{2}", code), code


def test_scan_sheba_span():
    iban = _make_iban("0170000000000123456789")
    spans = scan(f"شبا: {iban}")
    assert [s.cls for s in spans] == [SemioticClass.SHEBA]


def test_scan_sheba_bad_checksum_is_a_long_number():
    spans = scan("شبا IR820540102680020817909003 است")
    assert [(s.cls, s.raw) for s in spans] == [
        (SemioticClass.LONG_NUMBER, "820540102680020817909003")]
    spans = scan("شبا IR820540102680020817909002 است")
    assert [(s.cls, s.raw) for s in spans] == [
        (SemioticClass.SHEBA, "IR820540102680020817909002")]


def test_long_number():
    spans = scan("1234567890123456789")
    assert [s.cls for s in spans] == [SemioticClass.LONG_NUMBER]


def test_decimal_span():
    spans = scan("عدد 3.14 است")
    assert [s.cls for s in spans] == [SemioticClass.DECIMAL]
    assert spans[0].data == {"integer": "3", "fraction": "14"}


def test_decimal_span_keeps_its_digits_as_written():
    # as a currency amount does
    spans = scan("عدد ۳.۱۴ است")
    assert [s.cls for s in spans] == [SemioticClass.DECIMAL]
    assert spans[0].data == {"integer": "۳", "fraction": "۱۴"}
    assert scan("۲۵$")[0].data == {"symbol": "$", "amount": "۲۵"}


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
    ("$1.5", [
        (SemioticClass.CURRENCY, "$", {"symbol": "$", "amount": None}),
        (SemioticClass.DECIMAL, "1.5", {"integer": "1", "fraction": "5"})]),
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
    with pytest.raises(ValueError):
        CalendarDate(Calendar.SOLAR_HIJRI, 0, 1, 1)
    CalendarDate(Calendar.GREGORIAN, 2020, 2, 29)
    CalendarDate(Calendar.SOLAR_HIJRI, 1400, 1, 31)


def _gregorian_month_length(year, month):
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    if month == 2:
        return 29 if leap else 28
    return 30 if month in (4, 6, 9, 11) else 31


def _accepts(calendar, year, month, day):
    try:
        CalendarDate(calendar, year, month, day)
    except ValueError:
        return False
    return True


def test_gregorian_month_lengths_follow_the_4_100_400_rule():
    for year in range(1, 2401):
        for month in range(1, 13):
            length = _gregorian_month_length(year, month)
            for day in (0, 1, 28, 29, 30, 31, 32):
                assert _accepts(Calendar.GREGORIAN, year, month, day) == \
                    (1 <= day <= length), (year, month, day)


def test_import_loads_no_datetime_or_locale():
    src = str(Path(persian_norm.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
            "import persian_norm; print(sorted({'calendar', 'datetime', 'locale'} "
            "& (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_gregorian_feb_29_in_century_and_leap_years():
    assert not _accepts(Calendar.GREGORIAN, 1900, 2, 29)
    assert _accepts(Calendar.GREGORIAN, 2000, 2, 29)
    assert _accepts(Calendar.GREGORIAN, 2024, 2, 29)
    assert not _accepts(Calendar.GREGORIAN, 2023, 2, 29)


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


def _random_candidates(rng, text_len):
    """Candidates over a text of ``text_len`` characters, many of them
    nested in, identical to, touching or covering an earlier one."""
    candidates = []
    for i in range(rng.randrange(16)):
        cls = rng.choice(list(SemioticClass))
        if candidates and rng.random() < 0.6:
            _, start, end, _ = rng.choice(candidates)
            shape = rng.choice(("identical", "nested", "touching", "covering"))
            if shape == "nested":
                start = rng.randrange(start, end)
                end = rng.randrange(start + 1, end + 1)
            elif shape == "touching":
                if end < text_len and (start == 0 or rng.random() < 0.5):
                    start, end = end, rng.randrange(end + 1, text_len + 1)
                elif start > 0:
                    start, end = rng.randrange(start), start
            elif shape == "covering":
                start = rng.randrange(start + 1)
                end = rng.randrange(end, text_len + 1)
        else:
            start = rng.randrange(text_len)
            end = rng.randrange(start + 1, text_len + 1)
        candidates.append((cls, start, end, {"candidate": i}))
    return candidates


def _pairwise_greedy(candidates, text):
    accepted = []
    for cls, start, end, data in candidates:
        if all(end <= s or e <= start for _, s, e, _ in accepted):
            accepted.append((cls, start, end, data))
    return [(start, end, cls, text[start:end], data)
            for cls, start, end, data in sorted(accepted, key=lambda c: c[1])]


class _OneMatchPattern:
    """A row's pattern whose one match, itself, has a given span."""

    def __init__(self, start, end):
        self._span = start, end

    def finditer(self, text):
        return iter((self,))

    def span(self):
        return self._span


def one_match_rows(candidates):
    """One row per candidate, in order: a match of the candidate's span whose
    check gives the candidate, run whatever the text holds (mask 0)."""
    return [(_OneMatchPattern(c[1], c[2]), lambda m, text, c=c: c, 0)
            for c in candidates]


def test_resolve_matches_pairwise_greedy():
    rng = random.Random(11)
    for _ in range(2000):
        text = "".join(rng.choice("12:/. ابپ") for _ in range(rng.randrange(1, 40)))
        candidates = _random_candidates(rng, len(text))
        accepted = _accepted(text, set(), one_match_rows(candidates))
        spans = sorted(accepted, key=lambda c: c[1])
        assert [(start, end, cls, text[start:end], data)
                for cls, start, end, data in spans] == \
            _pairwise_greedy(candidates, text), candidates


def test_a_trimmed_candidate_covers_only_its_own_span():
    # the first row's check may end its candidate before its match ends, as
    # ``_url`` trims trailing marks; the trimmed characters stay free
    url = (SemioticClass.URL, 0, 5, {})
    rows = [(_OneMatchPattern(0, 7), lambda m, text: url, 0),
            *one_match_rows([(SemioticClass.SYMBOL, 5, 6, {})])]
    assert _accepted("a.com.!", set(), rows) == [url, (SemioticClass.SYMBOL, 5, 6, {})]


def _scanned_texts(fuzz=5000):
    """The mixed lines and the criterion-7 corpus, as written and after the
    general pass, and ``fuzz`` fuzz lines."""
    texts = _MIXED_LINES + criterion_7_corpus()[0]
    return texts + [normalize_general(t) for t in texts] + _fuzz_lines(fuzz)


def test_only_the_first_row_changes_a_match_span():
    # ``_accepted`` probes a match's span before it runs the row's check.
    # That is exact because every candidate keeps its match's span, save
    # that ``_url`` trims the end, and URL's is the first row
    assert _DETECTORS[0][0] is _URL_PAT
    trimmed = 0
    for text in _scanned_texts():
        for i, (pattern, candidate, _) in enumerate(_DETECTORS):
            for m in pattern.finditer(text):
                c = candidate(m, text)
                if c is None:
                    continue
                if i:
                    assert (c[1], c[2]) == m.span(), (pattern.pattern[:40], text)
                else:
                    assert c[1] == m.start() and c[2] <= m.end(), text
                    trimmed += c[2] < m.end()
    assert trimmed  # the texts hold URLs that ``_url`` trims


def test_a_losing_match_runs_no_check(monkeypatch):
    # a match that overlaps a span taken before it costs one probe of the
    # coverage mask: its row's check does not run
    calls = []

    def recording(candidate):
        def check(m, text):
            c = candidate(m, text)
            calls.append((m.span(), c))
            return c
        return check

    monkeypatch.setattr(scanner, "_DETECTORS", [
        (pattern, recording(candidate), needs)
        for pattern, candidate, needs in _DETECTORS])
    for text in _scanned_texts():
        calls.clear()
        spans = scan(text)
        covered = bytearray(len(text))
        for (start, end), c in calls:
            assert covered.find(1, start, end) == -1, (text, start, end)
            if c is not None:
                covered[c[1]:c[2]] = b"\1" * (c[2] - c[1])
        assert sorted((c[1], c[2]) for _, c in calls if c is not None) == \
            [(s.start, s.end) for s in spans]
    # the two digit runs of a time match the PLAIN_NUMBER row and lose
    calls.clear()
    assert classes("ساعت 11:35") == [(SemioticClass.TIME, "11:35")]
    assert [c[0] for _, c in calls] == [SemioticClass.TIME]


def test_scan_spans_are_disjoint_and_sorted():
    for text in _MIXED_LINES:
        spans = scan(text)
        assert spans
        assert all(a.end <= b.start for a, b in zip(spans, spans[1:])), text


def _needs_of(mask):
    """The sets of characters a row's ``needs`` mask stands for."""
    return [chars for i, chars in enumerate(_NEED_SETS) if mask >> i & 1]


_TRIGGER_CHARS = sorted(frozenset().union(*_NEED_SETS))
# single characters, plus the few multi-character pieces some rows need
_FUZZ_PIECES = (
    list("ابپتچخدرزسشصطعفقکگلمنوهیآ")
    + list("0123456789۰۱۲۳۴۵۶۷۸۹٠١٢٣٤٥٦٧٨٩" * 2)
    + list(string.ascii_letters) + list(string.ascii_uppercase)
    + [" "] * 10 + _TRIGGER_CHARS
    + ["http://", "ftp://", "www.", ".com", ".ir", "(ره)", "ه.ش", "IR", "-07-"]
)


# digits of the three scripts and the separators of the digit rows, so that
# digit runs of every length meet separators and other runs
_DIGIT_FUZZ_PIECES = list(DIGITS) + list("/.-:" * 3) + [" "] * 3 + ["ب"] * 2


def _fuzz_lines(n, seed=0, pieces=_FUZZ_PIECES):
    rng = random.Random(seed)
    return ["".join(rng.choice(pieces) for _ in range(rng.randrange(1, 30)))
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
                for chars in _needs_of(needs):
                    assert not chars.isdisjoint(m.group(0)), \
                        (pattern.pattern[:40], m.group(0), chars)


def _reference_needs():
    """Each row's ``needs`` as the tuple of sets ``_CLASSES`` gives it, for
    every row and for the split rows, as ``_rows`` kept them before masks."""
    every, split = [], []
    for name, rows in _CLASSES.items():
        every += [needs for _, _, needs in rows]
        if name == _LAST_DOTTED:
            split = every.copy()
    return every, split


def _reference_rows_run(present, row_needs):
    """The rows the per-row ``needs`` loop ran: those whose every set
    ``present`` meets."""
    run = []
    for i, needs in enumerate(row_needs):
        for chars in needs:
            if present.isdisjoint(chars):
                break
        else:
            run.append(i)
    return run


class _RecordingPattern:
    """A row's pattern that matches nothing and records that it ran."""

    def __init__(self, index, ran):
        self.index, self.ran = index, ran

    def finditer(self, text):
        self.ran.append(self.index)
        return iter(())


def test_rows_run_by_mask_are_those_the_needs_loop_runs():
    every, split = _reference_needs()
    assert set(_NEED_SETS) == {chars for needs in every for chars in needs}
    rng = random.Random(0)
    sorted_sets = [sorted(chars) for chars in _NEED_SETS]
    for rows, row_needs in ((_DETECTORS, every), (_SPLIT_ROWS, split)):
        assert len(rows) == len(row_needs)
        ran = []
        recording = [(_RecordingPattern(i, ran), candidate, mask)
                     for i, (_, candidate, mask) in enumerate(rows)]
        for subset in range(1 << len(_NEED_SETS)):
            chosen = [i for i in range(len(_NEED_SETS)) if subset >> i & 1]
            # each chosen set whole, and one character of each
            for present in (set().union(*(_NEED_SETS[i] for i in chosen)),
                            {rng.choice(sorted_sets[i]) for i in chosen}):
                ran.clear()
                assert _accepted("", present, recording) == []
                assert ran == _reference_rows_run(present, row_needs), \
                    (subset, sorted(present))


def test_digit_set_is_the_digit_class():
    bmp = (chr(c) for c in range(0x10000))
    assert [c for c in bmp if re.fullmatch(D, c)] == sorted(DIGITS)


def test_table_surface_without_row_characters_raises():
    tbl = {"ر.ک": "رجوع کنید", "رک": "رک"}
    with pytest.raises(ValueError, match="رک"):
        _table_needs(tbl, ".(")
    assert _table_needs(tbl) == {"ر"}


def test_currency_and_math_symbol_surfaces_resolve_in_row_order():
    # a bare currency sign overlaps no candidate of its class but the amount
    # it is in, and no math-symbol surface overlaps a fraction
    assert all(len(surface) == 1 for surface in CURRENCIES)
    assert [s for s in MATH_SYMBOLS if not set(s).isdisjoint(DIGITS + "/")] \
        == []


def test_table_surface_with_a_dot_raises():
    tbl = {"%": "درصد", "a.b": "آ ب"}
    with pytest.raises(ValueError, match="a.b"):
        _dotless(tbl)
    del tbl["a.b"]
    assert _dotless(tbl) is tbl


def test_table_surface_longer_than_one_character_raises():
    tbl = {"$": "دلار", "US$": "دلار آمریکا"}
    with pytest.raises(ValueError, match="US"):
        _one_character(tbl)
    del tbl["US$"]
    assert _one_character(tbl) == "$"


def _first_item(pattern):
    """The first item of a parsed pattern, inside any groups it opens."""
    op, av = sre_parse.parse(pattern.pattern, pattern.flags)[0]
    while op is sre_parse.SUBPATTERN:
        op, av = av[-1][0]
    return op, av


def test_rows_open_on_a_character_set():
    # a pattern that opens on a literal, a class or an alternation of
    # branches that each open on a literal is tried by ``re`` only at the
    # characters it can start on; the Persian abbreviation row is left as
    # it is (README, scanner section)
    for pattern, _, _ in _DETECTORS:
        if pattern is _ABBREV_FA_PAT:
            continue
        op, av = _first_item(pattern)
        if op is sre_parse.BRANCH:
            assert all(branch and branch[0][0] is sre_parse.LITERAL
                       for branch in av[1]), pattern.pattern[:40]
        else:
            assert op in (sre_parse.LITERAL, sre_parse.IN), pattern.pattern[:40]


# the rows that open on a digit not preceded by one, each with a text it
# matches whole and the class of its span
_DIGIT_ROWS = [
    (_DATE_PAT, "1400/01/01", SemioticClass.DATE),
    (_TIME_PAT, "11:35", SemioticClass.TIME),
    (_DECIMAL_PAT, "3.14", SemioticClass.DECIMAL),
    (_FRACTION_PAT, "1/2", SemioticClass.MATH_SYMBOL),
]


@pytest.mark.parametrize("pattern, body, cls", _DIGIT_ROWS)
def test_digit_row_span_at_offset_zero(pattern, body, cls):
    assert pattern.match(body).group(0) == body
    assert [(s.start, s.end, s.cls) for s in scan(body + " بود")] == \
        [(0, len(body), cls)]


@pytest.mark.parametrize("digit", ["5", "۵", "٥"])
@pytest.mark.parametrize("pattern, body, cls", _DIGIT_ROWS)
def test_digit_row_never_starts_after_a_digit(pattern, body, cls, digit):
    text = f"عدد {digit}{body} بود"
    assert all(text[m.start() - 1] not in DIGITS
               for m in pattern.finditer(text))
    assert not any(s.start == 5 and s.cls is cls for s in scan(text))


# the URL, email and Latin abbreviation rows written the plain way, with the
# check on the previous character first; the rows that open on a character
# class must find the same matches
_REFERENCE_PATS = {
    _URL_PAT: re.compile(
        r"(?:https?|ftp)://\S+"
        r"|www\.\S+"
        rf"|(?<![\w@.\-])(?:[A-Za-z0-9\-]+\.)+{_TLD}(?:/\S*)?"
        r"(?![\w@]|\.[\w@])"
    ),
    _EMAIL_PAT: re.compile(
        r"(?<![A-Za-z0-9._\-])[A-Za-z0-9._\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
    ),
    _ABBREV_EN_PAT: re.compile(
        r"\b[A-Za-z]{1,3}(?:\.[A-Za-z]{1,3})+\.?"
        r"|\b[A-Z]{2,6}\b(?!\.[A-Za-z])"
    ),
    # the digit rows, each with its opening digit tested against the one
    # before it as a pair of digits
    _DATE_PAT: re.compile(
        rf"({D}(?<!{D}{D}){D}{{0,3}})([/.\-])({D}{{1,2}})\2({D}{{1,4}})(?!{D})"
    ),
    _TIME_PAT: re.compile(
        rf"({D}(?<!{D}{D}){D}?):({D}{{2}})(?::({D}{{2}}))?(?!{D})"
    ),
    _DIGIT_RUN_PAT: re.compile(
        rf"{D}(?<!{D}{D})(?:{D}{{7}}|{D}{{9,10}}|{D}{{15}})(?!{D})"
    ),
    _DECIMAL_PAT: re.compile(rf"({D}(?<!{D}{D}){D}{{0,14}})\.({D}+)(?!{D})"),
    _LONG_NUMBER_PAT: re.compile(rf"{D}(?<!{D}{D}){D}{{15,}}(?!{D})"),
    _FRACTION_PAT: re.compile(rf"({D}(?<!{D}{D}){D}?)/({D}{{1,2}})(?!{D})"),
    # the plain-number and currency rows as written before they opened on a
    # class, the symbols an alternation
    _NUMBER_PAT: re.compile(rf"{D}+"),
    _CURRENCY_PAT: re.compile(
        rf"(?P<pre>{alternation(CURRENCIES).pattern})\s?(?P<preamt>{D}+(?:\.{D}+)?)"
        rf"|(?<!{D})(?P<postamt>{D}+(?:\.{D}+)?)\s?"
        rf"(?P<post>{alternation(CURRENCIES).pattern})"
    ),
}


def _spans(pattern, text):
    return [m.span() for m in pattern.finditer(text)]


# currency signs, digits of the three scripts and what may stand between
_CURRENCY_FUZZ_PIECES = (list(CURRENCIES) * 3 + list(DIGITS) + list(". \t") * 3
                         + ["ب", "a"])


def test_currency_row_reads_its_reference_amounts():
    # the same spans, and the same symbol and amount read from each
    reference = _REFERENCE_PATS[_CURRENCY_PAT]
    texts = _fuzz_lines(20000, pieces=_CURRENCY_FUZZ_PIECES)
    texts += _MIXED_LINES + criterion_7_corpus()[0]
    branches = set()
    for text in texts:
        want = []
        for m in reference.finditer(text):
            branches.add(m.group("pre") is None)
            want.append((m.span(), {"symbol": m.group("pre") or m.group("post"),
                                    "amount": m.group("preamt") or m.group("postamt")}))
        got = [(m.span(), _currency(m, text)[3]) for m in _CURRENCY_PAT.finditer(text)]
        assert got == want, text
    assert branches == {True, False}  # signs both before and after amounts


def test_leading_class_rows_match_their_reference():
    texts = _fuzz_lines(20000) + _MIXED_LINES + criterion_7_corpus()[0]
    texts += [normalize_general(t) for t in texts]
    texts += _fuzz_lines(20000, pieces=_DIGIT_FUZZ_PIECES)
    for pattern, reference in _REFERENCE_PATS.items():
        for text in texts:
            assert _spans(pattern, text) == _spans(reference, text), \
                (pattern.pattern[:30], text)


# the rows that open on a Latin character class, each with a text it matches
# whole, the characters that may not come right before a match and the class
# of its span
_LATIN_ROWS = [
    (_URL_PAT, "a.com", "x_.@-ب", SemioticClass.URL),
    (_URL_PAT, "http://a.com", "", SemioticClass.URL),
    (_URL_PAT, "www.a.com", "", SemioticClass.URL),
    (_EMAIL_PAT, "a@b.com", "x_.-", SemioticClass.EMAIL),
    (_ABBREV_EN_PAT, "Ph.D", "x_ب", SemioticClass.ABBREV_EN),
    (_ABBREV_EN_PAT, "NASA", "x_ب", SemioticClass.ABBREV_EN),
]


@pytest.mark.parametrize("pattern, body, before, cls", _LATIN_ROWS,
                         ids=[row[1] for row in _LATIN_ROWS])
def test_latin_row_span_at_offset_zero(pattern, body, before, cls):
    assert pattern.match(body).group(0) == body
    assert [(s.start, s.end, s.cls) for s in scan(body + " بود")] == \
        [(0, len(body), cls)]


@pytest.mark.parametrize("prev", list("x_.@-ب"))
@pytest.mark.parametrize("pattern, body, before, cls", _LATIN_ROWS,
                         ids=[row[1] for row in _LATIN_ROWS])
def test_latin_row_start_after_a_character(pattern, body, before, cls, prev):
    text = f"عدد {prev}{body} بود"
    spans = _spans(pattern, text)
    assert spans == _spans(_REFERENCE_PATS[pattern], text)
    if prev in before:
        assert all(start != 5 for start, _ in spans)
    else:  # a match starts at the body or, where it may, on ``prev``
        assert any(start <= 5 and 5 + len(body) <= end for start, end in spans)


def test_scheme_url_starts_inside_a_word():
    assert [(s.start, s.cls) for s in scan("xhttp://a.com")] == \
        [(1, SemioticClass.URL)]


def test_acronym_inside_a_word_is_no_abbreviation():
    assert scan("aNASA") == []
    assert _spans(_ABBREV_EN_PAT, "aNASA") == []


@pytest.mark.parametrize("abbrev", ["Ph.D", "U.S.A."])
@pytest.mark.parametrize("prefix", ["", "،"])
def test_dotted_abbreviation_at_start_and_after_comma(abbrev, prefix):
    text = prefix + abbrev
    assert classes(text) == [(SemioticClass.ABBREV_EN, abbrev)]
    assert _spans(_ABBREV_EN_PAT, text) == \
        _spans(_REFERENCE_PATS[_ABBREV_EN_PAT], text)


# a digit run is read as a phone only at 8 digits with a cue word within 20
# characters of it, or at 11 digits with a mobile or area-code prefix
@pytest.mark.parametrize("text", ["تلفن 22334455", "22334455 تلفن"])
def test_eight_digits_by_a_cue_are_a_phone(text):
    spans = scan(text)
    assert [(s.cls, s.raw) for s in spans] == \
        [(SemioticClass.PHONE, "22334455")]
    assert spans[0].data == {"kind": PhoneKind.LANDLINE}


def test_bare_eight_digits_are_a_plain_number():
    assert classes("22334455") == [(SemioticClass.PLAIN_NUMBER, "22334455")]


@pytest.mark.parametrize("gap, cls", [
    (16, SemioticClass.PHONE), (17, SemioticClass.PLAIN_NUMBER),
])
def test_phone_cue_window_is_20_characters(gap, cls):
    # the cue starts 20 (gap 16) or 21 (gap 17) characters before the run,
    # or ends that far after it
    spaces = " " * gap
    for text in (f"تلفن{spaces}22334455", f"22334455{spaces}تلفن"):
        assert classes(text) == [(cls, "22334455")], gap


@pytest.mark.parametrize("run, cls", [
    ("0523924984", SemioticClass.NATIONAL_ID),
    ("6104337852441441", SemioticClass.CARD_NUMBER),
    ("09397796915", SemioticClass.PHONE),
    ("02123456789", SemioticClass.PHONE),
    ("6104337852441442", SemioticClass.LONG_NUMBER),
    # DECIMAL's row comes before LONG_NUMBER's
    ("1.1234567890123456", SemioticClass.DECIMAL),
    ("۱.۱۲۳۴۵۶۷۸۹۰۱۲۳۴۵۶", SemioticClass.DECIMAL),
])
def test_digit_run_classes_by_length(run, cls):
    assert classes(f"شماره {run} است") == [(cls, run)]


# the reference resolution: every maximal digit run is a candidate (a
# PLAIN_NUMBER when no check claims it), every row runs on every text, one
# sort by the class order written out below, and the splitter keeps the
# spans that hold a dot; ``scan`` and ``protect_non_terminal_dots`` must
# agree with it
_REFERENCE_DIGIT_RUN_PAT = re.compile(rf"{D}+")
_RESOLUTION_ORDER = [
    "URL", "EMAIL", "SHEBA", "DATE", "TIME", "PHONE", "CARD_NUMBER",
    "NATIONAL_ID", "DECIMAL", "LONG_NUMBER", "CURRENCY", "ABBREV_EN",
    "ABBREV_FA", "MATH_SYMBOL", "SYMBOL", "PLAIN_NUMBER",
]
_PRIORITY_INDEX = {SemioticClass[name]: i
                   for i, name in enumerate(_RESOLUTION_ORDER)}


def test_classes_are_listed_in_resolution_order():
    assert [c.name for c in SemioticClass] == _RESOLUTION_ORDER


def _reference_digit_run(m, text):
    run = m.group(0)
    if len(run) in (8, 11):
        left = text[max(0, m.start() - 20):m.start()]
        right = text[m.end():m.end() + 20]
        kind = classify_phone(run, left, right)
        if kind is not None:
            return SemioticClass.PHONE, m.start(), m.end(), {"kind": kind}
    if len(run) == 16 and validate_card(run):
        cls = SemioticClass.CARD_NUMBER
    elif len(run) == 10 and validate_national_id(run):
        cls = SemioticClass.NATIONAL_ID
    elif len(run) > 15:
        cls = SemioticClass.LONG_NUMBER
    else:
        cls = SemioticClass.PLAIN_NUMBER
    return cls, m.start(), m.end(), {}


# the reference reads plain numbers through ``_reference_digit_run``, not
# through the PLAIN_NUMBER row it checks
_REFERENCE_ROWS = [
    (_REFERENCE_DIGIT_RUN_PAT, _reference_digit_run)
    if pattern is _DIGIT_RUN_PAT else (pattern, candidate)
    for pattern, candidate, _ in _DETECTORS if pattern is not _NUMBER_PAT
]


def _reference_scan(text):
    candidates = []
    for pattern, candidate in _REFERENCE_ROWS:
        for m in pattern.finditer(text):
            c = candidate(m, text)
            if c is not None:
                candidates.append(c)
    candidates.sort(key=lambda c: (_PRIORITY_INDEX[c[0]], -(c[2] - c[1]), c[1]))
    covered = bytearray(len(text))
    accepted = []
    for cls, start, end, data in candidates:
        if covered.find(1, start, end) == -1:
            covered[start:end] = b"\1" * (end - start)
            accepted.append((start, end, cls, text[start:end], repr(data)))
    return sorted(accepted, key=lambda s: s[0])


def _reference_protect(text):
    if "." not in text and "://" not in text:
        return []
    last = _PRIORITY_INDEX[SemioticClass[_LAST_DOTTED]]
    intervals = [(start, end) for start, end, cls, _, _ in _reference_scan(text)
                 if _PRIORITY_INDEX[cls] <= last]
    intervals += [m.span() for m in _DATE_PAT.finditer(text) if m.group(2) == "."]
    return _merged(intervals)


def _assert_matches_reference(texts):
    for text in texts:
        spans = scan(text)
        assert [(s.start, s.end, s.cls, s.raw, repr(s.data)) for s in spans] \
            == _reference_scan(text), text
        for s in spans:
            assert 0 <= s.start < s.end <= len(text), (text, s)
            assert s.raw == text[s.start:s.end], (text, s)
        # no class but the six dotted ones, all up to ``_LAST_DOTTED``,
        # gives a span that holds a dot
        assert not [s.raw for s in spans
                    if "." in s.raw and s.cls not in _DOTTED_CLASSES], text
        assert _merged(protect_non_terminal_dots(text)) == _reference_protect(text), text


def test_scan_and_dot_protection_match_the_reference():
    texts = _fuzz_lines(20000) + _MIXED_LINES + criterion_7_corpus()[0]
    _assert_matches_reference(texts + [normalize_general(t) for t in texts])


_TO_PERSIAN = str.maketrans("0123456789", "۰۱۲۳۴۵۶۷۸۹")


def _digit_runs():
    """Runs of 7-17 digits: mobile, area-code and other prefixes, one digit
    repeated, and national IDs and cards with valid and invalid checksums."""
    runs = {"0523924984", "0523924985", "6104337852441441", "6104337852441442"}
    for n in range(7, 18):
        runs |= {("09" + "1234567890" * 2)[:n], ("021" + "5" * 20)[:n],
                 "7" * n, "".join(str(i * 7 % 10) for i in range(n))}
    return sorted(runs | {r.translate(_TO_PERSIAN) for r in runs})


_DIGIT_RUN_SHAPES = [
    "{}", "شماره {} است", "تلفن {}", "{} تلفن", "شماره {}.5 است.",
    "عدد 3.{} بود.", "{}.{}", "IR{}", "{}$", "ساعت 1:{}", "تاریخ 1400.01.{}",
]


def test_digit_runs_match_the_reference():
    texts = [shape.format(*[run] * shape.count("{}"))
             for run in _digit_runs() for shape in _DIGIT_RUN_SHAPES]
    _assert_matches_reference(texts + [normalize_general(t) for t in texts])
