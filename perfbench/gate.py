"""Correctness gate run before any timing.

The expected strings are written out by hand: the published reference table
(criterion 1) and the worked examples of the README and of criterion 2.  If
the program no longer produces one of them, its speed is not worth
reporting.
"""

from __future__ import annotations

import re

from workloads import ID_KINDS

# published reference outputs: every listed rendering must be enumerated
REFERENCE_OUTPUTS = {
    "11:35": [
        "یازده و سی و پنج",
        "یازده و سی و پنج دقیقه",
    ],
    "1400-07-25": [
        "بیست و پنج مهر ماه هزار و چهارصد",
        "بیست و پنجم مهر هزار و چهارصد",
        "بیست و پنج مهر سال هزار و چهارصد",
        "بیست و پنج هفت هزار و چهارصد",
    ],
    "09397796915": [
        "صفر نهصد و سی و نه هفتاد و هفت نود و شش نهصد و پانزده",
        "صفر نهصد و سی و نه هفتاد و هفت نهصد و شصت و نه پانزده",
        "صفر نهصد و سی و نه هفتصد و هفتاد و نه شصت و نه پانزده",
    ],
    "0523924984": [
        "صفر پنج بیست و سه نود و دو چهل و نه هشتاد و چهار",
        "صفر پنجاه و دو سی و نه دویست و چهل و نه هشتاد و چهار",
    ],
    "6104337852441441": [
        "شصت و یک صفر چهار سی و سه هفتاد و هشت "
        "پنجاه و دو چهل و چهار چهارده چهل و یک",
    ],
}

# (entry point, input, expected output)
WORKED_EXAMPLES = [
    ("normalize_speech", "ساعت 8:00", "ساعت هشت"),
    ("normalize_speech", "قیمت 25$ بود", "قیمت بیست و پنج دلار بود"),
    ("normalize_speech", "تاریخ 1397/7/9 بود",
     "تاریخ نهم مهر سال هزار و سیصد و نود و هفت بود"),
    ("normalize_speech", "1397/7/9", "نهم مهر سال هزار و سیصد و نود و هفت"),
    ("normalize_general", "عدد ⑥ و علي ٪😀", "عدد ۶ و علی %"),
    ("split_sentences", "عدد 3.14 مهم است. تمام شد.",
     ["عدد 3.14 مهم است.", "تمام شد."]),
    ("verbalize_url_email", "http://wpc.be1e.edgecastcdn.net/news/20ak9qy4prra.html",
     "http do noghte slash slash wpc dot be1e dot edgecastcdn dot net"),
    ("expand_abbreviation", "ر.ک", "رجوع کنید"),
    ("expand_abbreviation", "Ph.D", "پی‌اچ‌دی"),
]


def _collapse(s: str) -> str:
    return re.sub(r" +", " ", s).strip()


def mismatches(pn) -> list[str]:
    """Every expected string the package ``pn`` does not reproduce."""
    out = []
    for raw, expected in REFERENCE_OUTPUTS.items():
        produced = {_collapse(v) for v in pn.enumerate_verbalizations(raw)}
        out += [f"{raw!r}: missing {e!r}" for e in expected
                if _collapse(e) not in produced]
    for fn, raw, expected in WORKED_EXAMPLES:
        got = getattr(pn, fn)(raw)
        if got != expected:
            out.append(f"{fn}({raw!r}) = {got!r}, expected {expected!r}")
    return out


def misclassified_ids(pn, ids: list[tuple[str, str]]) -> list[str]:
    """Generated (token, kind) IDs that fail their checksum or that ``scan``
    does not read as one span of the class ``ID_KINDS`` names."""
    validators = {
        "card": pn.validate_card,
        "national_id": pn.validate_national_id,
        "sheba": pn.validate_sheba,
    }
    out = []
    for token, kind in ids:
        if not validators[kind](token):
            out.append(f"{kind} {token}: checksum rejected")
            continue
        spans = pn.scan(token)
        if [(s.start, s.end, s.cls.value) for s in spans] != [(0, len(token), ID_KINDS[kind])]:
            out.append(f"{kind} {token}: scanned as {[s.cls.value for s in spans]}")
    return out
