"""Pass composition: the general and speech normalization pipelines."""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field, replace

from . import charset
from .numwords import cardinal_words, decimal_words
from .scanner import Calendar, SemioticClass, SemioticSpan, ascii_digits, scan
from .verbalize import (
    GroupedReadings,
    PolicyMode,
    SelectionPolicy,
    date_variants,
    expand_abbreviation,
    grouped_id_readings,
    phone_readings,
    time_variants,
    verbalize_fraction,
    verbalize_symbol,
    verbalize_url_email,
)

GENERAL_PASSES = (
    ("fold_characters", charset.fold_characters),
    ("fold_digits", charset.fold_digits),
    ("fold_punctuation", charset.fold_punctuation),
    ("decode_markup_entities", charset.decode_markup_entities),
    ("strip_emojis", charset.strip_emojis),
)
PASS_NAMES = tuple(name for name, _ in GENERAL_PASSES)

ENUMERATION_CAP = 10**4

_MULTI_SPACE = re.compile(r" +")
_SPACE_BEFORE_PUNCT = re.compile(r" (?=[.,،؛;:!؟?»)\]])")


class Mode:
    GENERAL = "general"
    SPEECH = "speech"


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = Mode.SPEECH
    enabled_passes: frozenset = frozenset(PASS_NAMES)
    policy: SelectionPolicy = field(default_factory=SelectionPolicy.fixed)
    calendar_default: Calendar = Calendar.SOLAR_HIJRI
    url_word_style: str = "latin"

    def __post_init__(self):
        unknown = set(self.enabled_passes) - set(PASS_NAMES)
        if unknown:
            raise ValueError(f"unknown pass names: {sorted(unknown)}")

    def disable(self, name: str) -> "PipelineConfig":
        if name not in PASS_NAMES:
            raise ValueError(f"unknown pass name: {name}")
        return replace(self, enabled_passes=self.enabled_passes - {name})


def normalize_general(text: str, config: PipelineConfig | None = None) -> str:
    """Run the character-level canonicalization passes in fixed order."""
    config = config or PipelineConfig(mode=Mode.GENERAL)
    for name, fn in GENERAL_PASSES:
        if name in config.enabled_passes:
            text = fn(text)
    return text


_GROUPED_IDS = (SemioticClass.NATIONAL_ID, SemioticClass.CARD_NUMBER,
                SemioticClass.LONG_NUMBER, SemioticClass.SHEBA)


def grouped_readings(span: SemioticSpan) -> GroupedReadings | None:
    """The readings of a span read in digit groups; None for other classes."""
    if span.cls is SemioticClass.PHONE:
        return phone_readings(span.raw, span.data["kind"])
    if span.cls in _GROUPED_IDS:
        return grouped_id_readings(span.raw, span.cls)
    return None


def span_variants(span: SemioticSpan, config: PipelineConfig) -> list[str]:
    """All legitimate spoken renderings for one classified span."""
    cls = span.cls
    family = grouped_readings(span)
    if family is not None:
        return family.readings()
    if cls is SemioticClass.DATE:
        return date_variants(span.data["date"])
    if cls is SemioticClass.TIME:
        return time_variants(
            span.data["hour"], span.data["minute"], span.data["second"]
        )
    if cls in (SemioticClass.URL, SemioticClass.EMAIL):
        return [verbalize_url_email(span.raw, style=config.url_word_style)]
    if cls is SemioticClass.CURRENCY:
        name = verbalize_symbol(span.data["symbol"], cls)
        amount = span.data.get("amount")
        if amount:
            amount = ascii_digits(amount)
            if "." in amount:
                i, f = amount.split(".", 1)
                amount_words = decimal_words(i, f)
            else:
                amount_words = cardinal_words(int(amount))
            return [f"{amount_words} {name}"]
        return [name]
    if cls is SemioticClass.MATH_SYMBOL:
        if "numerator" in span.data:
            return [verbalize_fraction(
                span.data["numerator"], span.data["denominator"]
            )]
        return [verbalize_symbol(span.raw, cls)]
    if cls is SemioticClass.SYMBOL:
        return [verbalize_symbol(span.raw, cls)]
    if cls in (SemioticClass.ABBREV_FA, SemioticClass.ABBREV_EN):
        return [expand_abbreviation(span.raw)]
    if cls is SemioticClass.DECIMAL:
        return [decimal_words(span.data["integer"], span.data["fraction"])]
    if cls is SemioticClass.PLAIN_NUMBER:
        return [cardinal_words(int(ascii_digits(span.raw)))]
    raise ValueError(f"unhandled class {cls}")


def _assemble(text: str, spans: list[SemioticSpan], replacements: list[str]) -> str:
    parts = []
    pos = 0
    for span, rep in zip(spans, replacements):
        parts.append(text[pos:span.start])
        parts.append(f" {rep} ")
        pos = span.end
    parts.append(text[pos:])
    out = _MULTI_SPACE.sub(" ", "".join(parts))
    out = _SPACE_BEFORE_PUNCT.sub("", out)
    return out.strip()


def normalize_speech(text: str, config: PipelineConfig | None = None) -> str:
    """General normalization, then every non-standard word spoken out."""
    config = config or PipelineConfig()
    text = normalize_general(text, config)
    spans = scan(text, config)
    if not spans:
        return text
    policy = config.policy
    rng = (random.Random(policy.seed)
           if policy.mode is PolicyMode.SEEDED_RANDOM else None)
    replacements = []
    for span in spans:
        family = grouped_readings(span)
        if family is None:
            replacements.append(policy.choose(span_variants(span, config), rng))
        else:
            replacements.append(family.render(policy.pick(family.count(), rng)))
    return _assemble(text, spans, replacements)


def enumerate_verbalizations(text: str, config: PipelineConfig | None = None) -> list[str]:
    """Cross-product of template choices across all spans, deduplicated."""
    config = config or PipelineConfig()
    normalized = normalize_general(text, config)
    spans = scan(normalized, config)
    if not spans:
        return [normalize_speech(text, config)]
    # a grouped-digit span is counted before any of its readings is built
    families = [grouped_readings(span) for span in spans]
    variant_lists = [span_variants(span, config) if family is None else None
                     for span, family in zip(spans, families)]
    count = 1
    for family, vl in zip(families, variant_lists):
        count *= len(vl) if family is None else family.count()
        if count > ENUMERATION_CAP:
            raise ValueError(
                f"enumeration would produce more than {ENUMERATION_CAP} "
                f"outputs ({count}+)"
            )
    variant_lists = [family.readings() if vl is None else vl
                     for family, vl in zip(families, variant_lists)]
    seen = set()
    out = []
    for combo in itertools.product(*variant_lists):
        rendered = _assemble(normalized, spans, list(combo))
        if rendered not in seen:
            seen.add(rendered)
            out.append(rendered)
    return out
