"""Pass composition: the general and speech normalization pipelines."""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, field, replace

from . import charset
from .scanner import SemioticSpan, scan
from .verbalize import SelectionPolicy, option_count, span_variants

GENERAL_PASSES = (
    ("fold_characters", charset.fold_characters),
    ("fold_digits", charset.fold_digits),
    ("fold_punctuation", charset.fold_punctuation),
    ("decode_markup_entities", charset.decode_markup_entities),
    ("strip_emojis", charset.strip_emojis),
)
PASS_NAMES = tuple(name for name, _ in GENERAL_PASSES)

ENUMERATION_CAP = 10**4

_MULTI_SPACE = re.compile(r"  +")
_SPACE_BEFORE_PUNCT = re.compile(r" (?=[.,،؛;:!؟?»)\]])")


@dataclass(frozen=True)
class PipelineConfig:
    enabled_passes: frozenset = frozenset(PASS_NAMES)
    policy: SelectionPolicy = field(default_factory=SelectionPolicy.fixed)

    def __post_init__(self):
        unknown = set(self.enabled_passes) - set(PASS_NAMES)
        if unknown:
            raise ValueError(f"unknown pass names: {sorted(unknown)}")

    def disable(self, name: str) -> "PipelineConfig":
        if name not in PASS_NAMES:
            raise ValueError(f"unknown pass name: {name}")
        return replace(self, enabled_passes=self.enabled_passes - {name})


_DEFAULT_CONFIG = PipelineConfig()


def normalize_general(text: str, config: PipelineConfig | None = None) -> str:
    """Run the character-level canonicalization passes in fixed order."""
    config = config or _DEFAULT_CONFIG
    for name, fn in GENERAL_PASSES:
        if name in config.enabled_passes:
            text = fn(text)
    return text


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
    config = config or _DEFAULT_CONFIG
    text = normalize_general(text, config)
    spans = scan(text)
    if not spans:
        return text
    policy = config.policy
    rng = random.Random(policy.seed) if policy.seed is not None else None
    replacements = [policy.choose(span_variants(span), rng)
                    for span in spans]
    return _assemble(text, spans, replacements)


def enumerate_verbalizations(text: str, config: PipelineConfig | None = None) -> list[str]:
    """Cross-product of template choices across all spans, deduplicated."""
    config = config or _DEFAULT_CONFIG
    normalized = normalize_general(text, config)
    spans = scan(normalized)
    if not spans:
        return [normalized]
    # a digit-group family is counted before any of its readings is built
    variant_lists = [span_variants(span) for span in spans]
    count = math.prod(option_count(v) for v in variant_lists)
    if count > ENUMERATION_CAP:
        # the count itself is not shown: it can be too long to print
        raise ValueError(
            f"enumeration would produce more than {ENUMERATION_CAP} outputs"
        )
    seen = set()
    out = []
    for combo in itertools.product(*variant_lists):
        rendered = _assemble(normalized, spans, list(combo))
        if rendered not in seen:
            seen.add(rendered)
            out.append(rendered)
    return out
