"""Pass composition: the general and speech normalization pipelines."""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import namedtuple
from functools import lru_cache

from . import charset
from .scanner import SemioticSpan, scan
from .verbalize import SelectionPolicy, option_count, span_variants

# the passes that are not folds: entity decoding, before the composed fold so
# that the fold maps what an entity decodes to, and emoji removal, after it
GENERAL_PASSES = (
    ("decode_markup_entities", charset.decode_markup_entities),
    ("strip_emojis", charset.strip_emojis),
)
PASS_NAMES = (*charset.FOLD_TABLES, *(name for name, _ in GENERAL_PASSES))

ENUMERATION_CAP = 10**4

# a space before a space or a closing mark: deleting each one collapses a run
# of spaces and drops it before the mark, in one pass
_EXTRA_SPACE = re.compile(r" (?=[ .,،؛;:!؟?»)\]])")


class PipelineConfig(namedtuple("PipelineConfig", "enabled_passes policy")):
    """The passes ``normalize_general`` runs, as a frozenset of names from
    ``PASS_NAMES``, and the policy that picks each span's reading."""

    __slots__ = ()

    def __new__(cls, enabled_passes=frozenset(PASS_NAMES),
                policy: SelectionPolicy = SelectionPolicy.fixed()):
        if isinstance(enabled_passes, str):
            raise TypeError("enabled_passes takes a collection of pass names, "
                            f"not the string {enabled_passes!r}")
        enabled_passes = frozenset(enabled_passes)
        unknown = enabled_passes.difference(PASS_NAMES)
        if unknown:
            raise ValueError(f"unknown pass names: {sorted(unknown)}")
        return super().__new__(cls, enabled_passes, policy)

    @classmethod
    def _make(cls, fields):  # so that ``_replace`` checks the fields too
        return cls(*fields)

    def disable(self, name: str) -> "PipelineConfig":
        if name not in PASS_NAMES:
            raise ValueError(f"unknown pass name: {name}")
        return self._replace(enabled_passes=self.enabled_passes - {name})


_DEFAULT_CONFIG = PipelineConfig()


def normalize_general(text: str, config: PipelineConfig | None = None) -> str:
    """Run the enabled passes in fixed order: entity decoding, the fold
    passes as one composed fold, then emoji removal."""
    enabled = (config or _DEFAULT_CONFIG).enabled_passes
    (decode_name, decode), (strip_name, strip) = GENERAL_PASSES
    if decode_name in enabled:
        text = decode(text)
    text = charset.composed_fold(enabled)(text)
    return strip(text) if strip_name in enabled else text


def _assemble(text: str, spans: list[SemioticSpan], replacements: list[str]) -> str:
    parts = []
    pos = 0
    for span, rep in zip(spans, replacements):
        parts.append(text[pos:span.start])
        parts.append(f" {rep} ")
        pos = span.end
    parts.append(text[pos:])
    return _EXTRA_SPACE.sub("", "".join(parts)).strip()


# typed: ``2**80 == 2.0**80``, but ``random.Random`` seeds an int by its value
# and a float by its hash
@lru_cache(maxsize=16, typed=True)
def _seed_state(seed) -> tuple:
    """The state ``random.Random(seed)`` starts in."""
    return random.Random(seed).getstate()


def normalize_speech(text: str, config: PipelineConfig | None = None) -> str:
    """General normalization, then every non-standard word spoken out.  A
    SEEDED policy draws from a generator of its own for each call, restored
    to the state ``random.Random(seed)`` starts in."""
    config = config or _DEFAULT_CONFIG
    text = normalize_general(text, config)
    spans = scan(text)
    if not spans:
        return text
    policy = config.policy
    rng = None
    if policy.seed is not None:
        # restoring a kept state is cheaper than seeding, which hashes a
        # str or bytes seed and expands any seed into the whole state
        rng = random.Random.__new__(random.Random)
        rng.setstate(_seed_state(policy.seed))
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
