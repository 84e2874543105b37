"""Persian text normalization for text and speech applications.

Canonicalizes raw Persian text (character, digit and punctuation variants,
markup entities, emojis) and rewrites non-standard words — numbers, dates,
times, phone numbers, IDs, URLs, symbols, abbreviations — into the words a
Persian speaker would pronounce.  Includes a dot-protected, verb-aware
sentence segmenter and a command-line interface.
"""

from .numwords import (
    cardinal_words,
    decimal_words,
    grouped_digit_words,
    ordinal_words,
    words_to_number,
)
from .pipeline import (
    PipelineConfig,
    enumerate_verbalizations,
    normalize_general,
    normalize_speech,
)
from .scanner import (
    PhoneKind,
    SemioticClass,
    SemioticSpan,
    classify_phone,
    scan,
    validate_card,
    validate_national_id,
    validate_sheba,
)
from .segmenter import (
    DEFAULT_LEXICON,
    VerbLexicon,
    detect_verb_positions,
    split_sentences,
)
from .verbalize import (
    SelectionPolicy,
    expand_abbreviation,
    verbalize_url_email,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_LEXICON",
    "PhoneKind",
    "PipelineConfig",
    "SelectionPolicy",
    "SemioticClass",
    "SemioticSpan",
    "VerbLexicon",
    "cardinal_words",
    "classify_phone",
    "decimal_words",
    "detect_verb_positions",
    "enumerate_verbalizations",
    "expand_abbreviation",
    "grouped_digit_words",
    "normalize_general",
    "normalize_speech",
    "ordinal_words",
    "scan",
    "split_sentences",
    "validate_card",
    "validate_national_id",
    "validate_sheba",
    "verbalize_url_email",
    "words_to_number",
]
