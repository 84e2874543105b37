"""Dot-protected, verb-aware sentence segmentation.

Terminal punctuation splits first, with dots inside decimals, dates,
abbreviations, URLs and emails protected.  Long unpunctuated segments fall
back to splitting after sentence-final verb groups detected by a stem+suffix
lexicon (a pluggable stand-in for a full POS tagger).
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable

from .numwords import ZWNJ
from .resources import rows
from .scanner import protect_non_terminal_dots
from .scanner import scan  # unused here; perfbench/tracing.py wraps segmenter.scan

TERMINAL_MARKS = ".!?؟"
_MARK_SET = frozenset(TERMINAL_MARKS)
DEFAULT_VERB_SPLIT_THRESHOLD = 30


class VerbLexicon(namedtuple("VerbLexicon", "past_stems present_stems "
                             "past_suffixes present_suffixes auxiliaries full_forms")):
    """The stems, suffixes and whole forms ``_verb_test`` knows.  Building one
    also builds ``past_forms`` and ``present_forms``, each stem + suffix (a
    present form needs a prefix): attributes, not fields, so they are not
    compared or printed."""

    def __new__(cls, past_stems: frozenset, present_stems: frozenset,
                past_suffixes: tuple, present_suffixes: tuple,
                auxiliaries: frozenset, full_forms: frozenset):
        if not past_stems:
            raise ValueError("verb lexicon has no past stems")
        self = super().__new__(cls, past_stems, present_stems, past_suffixes,
                               present_suffixes, auxiliaries, full_forms)
        vars(self).update(
            past_forms=frozenset(s + x for s in past_stems for x in past_suffixes),
            present_forms=frozenset(
                s + x for s in present_stems for x in ("", *present_suffixes)))
        return self

    @classmethod
    def _make(cls, fields):  # so that ``_replace`` builds the forms too
        return cls(*fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: "
                             "a VerbLexicon is immutable")

    __delattr__ = __setattr__


def _lexicon_from_rows(lines: list[str]) -> VerbLexicon:
    """A lexicon from "kind<TAB>entry" lines; entries keep file order."""
    groups: dict[str, list[str]] = {}
    for ln in lines:
        kind, _, value = ln.partition("\t")
        groups.setdefault(kind, []).append(value)
    return VerbLexicon(
        past_stems=frozenset(groups.get("past", ())),
        present_stems=frozenset(groups.get("present", ())),
        past_suffixes=tuple(groups.get("suffix_past", ())),
        present_suffixes=tuple(groups.get("suffix_present", ())),
        auxiliaries=frozenset(groups.get("aux", ())),
        full_forms=frozenset(groups.get("full", ())),
    )


DEFAULT_LEXICON = _lexicon_from_rows(rows("verb_lexicon.tsv"))


def _strip_prefix(token: str) -> tuple[str, bool]:
    for prefix in ("نمی" + ZWNJ, "می" + ZWNJ, "نمی", "می"):
        if token.startswith(prefix) and len(token) > len(prefix):
            return token[len(prefix):], True
    if token.startswith("نیا") and len(token) > 3:
        # negation of an alef-madda initial stem: ن + آمد -> نیامد
        return "آ" + token[3:], False
    if token.startswith("ن") and len(token) > 1:
        return token[1:], False
    return token, False


# punctuation that may cling to a verb token
_TOKEN_PUNCT = TERMINAL_MARKS + "،؛:,;()«»\"'"


def _verb_test(lexicon: VerbLexicon) -> Callable[[str], bool]:
    """Whether a token is a verb of ``lexicon``.  The lexicon's sets are
    read once here, not once per token: reading a named tuple's attribute
    costs about as much as a set lookup."""
    full_forms, auxiliaries = lexicon.full_forms, lexicon.auxiliaries
    past_forms, present_forms = lexicon.past_forms, lexicon.present_forms

    def is_verb(token: str) -> bool:
        token = token.strip(_TOKEN_PUNCT)
        if not token:
            return False
        if token in full_forms or token in auxiliaries:
            return True
        stemmed, has_present_prefix = _strip_prefix(token)
        return (token in past_forms or stemmed in past_forms
                or has_present_prefix and stemmed in present_forms)

    return is_verb


def detect_verb_positions(tokens: list[str], lexicon: VerbLexicon | None = None) -> list[int]:
    """Indices of verb-group ends; consecutive verb tokens form one group."""
    is_verb = _verb_test(lexicon or DEFAULT_LEXICON)
    flags = [is_verb(t) for t in tokens]
    positions = []
    for i, flag in enumerate(flags):
        if flag and (i + 1 == len(flags) or not flags[i + 1]):
            positions.append(i)
    return positions


# closers that a run of terminal marks takes with it, so that a sentence
# ends after the quote or bracket it closes (those ``pipeline._EXTRA_SPACE``
# keeps no space before)
_CLOSERS = "»)]"
# opened on one class, not ``[marks]+``: ``re`` gives a charset prefix to a
# pattern that opens on a class, not to one that opens on a repeat, and with
# it skips the text between runs in C
_TERMINAL_RUN = re.compile(f"[{re.escape(TERMINAL_MARKS)}]"
                           f"[{re.escape(TERMINAL_MARKS + _CLOSERS)}]*")


def _split_on_terminals(text: str) -> list[str]:
    """Split after each run of terminal marks ("...", "?!", "؟»") that holds
    a mark outside every interval of ``protect_non_terminal_dots``; a closer
    in the run never splits it.  The intervals are found, and marked in a
    coverage mask, only once a first run is met."""
    covered = None
    segments = []
    start = 0
    for run in _TERMINAL_RUN.finditer(text):
        if covered is None:
            covered = bytearray(len(text))
            for left, right in protect_non_terminal_dots(text):
                covered[left:right] = b"\1" * (right - left)
        bare = covered.find(0, run.start(), run.end())
        while bare != -1 and text[bare] in _CLOSERS:
            bare = covered.find(0, bare + 1, run.end())
        if bare != -1:
            segments.append(text[start:run.end()])
            start = run.end()
    if start < len(text):
        segments.append(text[start:])
    return segments


def _verb_split(segment: str, lexicon: VerbLexicon) -> list[str]:
    tokens = segment.split()
    positions = detect_verb_positions(tokens, lexicon)
    pieces = []
    prev = 0
    for pos in positions:
        if pos + 1 >= len(tokens):
            break
        pieces.append(" ".join(tokens[prev:pos + 1]))
        prev = pos + 1
    pieces.append(" ".join(tokens[prev:]))
    return pieces


def split_sentences(text: str, lexicon: VerbLexicon | None = None,
                    verb_split_threshold: int = DEFAULT_VERB_SPLIT_THRESHOLD) -> list[str]:
    """Split a paragraph into sentences."""
    lexicon = lexicon or DEFAULT_LEXICON
    sentences = []
    for segment in _split_on_terminals(text):
        stripped = segment.strip()
        if not stripped:
            continue
        # n characters hold at most (n + 1) // 2 words, so a short segment
        # is not split into words to count them; a segment that ends on a
        # mark, closers aside, is never split at verbs
        if ((len(stripped) + 1) // 2 > verb_split_threshold
                and stripped.rstrip(_CLOSERS)[-1:] not in _MARK_SET
                and len(stripped.split()) > verb_split_threshold):
            sentences.extend(_verb_split(stripped, lexicon))
        else:
            sentences.append(stripped)
    return sentences


def evaluate_segmentation(predicted: list[str], gold: list[str]) -> float:
    """Fraction of gold sentences reproduced exactly (whitespace-normalized)."""
    if not gold:
        raise ValueError("gold list is empty")
    norm = lambda s: re.sub(r"\s+", " ", s).strip()
    predicted_set = {norm(p) for p in predicted}
    hits = sum(1 for g in gold if norm(g) in predicted_set)
    return hits / len(gold)
