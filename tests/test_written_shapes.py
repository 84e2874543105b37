"""Seeded property test over numbers written in shapes that the criterion-5
generator of ``test_acceptance`` never produces: two or three numeric fields
(zero runs, out-of-range months, hours and minutes, and random values)
joined by a date, decimal or time separator, after a cue word and before a
sentence end.  Speech output must never raise, hold no digit and be
idempotent; the segmenter must never raise."""

import random
import re

from persian_norm import normalize_speech, split_sentences

FIELDS = ("0", "00", "000", "0000", "13", "24", "31", "32", "60", "99")
SEPARATORS = "/.-:"
BEFORE = ("تاریخ", "ساعت", "عدد", "")
AFTER = ("", ".", " بود.", " است")
DIGIT = re.compile("[0-9۰-۹٠-٩]")


def _field(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(FIELDS)
    return str(rng.randint(0, 99 if kind == 1 else 9999))


def written_shapes(n, seed=7):
    rng = random.Random(seed)
    lines = []
    for _ in range(n):
        fields = [_field(rng) for _ in range(rng.choice((2, 3)))]
        token = rng.choice(SEPARATORS).join(fields)
        before = rng.choice(BEFORE)
        lines.append(f"{before} {token}".lstrip() + rng.choice(AFTER))
    return lines


def test_written_shapes_are_spoken_without_digits():
    for line in written_shapes(5000):
        split_sentences(line)
        out = normalize_speech(line)
        assert not DIGIT.search(out), (line, out)
        assert normalize_speech(out) == out, (line, out)
