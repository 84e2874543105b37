"""Print one SHA-256 per benchmark workload, and one over long digit runs,
over everything the program reads from them, so that two source trees can
be compared output for output.

Usage: python tools/readings_digest.py SRC_DIR

``SRC_DIR`` is the ``src/`` directory of the tree under test; the tool
exits 2 unless ``persian_norm`` is imported from under it.  The workloads
come from ``perfbench/workloads.py`` beside this tool, at seeds 1-3.  Their
texts are the docs and each item that is not a line of a doc.  The last
line, ``digit_runs``, reads instead a digit run of each length in
``RUN_LENGTHS`` per seed, one of random digits and one with zero runs:
the longer runs have groupings counted in hundreds to thousands of
decimal digits (about 2 450 at 20 000 digits, under the 4 300 that Python
prints of an int).  Every text is read as generated and with its ASCII
digits rewritten in Persian and in Arabic-Indic digits (a text met again
is skipped).  For each text the hash takes ``normalize_general(text)``
under each of the 32 sets of passes named by ``pipeline.PASS_NAMES``, so
that every composed fold is compared with and without the other passes;
and, for each of two configs, the default one and one with the
``fold_digits`` pass off:

* for each span of ``scan(normalize_general(text))``, its class, its
  start and end, its text, the ``repr`` of its ``data``, its number of
  readings and its first 50 readings, so that a scanner change that moves
  an offset or alters ``data`` shows even where no reading changes;
* ``normalize_speech`` under ``fixed(0..3)`` and ``seeded(1..3)``, but
  under the first policy only on a text without a span, where a policy has
  nothing to pick, and with the fold on, on a digit-script copy, which the
  fold gives the digits of the text as generated;
* and, once per text, ``split_sentences`` at each verb-split threshold of
  ``SPLIT_THRESHOLDS`` (the default 30, and 3 and 2.5, at which short
  segments reach the word count and the verb split) and the positions of
  the terminal marks that the union of ``protect_non_terminal_dots``'s
  intervals covers, so that a change to which marks are protected shows
  even where no sentence boundary moves.  The intervals themselves are not
  hashed: two trees that protect the same marks with intervals cut or
  merged differently give the same line.

So it covers everything that ``perfbench/run.py`` hashes into
``output_sha256`` at seeds 1-3: general, speech under the workload's policy
and split, on every doc.

Two trees give the same output when every line printed is the same:

    python tools/readings_digest.py base/src > base.txt
    python tools/readings_digest.py src > head.txt
    cmp -s base.txt head.txt && echo same || echo differs

The jobs, one per line and seed, run in two worker processes.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
SCRIPTS = (
    str.maketrans("", ""),
    str.maketrans("0123456789", "۰۱۲۳۴۵۶۷۸۹"),
    str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"),
)
READINGS_SHOWN = 50
WORKERS = 2
DIGIT_RUNS = "digit_runs"
RUN_LENGTHS = (*range(1, 41), 159, 160, 1_000, 5_000, 20_000)
SPLIT_THRESHOLDS = (30, 3, 2.5)


def _import(src: Path):
    """``persian_norm`` from under ``src``, and ``perfbench/workloads``."""
    for path in (str(ROOT / "perfbench"), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import persian_norm
    import workloads
    return persian_norm, workloads


def seed_digest(src: Path, name: str, seed: int) -> str:
    pn, workloads = _import(src)
    policies = [pn.SelectionPolicy.fixed(i) for i in range(4)]
    policies += [pn.SelectionPolicy.seeded(s) for s in SEEDS]
    folds = [pn.PipelineConfig(), pn.PipelineConfig().disable("fold_digits")]
    names = pn.pipeline.PASS_NAMES
    subsets = [pn.PipelineConfig(subset) for r in range(len(names) + 1)
               for subset in itertools.combinations(names, r)]
    digest = hashlib.sha256()

    def add(*values):
        digest.update(repr(values).encode("utf-8"))

    if name == DIGIT_RUNS:
        rng = random.Random(seed)
        texts = [f"شماره {''.join(rng.choice(digits) for _ in range(n))}"
                 for n in RUN_LENGTHS for digits in ("0123456789", "0001")]
    else:
        wl = workloads.build(name, seed)
        lines = {line for doc in wl.docs for line in doc.splitlines()}
        texts = wl.docs + [item for item in wl.items if item not in lines]
    seen = set()
    for script in SCRIPTS:
        for text in texts:
            text = text.translate(script)
            if text in seen:
                continue
            seen.add(text)
            add([pn.normalize_general(text, config) for config in subsets])
            for fold in folds:
                spans = pn.scan(pn.normalize_general(text, fold))
                for span in spans:
                    family = pn.verbalize.span_variants(span)
                    count = pn.verbalize.option_count(family)
                    shown = [family[i] for i in range(min(count, READINGS_SHOWN))]
                    add(span.cls.name, span.start, span.end, span.raw,
                        repr(span.data), count, shown)
                every = spans and (script is SCRIPTS[0] or fold is folds[1])
                add([pn.normalize_speech(text, pn.PipelineConfig(fold.enabled_passes, p))
                     for p in (policies if every else policies[:1])])
            add([pn.split_sentences(text, verb_split_threshold=t)
                 for t in SPLIT_THRESHOLDS],
                protected_marks(pn, text))
    return digest.hexdigest()


def protected_marks(pn, text: str) -> list[int]:
    """The positions of the terminal marks of ``text`` that an interval of
    ``protect_non_terminal_dots`` covers."""
    covered = bytearray(len(text))
    for left, right in pn.segmenter.protect_non_terminal_dots(text):
        covered[left:right] = b"\1" * (right - left)
    marks = pn.segmenter.TERMINAL_MARKS
    return [i for i, c in enumerate(text) if covered[i] and c in marks]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    try:
        pn, workloads = _import(src)
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not Path(pn.__file__).resolve().is_relative_to(src):
        print(f"error: persian_norm is imported from {pn.__file__}, "
              f"not from under {src}", file=sys.stderr)
        return 2
    names = [*workloads.WORKLOADS, DIGIT_RUNS]
    jobs = [(name, seed) for name in names for seed in SEEDS]
    with ProcessPoolExecutor(WORKERS) as pool:
        digests = pool.map(seed_digest, *zip(*((src, n, s) for n, s in jobs)))
        by_job = dict(zip(jobs, digests))
    for name in names:
        seeds = " ".join(by_job[name, seed] for seed in SEEDS)
        print(name, hashlib.sha256(seeds.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
