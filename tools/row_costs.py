"""Print what each step of ``normalize_general`` and each scanner row costs
on the benchmark workloads, so that two source trees can be compared step
for step and row for row.

Usage: python tools/row_costs.py SRC_DIR [WORKLOAD ...]

``SRC_DIR`` is the ``src/`` directory of the tree under test; the tool
exits 2 unless ``persian_norm`` is imported from under it.  The workloads
(all of ``perfbench/workloads.py``'s when none is named) are built at seed
1.  Each workload's first lines are its ``general`` path: each step of
``normalize_general`` with every pass enabled (entity decoding, the
composed fold, emoji removal) runs five times on what the step before it
gave.  A line gives the step's index and name, how many texts it ran on,
how many it changed and its best time of the five in milliseconds.

Then each row's pattern is wrapped in a proxy that times the row's own
``finditer``, and the real entry points run on the workload's docs:

* ``scan``: ``scanner.scan`` on ``normalize_general`` of each doc, which
  runs the rows of ``scanner._DETECTORS``;
* ``protect``: ``scanner.protect_non_terminal_dots`` on each doc as
  written, which runs the rows of ``scanner._SPLIT_ROWS``.  Its DATE row
  reads the one ``_DATE_PAT`` pass that protection makes on every dotted
  text, which that proxy times.

So only the rows that the gate runs are timed.  Each pass runs five times,
and each line gives a workload, a path and a row: the row's index, its
class, how many texts it ran on, its matches and its best time of the five
in milliseconds.  A row the gate never runs reads 0 runs.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
REPEATS = 5


def _import(src: Path):
    """``persian_norm`` from under ``src``, and ``perfbench/workloads``."""
    for path in (str(ROOT / "perfbench"), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import persian_norm
    import workloads
    return persian_norm, workloads


class Timed:
    """A row's pattern whose ``finditer`` is timed: the matches are found
    whole before they are handed on, so the row's checks are not timed."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.runs = self.matches = 0
        self.seconds = 0.0

    def finditer(self, text):
        start = time.perf_counter()
        found = list(self.pattern.finditer(text))
        self.seconds += time.perf_counter() - start
        self.runs += 1
        self.matches += len(found)
        return iter(found)


def _timed_pass(scanner, path: str, texts: list[str]) -> list[Timed]:
    """One run of ``path``'s entry point over ``texts`` with each of its
    rows timed; the scanner's own rows are restored after it."""
    name = "_DETECTORS" if path == "scan" else "_SPLIT_ROWS"
    rows = getattr(scanner, name)
    timed = [Timed(pattern) for pattern, *_ in rows]
    date_pat = scanner._DATE_PAT
    setattr(scanner, name, [(t, *rest) for t, (_, *rest) in zip(timed, rows)])
    try:
        if path == "scan":
            for text in texts:
                scanner.scan(text)
        else:
            scanner._DATE_PAT = timed[scanner._DATE_ROW]
            for text in texts:
                scanner.protect_non_terminal_dots(text)
    finally:
        setattr(scanner, name, rows)
        scanner._DATE_PAT = date_pat
    return timed


def general_costs(pn, name: str, docs: list[str]) -> list[str]:
    """One line per step of ``normalize_general`` with every pass enabled,
    each step run on what the step before it gave."""
    (decode_name, decode), (strip_name, strip) = pn.pipeline.GENERAL_PASSES
    fold = pn.charset.composed_fold(frozenset(pn.pipeline.PASS_NAMES))
    steps = [(decode_name, decode), ("composed_fold", fold), (strip_name, strip)]
    lines = []
    texts = docs
    for i, (step, fn) in enumerate(steps):
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            out = [fn(text) for text in texts]
            best = min(best, time.perf_counter() - start)
        changed = sum(a != b for a, b in zip(texts, out))
        lines.append(f"{name} general {i} {step} runs {len(texts)} "
                     f"changed {changed} best_ms {best * 1e3:.3f}")
        texts = out
    return lines


def row_costs(pn, workloads, name: str) -> list[str]:
    docs = workloads.build(name, SEED).docs
    texts = {"scan": [pn.normalize_general(doc) for doc in docs],
             "protect": docs}
    classes = [cls for cls, rows in pn.scanner._CLASSES.items() for _ in rows]
    lines = general_costs(pn, name, docs)
    for path, path_texts in texts.items():
        passes = [_timed_pass(pn.scanner, path, path_texts)
                  for _ in range(REPEATS)]
        for i, row in enumerate(passes[0]):
            best = min(timed[i].seconds for timed in passes)
            lines.append(f"{name} {path} {i} {classes[i]} runs {row.runs} "
                         f"matches {row.matches} best_ms {best * 1e3:.3f}")
    return lines


def main(argv: list[str]) -> int:
    if not argv:
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
    names = argv[1:] or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    for name in names:
        print("\n".join(row_costs(pn, workloads, name)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
