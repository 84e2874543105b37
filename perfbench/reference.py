"""A fixed pure-Python loop that measures how fast the machine is right now.

The benchmark runs on shared machines, where other tenants slow every
process by 20-40 % for seconds or minutes at a time.  The loop below does
the same kinds of work as the program (regex substitution, translation
tables, dict counting, splitting and joining strings) on fixed data and
never calls the program, so its time changes only with the machine.  run.py
times it between the program's calls and scales each of the program's
times by ``REF_NS / reference time``: the time the call would take on a
machine on which the loop takes ``REF_NS``.
"""

from __future__ import annotations

import random
import re
import statistics
from collections import deque
from time import perf_counter_ns

# the loop's time on the machine where the baseline was recorded (2-core
# x86-64 VM, CPython 3.11.7) with no other load
REF_NS = 1_600_000
# timings of the loop whose mean gives the current speed: the ones just
# before and just after a batch of the program's calls, as the speed changes
# within a tenth of a second
RECENT = 2


class Reference:
    def __init__(self):
        rng = random.Random(0)
        self._words = ["".join(rng.choice("abcdefghij") for _ in range(rng.randrange(3, 9)))
                       for _ in range(3000)]
        self._text = " ".join(self._words)
        self._pattern = re.compile(r"[a-c]+d|e{2,}")
        self._table = str.maketrans("abc", "xyz")
        self._recent: deque[int] = deque(maxlen=RECENT)
        for _ in range(RECENT):
            self.sample()

    def _run(self) -> int:
        counts: dict[str, int] = {}
        for w in self._words:
            counts[w] = counts.get(w, 0) + 1
        s = self._pattern.sub(lambda m: m.group(0).upper(), self._text)
        s = s.translate(self._table)
        return len("|".join(x[::-1] for x in s.split(" "))) + len(counts)

    def sample(self):
        """Time the loop once."""
        t0 = perf_counter_ns()
        self._run()
        self._recent.append(perf_counter_ns() - t0)

    def scale(self) -> float:
        """``REF_NS`` over the mean of the last ``RECENT`` timings of the loop."""
        return REF_NS / statistics.fmean(self._recent)
