"""Self-tests of the benchmark's input generators.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

* prose at seed 3 is, byte for byte, the corpus that the criterion-7 loop of
  tests/test_acceptance.py builds from that module's own ``_random_token``
  and ``_WORDS`` (the test module is imported, never changed);
* every card, national ID and Sheba that the dense generator places passes
  its checksum and is scanned as CARD_NUMBER, NATIONAL_ID or SHEBA, so dense
  cannot decay into PLAIN_NUMBER and LONG_NUMBER spans;
* every workload is the same for the same seed and differs between seeds.

Prints one PASS or FAIL line per check and exits with 1 if any failed.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import gate
import workloads

ROOT = Path(__file__).resolve().parent.parent
DENSE_SEEDS = range(1, 21)


def _criterion_7_corpus(acceptance) -> list[str]:
    # the corpus loop of test_criterion_7_throughput, with that module's
    # generator functions
    rng = random.Random(3)
    lines = []
    size = 0
    while size < 1_000_000:
        tokens = [
            acceptance._random_token(rng) if rng.randrange(10) == 0
            else rng.choice(acceptance._WORDS)
            for _ in range(rng.randrange(5, 15))
        ]
        line = " ".join(tokens)
        lines.append(line)
        size += len(line.encode("utf-8")) + 1
    return lines


def check_prose(acceptance) -> list[str]:
    expected = "\n".join(_criterion_7_corpus(acceptance)).encode("utf-8")
    lines = workloads.build("prose", 3).items
    got = "\n".join(lines).encode("utf-8")
    if got != expected:
        return [f"prose seed 3 differs from the criterion-7 corpus "
                f"({len(got)} vs {len(expected)} bytes)"]
    print(f"  prose seed 3: {len(lines)} lines, {len(got) + 1} bytes")
    return []


def check_dense(pn) -> list[str]:
    problems = []
    per_kind = dict.fromkeys(workloads.ID_KINDS, 0)
    for seed in DENSE_SEEDS:
        ids = workloads.build("dense", seed).ids
        problems += gate.misclassified_ids(pn, ids)
        for _, kind in ids:
            per_kind[kind] += 1
    problems += [f"dense placed no {kind}" for kind, n in per_kind.items() if not n]
    print(f"  dense seeds {DENSE_SEEDS.start}-{DENSE_SEEDS.stop - 1}: {per_kind}")
    return problems


def _bytes(wl) -> bytes:
    parts = wl.docs + wl.items
    parts += [s for _, small, big in wl.pairs for s in (small, big)]
    return "\x1e".join(parts).encode("utf-8")


def check_seeding() -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        a, b, c = (_bytes(workloads.build(name, seed)) for seed in (5, 5, 6))
        if a != b:
            problems.append(f"{name}: seed 5 gives different inputs")
        if a == c:
            problems.append(f"{name}: seeds 5 and 6 give the same inputs")
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import persian_norm as pn

    spec = importlib.util.spec_from_file_location(
        "test_acceptance", ROOT / "tests" / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)

    failed = False
    for name, check in (("prose corpus", lambda: check_prose(acceptance)),
                        ("dense IDs", lambda: check_dense(pn)),
                        ("seeding", check_seeding)):
        problems = check()
        print(f"{'FAIL' if problems else 'PASS'}: {name}")
        for line in problems[:20]:
            print("  " + line)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
