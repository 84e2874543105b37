"""The persian-norm benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json): prose, dense, documents,
adversarial.  One process, one thread.  The package is imported from
``src/`` of the checkout; the program sees only the generated strings.

``--trace 0`` prints the end-to-end metrics: set-up time of a fresh
interpreter, MB/s through each public entry point, per-call latency
percentiles over the workload's items, how time grows when an input is
doubled, and peak memory.  ``--trace 1`` is a separate run that wraps each
layer's functions (see tracing.py) and prints the per-layer metrics; its
spans are written to ``.perfbench-out/``.

Before any timing the correctness gate must pass (gate.py); if it does not,
the benchmark exits with code 3 and reports no numbers.  The outputs of the
first pass are checked (no digit or spoken symbol left in speech output,
speech output idempotent on a sample, sentences joined give back the input)
and hashed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the output SHA-256, the number of timing rounds and the growth of
each shape.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import random
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import gate
import workloads
from reference import Reference
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

MIN_ROUNDS = 3
SETUP_RUNS = 11
BATCH_NS = 25_000_000  # program time between two timings of the reference loop
JOB_ROUND_NS = 250_000_000  # least time of one job in one round
IDEMPOTENCE_SAMPLE = 200

_DIGIT = re.compile("[0-9۰-۹٠-٩]")


class Counter:
    """Operations attempted and failed across the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def _spoken_symbols() -> set[str]:
    """Surface forms of the symbols, currencies and math_symbols tables."""
    out = set()
    for name in ("symbols", "currencies", "math_symbols"):
        path = SRC / "persian_norm" / "data" / f"{name}.tsv"
        for line in path.read_text(encoding="utf-8").splitlines():
            if line and not line.startswith("#"):
                out.add(line.split("\t", 1)[0])
    return out


# --- first pass: outputs, checks and hash ------------------------------------

def entry_points(pn, config):
    """The three public entry points, by phase name."""
    return {"general": pn.normalize_general,
            "speech": functools.partial(pn.normalize_speech, config=config),
            "split": pn.split_sentences}


def first_pass(fns, strings, counter):
    """Run each entry point once over ``strings``; return outputs by phase."""
    outputs = {}
    for phase, fn in fns.items():
        out = []
        for s in strings:
            counter.attempted += 1
            try:
                out.append(fn(s))
            except Exception as exc:
                counter.fail(f"{phase}: {type(exc).__name__}: {exc}")
                out.append(None)
        outputs[phase] = out
    return outputs


def output_hash(outputs) -> str:
    h = hashlib.sha256()
    for phase in ("general", "speech", "split"):
        for out in outputs[phase]:
            for part in out if isinstance(out, list) else [str(out)]:
                h.update(part.encode("utf-8") + b"\x1e")
    return h.hexdigest()


def check_outputs(fns, strings, outputs, counter, seed):
    symbols = _spoken_symbols()
    for s, spoken in zip(strings, outputs["speech"]):
        if spoken is not None and (
                _DIGIT.search(spoken) or any(ch in symbols for ch in spoken)):
            counter.fail(f"speech output keeps a digit or symbol: {spoken[:80]!r}")
    for s, sentences in zip(strings, outputs["split"]):
        if sentences is not None and "".join("".join(sentences).split()) != "".join(s.split()):
            counter.fail(f"sentences do not join back to the input: {s[:80]!r}")
    spoken = [o for o in outputs["speech"] if o is not None]
    sample = random.Random(seed).sample(spoken, min(IDEMPOTENCE_SAMPLE, len(spoken)))
    for out in sample:
        counter.attempted += 1
        try:
            again = fns["speech"](out)
        except Exception as exc:
            counter.fail(f"speech on its own output: {type(exc).__name__}: {exc}")
            continue
        if again != out:
            counter.fail(f"speech not idempotent: {out[:80]!r} -> {again[:80]!r}")


# --- timed phases ------------------------------------------------------------

class Job:
    """Calls of one entry point on a list of strings, timed pass after pass.

    ``times[i][k]`` is the time of string ``i`` in pass ``k`` in ns, scaled
    by the reference loop (reference.py), which is timed between batches of
    about ``BATCH_NS``; ``raw[i][k]`` is the same time unscaled.
    """

    def __init__(self, phase, fn, strings):
        self.phase, self.fn, self.strings = phase, fn, strings
        self.times = [[] for _ in strings]
        self.raw = [[] for _ in strings]
        self.passes = 0

    def run(self, reference, counter):
        """Passes over the strings for at least ``JOB_ROUND_NS``."""
        start = perf_counter_ns()
        while True:
            self._pass(reference, counter)
            if perf_counter_ns() - start >= JOB_ROUND_NS:
                return

    def _pass(self, reference, counter):
        batch: list[tuple[int, int]] = []
        start = perf_counter_ns()
        last = len(self.strings) - 1
        for i, s in enumerate(self.strings):
            t0 = perf_counter_ns()
            try:
                self.fn(s)
            except Exception as exc:
                counter.fail(f"{self.phase}: {type(exc).__name__}: {exc}")
            t1 = perf_counter_ns()
            batch.append((i, t1 - t0))
            if t1 - start >= BATCH_NS or i == last:
                reference.sample()
                scale = reference.scale()
                for j, t in batch:
                    self.times[j].append(t * scale)
                    self.raw[j].append(t)
                batch, start = [], perf_counter_ns()
        counter.attempted += len(self.strings)
        self.passes += 1

    def mbps(self) -> float:
        """Median over passes of the MB/s of the whole list."""
        mb = sum(len(s.encode("utf-8")) for s in self.strings) / 1e6
        return statistics.median(
            mb / (sum(t[k] for t in self.times) / 1e9) for k in range(self.passes))

    def growth(self, small, big) -> float:
        """Median over passes of log2(time of big / time of small); the two
        are timed one after the other, so their raw times are compared."""
        a = self.raw[self.strings.index(small)]
        b = self.raw[self.strings.index(big)]
        return statistics.median(math.log2(y / x) for x, y in zip(a, b))


def _percentile(values, q) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class SetupProbe:
    """Set-up time of fresh interpreters (see setup_probe.py), scaled by the
    reference loop."""

    def __init__(self, reference):
        self.reference = reference
        self.command = [sys.executable,
                        str(Path(__file__).with_name("setup_probe.py")), str(SRC)]
        self.times: list[float] = []
        self.raw: list[float] = []
        self._run()  # writes the bytecode cache; not counted

    def _run(self) -> float:
        done = subprocess.run(self.command, capture_output=True, text=True,
                              timeout=120, check=True, cwd=ROOT)
        return float(done.stdout.strip().splitlines()[-1])

    def sample(self):
        raw = self._run()
        self.reference.sample()
        self.raw.append(raw)
        self.times.append(raw * self.reference.scale())


# --- the two kinds of run ------------------------------------------------------

def timed_run(pn, wl, config, seconds, seed, counter):
    """Rounds of every timing job in turn, and one set-up probe per round,
    until ``seconds`` are spent.

    MB/s and growth are medians over passes; an item's latency is the median
    of its times over passes, and the percentiles are taken over items.
    """
    fns = entry_points(pn, config)
    outputs = first_pass(fns, wl.docs, counter)
    # the program's peak is reached in the first pass; later growth of the
    # process is the benchmark's own bookkeeping
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_outputs(fns, wl.docs, outputs, counter, seed)

    docs = {phase: Job(phase, fn, wl.docs) for phase, fn in fns.items()}
    items = docs
    if wl.items is not wl.docs:
        items = {p: Job(p, fns[p], wl.items) for p in ("speech", "split")}
    pairs = {p: docs[p] for p in ("speech", "split")}
    grown = [s for _, small, big in wl.pairs for s in (small, big)]
    if any(s not in wl.docs for s in grown):
        pairs = {p: Job(p, fns[p], grown) for p in ("speech", "split")}
    jobs = list({id(j): j for j in (*docs.values(), *items.values(),
                                    *pairs.values())}.values())

    reference = Reference()
    setup = SetupProbe(reference)
    rounds = 0
    end = perf_counter() + seconds
    while rounds < MIN_ROUNDS or perf_counter() < end:
        if len(setup.times) < SETUP_RUNS:
            setup.sample()
        for job in jobs:
            job.run(reference, counter)
        rounds += 1
    while len(setup.times) < SETUP_RUNS:
        setup.sample()

    m = {"setup_s": statistics.median(setup.times)}
    for phase, job in docs.items():
        m[f"{phase}_mbps"] = job.mbps()
    latency = {p: [statistics.median(t) / 1e3 for t in items[p].times]
               for p in ("speech", "split")}
    m["speech_p50_us"] = _percentile(latency["speech"], 0.50)
    m["speech_p99_us"] = _percentile(latency["speech"], 0.99)
    m["split_p99_us"] = _percentile(latency["split"], 0.99)
    by_shape = {}
    for phase, job in pairs.items():
        by_shape[phase] = {shape: job.growth(small, big)
                           for shape, small, big in wl.pairs}
        m[f"{phase}_growth"] = max(by_shape[phase].values())
    m["peak_rss_mb"] = peak_rss_mb
    info = {"output_sha256": output_hash(outputs), "rounds": rounds,
            "passes": {f"{j.phase}/{len(j.strings)}": j.passes for j in jobs},
            "latency_items": len(wl.items), "growth_by_shape": by_shape,
            "setup_raw_s": statistics.median(setup.raw)}
    return m, info


def traced_pass(pn, config, strings, counter):
    """One pass of each entry point over ``strings`` with every layer traced."""
    from persian_norm import pipeline, segmenter, verbalize

    tracer = Tracer()
    roots = tracer.roots(pn, config)
    tracer.install(pipeline, segmenter, verbalize)
    outputs = {}
    try:
        t0 = perf_counter()
        for phase, fn in roots.items():
            out = []
            for i, s in enumerate(strings):
                tracer.item = (phase, i)
                counter.attempted += 1
                try:
                    out.append(fn(s))
                except Exception as exc:
                    counter.fail(f"traced {phase}: {type(exc).__name__}: {exc}")
                    out.append(None)
            outputs[phase] = out
        elapsed = perf_counter() - t0
    finally:
        tracer.restore()
    return tracer, outputs, elapsed


def traced_run(pn, wl, config, seconds, workload, seed, counter):
    """Traced and untraced passes, alternately, for ``seconds``.

    Every metric is the median over traced passes; the spans of the first
    traced pass are written out.
    """
    strings = wl.docs
    fns = entry_points(pn, config)
    t0 = perf_counter()
    outputs = first_pass(fns, strings, counter)
    untraced = [perf_counter() - t0]
    check_outputs(fns, strings, outputs, counter, seed)
    untraced_hash = output_hash(outputs)

    first, traced, per_pass = None, [], []
    end = perf_counter() + seconds
    while not traced or perf_counter() < end:
        tracer, out, elapsed = traced_pass(pn, config, strings, counter)
        traced_hash = output_hash(out)
        if traced_hash != untraced_hash:
            counter.fail("traced and untraced outputs differ")
        traced.append(elapsed)
        per_pass.append(tracer.metrics())
        first = first or tracer
        t0 = perf_counter()
        first_pass(fns, strings, counter)
        untraced.append(perf_counter() - t0)

    m = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    m["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    first.write(OUT_DIR / f"trace-{workload}-seed{seed}.tsv.gz")
    info = {"output_sha256": untraced_hash, "traced_output_sha256": traced_hash,
            "traced_passes": len(traced), "spans_per_pass": len(first.spans),
            "missing_trace_points": first.missing}
    return m, info


# --- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "persian_norm" / "__init__.py").is_file():
        print(f"error: no persian_norm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import persian_norm as pn

    wrong = gate.mismatches(pn)
    if wrong:
        print("correctness gate failed; no numbers reported:", file=sys.stderr)
        for line in wrong:
            print("  " + line, file=sys.stderr)
        return 3

    wl = workloads.build(args.workload, args.seed)
    counter = Counter()
    counter.attempted += len(wl.ids)
    for problem in gate.misclassified_ids(pn, wl.ids):
        counter.fail(problem)

    config = None
    if wl.seeded_policy:
        config = pn.PipelineConfig(policy=pn.SelectionPolicy.seeded(args.seed))

    if args.trace:
        metrics, info = traced_run(pn, wl, config, args.seconds, args.workload,
                                   args.seed, counter)
    else:
        metrics, info = timed_run(pn, wl, config, args.seconds, args.seed, counter)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {e["name"]: e["unit"]
             for e in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")

    info = {"workload": args.workload, "seed": args.seed, **info,
            "errors": counter.errors}
    print(json.dumps(info, ensure_ascii=False))
    print(json.dumps({
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
