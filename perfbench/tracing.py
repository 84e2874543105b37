"""Per-layer tracing from outside the program.

``Tracer.install`` replaces functions at the names the package's modules
look them up by (``pipeline.scan``, ``segmenter.detect_verb_positions``,
``pipeline.GENERAL_PASSES`` and so on) with wrappers that record one span
per call: name, start, end, parent span and item id.  ``restore`` puts the
originals back.  Nothing under ``src/`` changes.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

PASSES = ("fold_characters", "fold_digits", "fold_punctuation",
          "decode_markup_entities", "strip_emojis")
CLASSES = ("DATE", "TIME", "PHONE", "NATIONAL_ID", "CARD_NUMBER", "SHEBA",
           "URL", "EMAIL", "CURRENCY", "SYMBOL", "MATH_SYMBOL", "ABBREV_FA",
           "ABBREV_EN", "PLAIN_NUMBER", "LONG_NUMBER", "DECIMAL")
NUMWORDS = ("cardinal_words", "ordinal_words", "decimal_words",
            "grouped_digit_words")
LAYERS = ("charset", "scanner", "verbalize", "numwords", "pipeline")


def _key(args):
    return tuple(tuple(a) if isinstance(a, list) else a for a in args)


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent index, item id, wrapper's whole ns]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = None
        self.calls_changed: dict[str, int] = defaultdict(int)
        self.span_classes: dict[str, int] = defaultdict(int)
        self.spans_per_call_max = 0
        self.variants_built = 0
        self.variants_max = 0
        self.distinct_args: dict[str, set] = defaultdict(set)
        self.protected_intervals = 0
        self.sentences = 0
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            enter = perf_counter_ns()
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.item, 0]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = perf_counter_ns()
                stack.pop()
                span[5] = span[2] - enter
                raise
            span[2] = perf_counter_ns()
            stack.pop()
            if observe is not None:
                observe(args, result)
            # the wrapper's own cost counts as covered by this span, so that
            # it is in nobody's self time
            span[5] = perf_counter_ns() - enter
            return result

        return traced

    # --- observers ----------------------------------------------------------

    def _changed(self, name):
        def observe(args, result):
            if result != args[0]:
                self.calls_changed[name] += 1
        return observe

    def _scanned(self, args, spans):
        for span in spans:
            self.span_classes[span.cls.value] += 1
        self.spans_per_call_max = max(self.spans_per_call_max, len(spans))

    def _variants(self, args, variants):
        self.variants_built += len(variants)
        self.variants_max = max(self.variants_max, len(variants))

    def _distinct(self, name):
        seen = self.distinct_args[name]
        return lambda args, result: seen.add(_key(args))

    def _intervals(self, args, intervals):
        self.protected_intervals += len(intervals)

    def _sentences(self, args, sentences):
        self.sentences += len(sentences)

    # --- installation -------------------------------------------------------

    def _patch(self, owner, attr, name, observe=None):
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def install(self, pipeline, segmenter, verbalize):
        self._saved.append((pipeline, "GENERAL_PASSES", pipeline.GENERAL_PASSES))
        pipeline.GENERAL_PASSES = tuple(
            (name, self.wrap(f"charset.{name}", fn, self._changed(name)))
            for name, fn in pipeline.GENERAL_PASSES
        )
        self._patch(pipeline, "normalize_general", "pipeline.normalize_general")
        self._patch(pipeline, "scan", "scanner.scan", self._scanned)
        self._patch(pipeline, "span_variants", "verbalize.span_variants",
                    self._variants)
        self._patch(verbalize.SelectionPolicy, "choose", "verbalize.choose")
        for module in (verbalize, pipeline):
            for fn in NUMWORDS:
                if hasattr(module, fn):
                    self._patch(module, fn, f"numwords.{fn}",
                                self._distinct(fn))
        self._patch(segmenter, "scan", "segmenter.scan")
        self._patch(segmenter, "protect_non_terminal_dots",
                    "segmenter.protect_non_terminal_dots", self._intervals)
        self._patch(segmenter, "detect_verb_positions",
                    "segmenter.detect_verb_positions")

    def roots(self, pn, config):
        """Traced stand-ins for the three public entry points."""
        speech = functools.partial(pn.normalize_speech, config=config)
        return {
            "general": self.wrap("pipeline.normalize_general", pn.normalize_general),
            "speech": self.wrap("pipeline.normalize_speech", speech),
            "split": self.wrap("segmenter.split_sentences", pn.split_sentences,
                               self._sentences),
        }

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # --- results ------------------------------------------------------------

    def self_times(self):
        """Self time and call count per span name, and self time per
        (phase, layer)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, item, outer in self.spans:
            if parent >= 0:
                child[parent] += outer
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        by_phase = defaultdict(int)
        for i, (name, start, end, parent, item, outer) in enumerate(self.spans):
            own = end - start - child[i]
            self_ns[name] += own
            calls[name] += 1
            by_phase[item[0], name.split(".", 1)[0]] += own
        return self_ns, calls, by_phase

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json.

        ``*.self_s`` sums self time over every call in the pass, whichever
        entry point made it; ``scanner.*`` counts the scans of
        ``normalize_speech`` and ``segmenter.scan`` those of
        ``split_sentences``; ``*.changed_ratio`` is calls whose output differs
        from the input over calls; ``verbalize.used_per_built`` is spans
        verbalized over variants built; ``numwords.*.distinct_ratio`` is
        distinct arguments over calls; ``speech_share.<layer>`` is the
        layer's share of the self time under ``normalize_speech``.
        """
        self_ns, calls, by_phase = self.self_times()
        m: dict[str, float] = {}

        def self_s(name):
            return self_ns.get(name, 0) / 1e9

        for p in PASSES:
            name = f"charset.{p}"
            m[f"{name}.self_s"] = self_s(name)
            m[f"{name}.changed_ratio"] = (
                self.calls_changed[p] / calls[name] if calls[name] else 0.0
            )
        m["scanner.scan.self_s"] = self_s("scanner.scan")
        m["scanner.scan.calls"] = calls["scanner.scan"]
        m["scanner.spans"] = sum(self.span_classes.values())
        m["scanner.spans_per_call_max"] = self.spans_per_call_max
        for c in CLASSES:
            m[f"scanner.spans.{c}"] = self.span_classes[c]
        m["verbalize.span_variants.self_s"] = self_s("verbalize.span_variants")
        m["verbalize.variants_built"] = self.variants_built
        m["verbalize.variants_max"] = self.variants_max
        m["verbalize.used_per_built"] = (
            calls["verbalize.span_variants"] / self.variants_built
            if self.variants_built else 0.0
        )
        m["verbalize.choose.self_s"] = self_s("verbalize.choose")
        for fn in NUMWORDS:
            name = f"numwords.{fn}"
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s(name)
            m[f"{name}.distinct_ratio"] = (
                len(self.distinct_args[fn]) / calls[name] if calls[name] else 0.0
            )
        m["pipeline.normalize_speech.self_s"] = self_s("pipeline.normalize_speech")
        m["pipeline.normalize_general.self_s"] = self_s("pipeline.normalize_general")
        for fn in ("scan", "protect_non_terminal_dots", "split_sentences",
                   "detect_verb_positions"):
            m[f"segmenter.{fn}.self_s"] = self_s(f"segmenter.{fn}")
        m["segmenter.protected_intervals"] = self.protected_intervals
        m["segmenter.sentences"] = self.sentences
        speech_total = sum(by_phase["speech", layer] for layer in LAYERS)
        for layer in LAYERS:
            m[f"speech_share.{layer}"] = (
                by_phase["speech", layer] / speech_total if speech_total else 0.0
            )
        m["trace.spans"] = len(self.spans)
        return m

    def write(self, path: Path):
        """Write every span as one tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("name\tstart_ns\tend_ns\tparent\titem\n")
            for name, start, end, parent, (phase, index), _ in self.spans:
                f.write(f"{name}\t{start}\t{end}\t{parent}\t{phase}/{index}\n")
