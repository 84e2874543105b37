"""The benchmark's tracer finds every module-level name it patches.

``perfbench/tracing.py`` wraps functions at the names ``pipeline``,
``segmenter`` and ``verbalize`` look them up by; a refactor that renames one
leaves a trace point missing.
"""

import importlib.util
from pathlib import Path

from persian_norm import pipeline, segmenter, verbalize

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _namespaces():
    owners = (pipeline, segmenter, verbalize, verbalize.SelectionPolicy)
    return [dict(vars(owner)) for owner in owners]


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_finds_every_name_and_restores_it():
    before = _namespaces()
    tracer = _tracer()
    try:
        tracer.install(pipeline, segmenter, verbalize)
        assert tracer.missing == []
    finally:
        tracer.restore()
    for old, new in zip(before, _namespaces()):
        assert new.keys() == old.keys()
        assert [name for name in old if new[name] is not old[name]] == []


def test_split_calls_dot_protection_through_the_segmenter():
    tracer = _tracer()
    try:
        tracer.install(pipeline, segmenter, verbalize)
        segmenter.split_sentences("عدد 3.14 است. تمام شد.")
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert "segmenter.protect_non_terminal_dots" in names
