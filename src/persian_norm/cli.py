"""Command-line interface.

Subcommands: ``normalize`` (general/speech pipelines, streaming line by
line), ``split`` (sentence segmentation), ``eval-split`` (segmentation
accuracy against a gold fixture) and ``scan`` (emit classified spans).
Exit codes: 0 success, 1 usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from .pipeline import (
    PASS_NAMES,
    PipelineConfig,
    enumerate_verbalizations,
    normalize_general,
    normalize_speech,
)
from .scanner import scan
from .segmenter import (
    DEFAULT_VERB_SPLIT_THRESHOLD,
    evaluate_segmentation,
    split_sentences,
)
from .verbalize import SelectionPolicy


_MODES = ("general", "speech")
_CONFIG_KEYS = ("mode", "seed", "template_index", "disable")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="persian-norm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("normalize", help="run a normalization pipeline")
    norm.add_argument("--mode", choices=_MODES, default=None)
    norm.add_argument("--seed", type=int, default=None,
                      help="seeded-random template selection")
    norm.add_argument("--template-index", type=int, default=None,
                      help="fixed template selection index")
    norm.add_argument("--disable", action="append", default=[],
                      metavar="PASS", help=f"disable a pass ({', '.join(PASS_NAMES)})")
    norm.add_argument("--enumerate", action="store_true", dest="enumerate_all",
                      help="print every possible verbalization per line")
    norm.add_argument("--out", default=None, help="output file (default stdout)")
    norm.add_argument("--config", default=None,
                      help="key=value config file; CLI flags override it")
    norm.add_argument("input", nargs="?", default="-",
                      help="input file, or - for stdin")

    split = sub.add_parser("split", help="sentence segmentation")
    split.add_argument("--threshold", type=int,
                       default=DEFAULT_VERB_SPLIT_THRESHOLD,
                       help="verb-split token threshold (default: %(default)s)")
    split.add_argument("input", nargs="?", default="-")

    ev = sub.add_parser("eval-split", help="segmentation accuracy on a gold fixture")
    ev.add_argument("gold", help="gold fixture: one sentence per line, "
                                 "blank line between paragraphs")

    sc = sub.add_parser("scan", help="emit spans as tab-separated lines")
    sc.add_argument("input", nargs="?", default="-")
    return parser


def _open_input(path: str):
    return nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8")


def _open_output(path: str | None):
    return open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)


def _lines(fh):
    """The lines of ``fh`` one at a time, split as ``str.splitlines`` splits
    the whole text."""
    for physical in fh:
        yield from physical.splitlines()


def _load_config_file(path: str) -> dict:
    """The ``key = value`` lines of a config file, ``seed`` and
    ``template_index`` as ints and ``disable`` as a list of pass names;
    raises ValueError, naming the file, on a line without ``=``, an unknown
    key, mode or pass name, or a value that is not an integer, as the parser
    rejects a bad flag."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise ValueError(f"{path}: not a key = value line: {ln!r}")
            key, _, value = ln.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}: unknown config key {key!r} "
                                 f"(choose from {', '.join(_CONFIG_KEYS)})")
            values[key] = value.strip()
    if values.get("mode", "speech") not in _MODES:
        raise ValueError(f"{path}: invalid mode {values['mode']!r} "
                         f"(choose from {', '.join(_MODES)})")
    for key in ("seed", "template_index"):
        if key in values:
            try:
                values[key] = int(values[key])
            except ValueError:
                raise ValueError(f"{path}: {key} is not an integer: "
                                 f"{values[key]!r}") from None
    if "disable" in values:
        values["disable"] = [name.strip() for name in values["disable"].split(",")]
        for name in values["disable"]:
            if name not in PASS_NAMES:
                raise ValueError(f"{path}: unknown pass name in disable: {name!r} "
                                 f"(choose from {', '.join(PASS_NAMES)})")
    return values


def _build_config(args) -> tuple[PipelineConfig, str]:
    """The pipeline config and the mode ("general" or "speech")."""
    file_values = _load_config_file(args.config) if args.config else {}
    mode = args.mode or file_values.get("mode", "speech")
    seed = args.seed
    if seed is None:
        seed = file_values.get("seed")
    index = args.template_index
    if index is None:
        index = file_values.get("template_index")
    if seed is not None:
        policy = SelectionPolicy.seeded(seed)
    else:
        policy = SelectionPolicy.fixed(index or 0)
    config = PipelineConfig(policy=policy)
    for name in {*args.disable, *file_values.get("disable", ())}:
        config = config.disable(name)
    return config, mode


def _cmd_normalize(args) -> int:
    config, mode = _build_config(args)
    normalize = normalize_general if mode == "general" else normalize_speech
    # the input opens first, so an unreadable one creates no output file
    with _open_input(args.input) as src, _open_output(args.out) as out:
        for line in _lines(src):
            if args.enumerate_all:
                for verbalization in enumerate_verbalizations(line, config):
                    out.write(verbalization + "\n")
            else:
                out.write(normalize(line, config) + "\n")
    return 0


def _cmd_split(args) -> int:
    with _open_input(args.input) as src:
        for line in _lines(src):
            for sentence in split_sentences(
                    line, verb_split_threshold=args.threshold):
                print(sentence)
    return 0


def read_gold_fixture(path) -> list[list[str]]:
    """Gold fixture file -> list of paragraphs, each a list of sentences."""
    paragraphs: list[list[str]] = [[]]
    text = Path(path).read_text(encoding="utf-8")
    for ln in text.splitlines():
        ln = ln.strip()
        if ln.startswith("#"):
            continue
        if not ln:
            if paragraphs[-1]:
                paragraphs.append([])
            continue
        paragraphs[-1].append(ln)
    if not paragraphs[-1]:
        paragraphs.pop()
    return paragraphs


def evaluate_gold_fixture(path) -> float:
    paragraphs = read_gold_fixture(path)
    predicted: list[str] = []
    gold: list[str] = []
    for sentences in paragraphs:
        source = " ".join(sentences)
        predicted.extend(split_sentences(source))
        gold.extend(sentences)
    return evaluate_segmentation(predicted, gold)


def _cmd_eval_split(args) -> int:
    accuracy = evaluate_gold_fixture(args.gold)
    print(f"{accuracy:.4f}")
    return 0


def _cmd_scan(args) -> int:
    with _open_input(args.input) as src:
        for line in _lines(src):
            for span in scan(line):
                print(f"{span.start}\t{span.end}\t{span.cls.value}\t{span.raw}")
    return 0


_COMMANDS = {
    "normalize": _cmd_normalize,
    "split": _cmd_split,
    "eval-split": _cmd_eval_split,
    "scan": _cmd_scan,
}


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
