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


_CONFIG_KEYS = ("mode", "seed", "template_index", "disable")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _Policy(argparse.Action):
    """Stores ``const(value)``, a ``SelectionPolicy``: ``--seed`` and
    ``--template-index`` share the dest ``policy``, so the one parsed last
    wins."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, self.const(value))


def build_parser() -> _Parser:
    parser = _Parser(prog="persian-norm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("normalize", help="run a normalization pipeline")
    # ``parser`` is the parser that checks the lines of a --config file
    norm.set_defaults(parser=norm, policy=SelectionPolicy.fixed())
    norm.add_argument("--mode", choices=("general", "speech"), default="speech")
    policy = norm.add_mutually_exclusive_group()
    policy.add_argument("--seed", type=int, action=_Policy, dest="policy",
                        const=SelectionPolicy.seeded, metavar="N",
                        help="seeded-random template selection")
    policy.add_argument("--template-index", type=int, action=_Policy,
                        dest="policy", const=SelectionPolicy.fixed, metavar="N",
                        help="fixed template selection index")
    norm.add_argument("--disable", action="append", default=[],
                      choices=PASS_NAMES, metavar="PASS",
                      help="disable a pass (%(choices)s)")
    norm.add_argument("--enumerate", action="store_true", dest="enumerate_all",
                      help="print every speech verbalization per line")
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


def _read_config_file(norm: _Parser, path: str) -> None:
    """Makes the ``key = value`` lines of a config file the defaults of
    ``norm``, each line parsed as the flag it stands for (``disable = a, b``
    as ``--disable a --disable b``), so that flags on the command line win
    and ``disable`` lines add up. Raises ValueError, naming the file, on a
    line without ``=`` or with an unknown key, and, naming the key too, on a
    value the flag would not take."""
    values = norm.parse_args([])
    with open(path, encoding="utf-8-sig") as fh:
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
            flag = "--" + key.replace("_", "-")
            items = value.split(",") if key == "disable" else [value]
            try:
                norm.parse_args([f"{flag}={item.strip()}" for item in items],
                                values)
            except (_UsageError, ValueError) as exc:
                raise ValueError(f"{path}: {key}: {exc}") from None
    norm.set_defaults(**vars(values))


def _cmd_normalize(args) -> int:
    config = PipelineConfig(
        enabled_passes=frozenset(PASS_NAMES).difference(args.disable),
        policy=args.policy)
    speech = args.mode == "speech"
    normalize = normalize_speech if speech else normalize_general
    # the input opens first, so an unreadable one creates no output file
    with _open_input(args.input) as src, _open_output(args.out) as out:
        for line in _lines(src):
            if args.enumerate_all and speech:
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
    text = Path(path).read_text(encoding="utf-8-sig")
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
        if getattr(args, "config", None):
            _read_config_file(args.parser, args.config)
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
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
