"""Command line interface: build-vocab, normalize, evaluate, compare.

Machine-readable TSV goes to stdout; diagnostics go to stderr. Exit codes:
0 success, 1 I/O or format problems, 2 a query term the rules reject or a
usage error (argparse prints usage, e.g. for --top 0 or --model m1 --eq 1),
3 gold terms missing from the vocabulary.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from . import evaluation, rules, vocabulary
from .errors import (
    EmptyCorpusError,
    EmptyGoldSetError,
    FormatError,
    GoldTermMissingError,
    TermTooShortError,
)


def ascii_int(minimum: int):
    """An argparse type for an integer >= minimum, written in ASCII digits.

    int() alone also reads other scripts' digits ("٣" is 3) and "1_0".
    """

    def integer(value: str) -> int:
        if not (value.isascii() and value.isdigit()) or int(value) < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {value!r}")
        return int(value)

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="translitnorm",
        description="normalize noisy transliterated query terms against a corpus vocabulary",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a vocabulary file from a corpus directory")
    p.add_argument("--corpus", required=True, help="directory of plain-text documents")
    p.add_argument("--out", required=True, help="vocabulary file to write")
    p.add_argument("--preserve-case", action="store_true", help="skip case folding")

    p = sub.add_parser("normalize", help="rank vocabulary candidates for one term")
    p.add_argument("--vocab", required=True)
    p.add_argument("--term", required=True)
    p.add_argument("--model", choices=list(rules.MODEL_IDS), help="default m3")
    p.add_argument("--top", type=ascii_int(1), default=10)
    p.add_argument("--eq", type=ascii_int(1), choices=[1, 2], help="scoring formula override")
    p.add_argument("--config", help="key=value file overriding model, eq or weights")

    p = sub.add_parser("evaluate", help="score one model against a gold set")
    p.add_argument("--vocab", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--model", choices=list(rules.MODEL_IDS), help="default m3")
    p.add_argument("--eq", type=ascii_int(1), choices=[1, 2])
    p.add_argument("--config")
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="score all four models against a gold set")
    p.add_argument("--vocab", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True)

    return parser


def _resolve_config(args: argparse.Namespace) -> rules.ModelConfig:
    return rules.load_model_config(args.config, model=args.model, formula=args.eq)


def _cmd_build_vocab(args: argparse.Namespace) -> int:
    documents = vocabulary.load_corpus(args.corpus)
    vocab = vocabulary.build_vocabulary(documents, case_fold=not args.preserve_case)
    vocabulary.save_vocabulary(vocab, args.out)
    print(f"terms\t{len(vocab)}")
    print(f"tokens\t{vocab.total_frequency()}")
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    vocab = vocabulary.load_vocabulary(args.vocab)
    config = _resolve_config(args)
    ranked = rules.normalize(args.term, vocab, config, args.top)
    for rank, cand in enumerate(ranked, 1):
        print(f"{rank}\t{cand.term}\t{cand.proxy_weight:.6f}\t{cand.edit_distance}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    vocab = vocabulary.load_vocabulary(args.vocab)
    pairs = evaluation.load_gold_set(args.gold)
    config = _resolve_config(args)
    scores = evaluation.evaluate_model(pairs, vocab, config)
    report = evaluation.EvalReport({config.model_id: scores}, scores.sample_count)
    return _emit_report(report, args.out)


def _cmd_compare(args: argparse.Namespace) -> int:
    vocab = vocabulary.load_vocabulary(args.vocab)
    pairs = evaluation.load_gold_set(args.gold)
    report = evaluation.compare_models(pairs, vocab)
    return _emit_report(report, args.out)


def _emit_report(report: evaluation.EvalReport, out_path: str) -> int:
    text = evaluation.render_report(report)
    Path(out_path).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


_COMMANDS = {
    "build-vocab": _cmd_build_vocab,
    "normalize": _cmd_normalize,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "model", None) == "m1" and getattr(args, "eq", None):
        parser.error("--eq cannot be combined with --model m1")
    try:
        return _COMMANDS[args.command](args)
    except TermTooShortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GoldTermMissingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, FormatError, EmptyCorpusError, EmptyGoldSetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
