"""Command-line entry points: train, tag, eval, compare, synth.  Each reads
its input as UTF-8 bytes, from a file or standard input, and writes UTF-8.

Exit codes: 0 success, 1 usage error (bad flags), 2 data or validation
error (unreadable files, malformed corpora, inconsistent parameters).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .corpus import (Corpus, SynthesisConfig, _check_words, parse_corpus, synthesize_corpus,
                     write_corpus)
from .counts import RareWordPolicy
from .errors import CorpusParseError, SuccabsError
from .evaluation import compare, evaluate, render_comparison, render_report_kv, render_report_table
from .model_io import read_model, write_model
from .smoothing import ROOT_MODES
from .tagger import SMOOTHING_INTERP, SMOOTHING_MODES, tag_corpus, train_model


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this surface reserves 2 for
    data errors, so usage failures are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str | None) -> str:
    """The UTF-8 text of a file, or of standard input when ``path`` is None,
    untranslated; a byte it cannot decode is a CorpusParseError."""
    if path is None:
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as bad:
        raise CorpusParseError("not UTF-8 text", data.count(b"\n", 0, bad.start) + 1) from None


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` as UTF-8 to a file, or to standard output when ``path`` is
    None; a command-line file name's undecodable bytes go back as they came."""
    data = text.encode("utf-8", "surrogateescape")
    if path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _parse_lambdas(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise SuccabsError(f"malformed weight list {text!r}") from None


def cmd_train(args) -> int:
    if args.lambdas is not None and args.smoothing != SMOOTHING_INTERP:
        args._parser.error("--lambdas only applies with --smoothing interp")
    corpus = parse_corpus(_read_text(args.corpus))
    lambdas = _parse_lambdas(args.lambdas) if args.lambdas is not None else None
    policy = RareWordPolicy(args.rare_threshold, args.max_suffix)
    model = train_model(corpus, order=args.order, policy=policy,
                        root_mode=args.root_mode, smoothing=args.smoothing, lambdas=lambdas)
    write_model(model, args.out)
    return 0


def _read_sentences(text: str) -> list[list[str]]:
    """Each nonblank line's words; LF, CRLF and a lone CR each end a line.
    ASCII space and tab alone separate words, unlike ``str.split``, and a
    word that breaks the corpus word rule (one starting with "#" would
    write a comment line) is a CorpusParseError naming its line."""
    sentences = []
    for number, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        words = [word for word in line.replace("\t", " ").split(" ") if word]
        if words:
            try:
                _check_words(words)
            except SuccabsError as bad:
                raise CorpusParseError(str(bad), number) from None
            sentences.append(words)
    return sentences


def _render_tagged(sentences: Sequence[Sequence[str]],
                   tagged: Sequence[Sequence[str]]) -> str:
    blocks = ["\n".join(f"{w}\t{t}" for w, t in zip(words, tags))
              for words, tags in zip(sentences, tagged)]
    return "\n\n".join(blocks) + "\n" if blocks else ""


def cmd_tag(args) -> int:
    model = read_model(args.model)
    sentences = _read_sentences(_read_text(args.input))
    tagged = tag_corpus(model, sentences)
    _write_text(args.output, _render_tagged(sentences, tagged))
    return 0


def _evaluate_model(model_path: str, gold: Corpus):
    if gold.num_tokens == 0:
        raise SuccabsError("the gold corpus has no tokens")
    model = read_model(model_path)
    predicted = tag_corpus(model, gold.sentence_words())
    return evaluate(gold, predicted, model.lexicon.words)


def cmd_eval(args) -> int:
    gold = parse_corpus(_read_text(args.gold))
    report = _evaluate_model(args.model, gold)
    render = render_report_kv if args.format == "kv" else render_report_table
    _write_text(None, render(report))
    return 0


def cmd_compare(args) -> int:
    if len(args.model) < 2:
        args._parser.error("at least two --model flags are required")
    if len(set(args.model)) < len(args.model):
        args._parser.error("each --model may be given once")
    gold = parse_corpus(_read_text(args.gold))
    reports = [(path, _evaluate_model(path, gold)) for path in args.model]
    _write_text(None, render_comparison(compare(reports)))
    return 0


def cmd_synth(args) -> int:
    cfg = SynthesisConfig(num_tags=args.tags, vocab_size=args.vocab,
                          num_train_tokens=args.train_tokens,
                          num_test_tokens=args.test_tokens,
                          seed=args.seed, zipf_exponent=args.zipf_exponent)
    train, test, spec = synthesize_corpus(cfg)
    _write_text(args.train_out, write_corpus(train))
    _write_text(args.test_out, write_corpus(test))
    if args.spec_out is not None:
        _write_text(args.spec_out,
                    json.dumps(spec.to_jsonable(), indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="succabs",
                     description="Train, run, and evaluate back-off-smoothed taggers.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("train", help="train a model from a tagged corpus")
    p.add_argument("--corpus", required=True, help="tagged training corpus")
    p.add_argument("--order", type=int, default=3, help="n-gram order (default 3)")
    p.add_argument("--rare-threshold", type=int, default=10,
                   help="words rarer than this feed the suffix model (default 10)")
    p.add_argument("--max-suffix", type=int, default=10,
                   help="maximum suffix depth counted (default 10)")
    p.add_argument("--root-mode", choices=ROOT_MODES, default="ele",
                   help="unigram estimator: relative frequency or half-count (default ele)")
    p.add_argument("--smoothing", choices=SMOOTHING_MODES, default="sa",
                   help="transition estimator (default sa)")
    p.add_argument("--lambdas", default=None, metavar="A,B,C",
                   help="interpolation weights, one per order (interp only)")
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train, _parser=p)

    p = sub.add_parser("tag", help="tag plain sentences with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", default=None,
                   help="one sentence per line, space-separated (default stdin)")
    p.add_argument("--output", default=None, help="default stdout")
    p.set_defaults(func=cmd_tag, _parser=p)

    p = sub.add_parser("eval", help="tag a gold corpus and report error rates")
    p.add_argument("--model", required=True)
    p.add_argument("--gold", required=True, help="tagged reference corpus")
    p.add_argument("--format", choices=("table", "kv"), default="table")
    p.set_defaults(func=cmd_eval, _parser=p)

    p = sub.add_parser("compare", help="evaluate several models on one gold corpus")
    p.add_argument("--model", action="append", default=[], required=True,
                   help="model file; repeat for each system")
    p.add_argument("--gold", required=True)
    p.set_defaults(func=cmd_compare, _parser=p)

    p = sub.add_parser("synth", help="synthesize train and test corpora")
    p.add_argument("--tags", type=int, required=True, help="tag set size")
    p.add_argument("--vocab", type=int, required=True, help="vocabulary size")
    p.add_argument("--train-tokens", type=int, required=True)
    p.add_argument("--test-tokens", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--zipf-exponent", type=float, default=1.9,
                   help="word-frequency skew (default 1.9)")
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.add_argument("--spec-out", default=None,
                   help="write the generating distributions as JSON")
    p.set_defaults(func=cmd_synth, _parser=p)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 1
    except (SuccabsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
