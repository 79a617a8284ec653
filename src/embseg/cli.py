"""Command-line pipeline: train, segment, eval, report."""
from __future__ import annotations

import argparse
import json
import sys
import time

from .corpus import read_segmented_corpus
from .decoder import BeamParams, segment_sentence
from .evaluate import score, word_improvement_report
from .lexicon import Lexicon
from .simcache import SimilarityCache, build_cache, load_cache, save_cache
from .trainer import TrainerConfig, load_embeddings, save_embeddings, train

__all__ = ["main"]


def _add_train(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("train", help="train embeddings from a baseline-segmented corpus")
    p.add_argument("--corpus", required=True, help="baseline-segmented corpus, one sentence per line")
    p.add_argument("--dict", required=True, help="output dictionary file (word<TAB>count)")
    p.add_argument("--emb", required=True, help="output embedding text file")
    p.add_argument("--cache", help="output similarity cache file")
    p.add_argument("--no-cache", action="store_true", help="skip building the similarity cache")
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=0.2)
    p.add_argument("--neg", type=int, default=1, help="noise negatives per target occurrence")
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="unset: time-seeded, echoed in the summary")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--dump-samples", help="write every training sample to this TSV file")
    p.set_defaults(func=cmd_train)


def _add_segment(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("segment", help="re-segment raw text with trained artifacts")
    p.add_argument("--input", required=True, help="raw text, one line per sentence")
    p.add_argument("--dict", required=True)
    p.add_argument("--emb", required=True)
    p.add_argument("--cache", help="similarity cache file to load")
    p.add_argument("--no-cache", action="store_true", help="ignore --cache and compute cosines directly")
    p.add_argument("--baseline", help="baseline segmentation of the same lines (fallback tokens)")
    p.add_argument("--out", required=True)
    p.add_argument("--beam", type=int, default=10)
    p.add_argument("--max-word-len", type=int, default=5)
    p.add_argument("--window", type=int, default=4)
    p.set_defaults(func=cmd_segment)


def _add_eval(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("eval", help="word precision/recall/F against a gold file")
    p.add_argument("--gold", required=True)
    p.add_argument("--input", required=True, help="predicted segmentation, line-aligned with --gold")
    p.set_defaults(func=cmd_eval)


def _add_report(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("report", help="per-word precision deltas of two systems against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--baseline", required=True, help="baseline system output")
    p.add_argument("--input", required=True, help="new system output")
    p.add_argument("--min-count", type=int, default=10)
    p.add_argument("--out", help="write TSV here instead of stdout")
    p.set_defaults(func=cmd_report)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embseg",
        description="Adapt a word segmenter to a new domain: train embeddings "
        "on its output, then re-segment by embedding coherence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_train(sub)
    _add_segment(sub)
    _add_eval(sub)
    _add_report(sub)
    return parser


def _read_lines(path: str) -> list[str]:
    """Every line of a text file, newline stripped, blank lines preserved."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: invalid UTF-8: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _read_token_lines(path: str) -> list[list[str]]:
    return [line.split() for line in _read_lines(path)]


def cmd_train(args: argparse.Namespace) -> int:
    if not args.no_cache and not args.cache:
        raise ValueError("train writes a cache file: pass --cache PATH or --no-cache")
    if args.dump_samples and args.threads > 1:
        raise ValueError("--dump-samples records samples from one thread only: pass --threads 1")
    seed = args.seed if args.seed is not None else time.time_ns() % (2**31)
    config = TrainerConfig(
        epsilon=args.epsilon, mu=args.mu, n_noise=args.neg, dim=args.dim,
        eta=args.eta, window=args.window, epochs=args.epochs,
        seed=seed, threads=args.threads,
    )
    t0 = time.perf_counter()
    sentences = list(read_segmented_corpus(args.corpus))
    if not sentences:
        raise ValueError(f"{args.corpus}: no sentences")
    lexicon = Lexicon.from_sentences(sentences)

    n_samples = 0
    sink = None
    dump_fh = None
    if args.dump_samples:
        dump_fh = open(args.dump_samples, "w", encoding="utf-8")

        def sink(sample):  # noqa: ANN001 - trainer callback
            nonlocal n_samples
            n_samples += 1
            dump_fh.write(
                f"{lexicon.word_of(sample.target)}\t{lexicon.word_of(sample.other)}"
                f"\t{sample.label}\t{sample.source}\t{sample.weight!r}\n"
            )
    else:
        def sink(sample):  # noqa: ANN001
            nonlocal n_samples
            n_samples += 1

    try:
        emb = train(sentences, lexicon, config, sample_sink=sink if config.threads == 1 else None)
    finally:
        if dump_fh is not None:
            dump_fh.close()

    lexicon.save(args.dict)
    save_embeddings(args.emb, lexicon, emb)
    cache_entries = None
    if not args.no_cache:
        cache = build_cache(sentences, lexicon, emb, window=args.window)
        save_cache(args.cache, cache)
        cache_entries = len(cache.table)
    summary = {
        "vocab_size": len(lexicon),
        "total_tokens": lexicon.total_tokens,
        "sentences": len(sentences),
        "samples": n_samples if config.threads == 1 else None,
        "cache_entries": cache_entries,
        "seed": seed,
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    print(json.dumps(summary, ensure_ascii=False))
    return 0


def _load_artifacts(args: argparse.Namespace) -> tuple[Lexicon, SimilarityCache]:
    lexicon = Lexicon.load(args.dict)
    words, emb = load_embeddings(args.emb)
    if list(lexicon.words) != words:
        raise ValueError(
            f"{args.emb}: embedding rows do not match {args.dict} "
            "(different vocabulary or order); re-run train"
        )
    if args.cache and not args.no_cache:
        return lexicon, load_cache(args.cache, emb)
    return lexicon, SimilarityCache(emb)


def cmd_segment(args: argparse.Namespace) -> int:
    lexicon, cache = _load_artifacts(args)
    params = BeamParams(beam_size=args.beam, max_word_len=args.max_word_len)
    lines = _read_lines(args.input)
    baselines: list[list[str] | None] = [None] * len(lines)
    if args.baseline:
        baselines = _read_token_lines(args.baseline)
        if len(baselines) != len(lines):
            raise ValueError(
                f"--baseline has {len(baselines)} lines, --input has {len(lines)}"
            )

    out_lines = [
        segment_sentence(line, lexicon, cache, params, window=args.window, baseline_tokens=base)
        for line, base in zip(lines, baselines)
    ]
    with open(args.out, "w", encoding="utf-8") as fh:
        for line in out_lines:
            fh.write(line + "\n")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    gold = _read_token_lines(args.gold)
    pred = _read_token_lines(args.input)
    report = score(gold, pred)
    print(f"{report.precision:.6f}\t{report.recall:.6f}\t{report.f_measure:.6f}")
    print(f"{report.n_gold}\t{report.n_pred}\t{report.n_correct}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    gold = _read_token_lines(args.gold)
    base = _read_token_lines(args.baseline)
    new = _read_token_lines(args.input)
    rows = word_improvement_report(gold, base, new, min_count=args.min_count)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        out.write("word\tgold_count\tprecision_baseline\tprecision_new\tdelta\n")
        for r in rows:
            out.write(
                f"{r.word}\t{r.gold_count}\t{r.precision_baseline:.6f}"
                f"\t{r.precision_new:.6f}\t{r.delta:.6f}\n"
            )
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
