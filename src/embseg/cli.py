"""Command-line pipeline: train, segment, eval, report."""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import shutil
import sys
import time
from contextlib import ExitStack, closing, contextmanager, nullcontext
from itertools import repeat, zip_longest
from typing import Callable, Iterator, TextIO

from .corpus import BOS, EOS, read_lines, read_segmented_corpus, read_token_lines
from .decoder import BeamParams, segment_sentence
from .evaluate import AlignmentError, check_aligned, score, word_improvement_report
from .lexicon import Lexicon
from .sampler import CTX_NEG, CTX_POS, INWORD_NEG, NOISE_NEG
from .simcache import SimilarityCache, build_cache, load_cache, save_cache
from .trainer import (
    TrainerConfig, _binary_copy_path, _save_binary_copy, load_embeddings, save_embeddings, train,
)

__all__ = ["main"]


def _add_train(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("train", help="train embeddings from a baseline-segmented corpus")
    p.add_argument("--corpus", required=True, help="baseline-segmented corpus, one sentence per line")
    p.add_argument("--dict", required=True, help="output dictionary file (word<TAB>count)")
    p.add_argument("--emb", required=True, help="output embedding text file")
    p.add_argument("--cache", help="output similarity cache file")
    p.add_argument("--no-cache", action="store_true", help="skip building the similarity cache")
    p.add_argument("--dim", type=int, default=TrainerConfig.dim)
    p.add_argument("--window", type=int, default=TrainerConfig.window)
    p.add_argument("--epsilon", type=float, default=TrainerConfig.epsilon)
    p.add_argument("--mu", type=float, default=TrainerConfig.mu)
    p.add_argument("--eta", type=float, default=TrainerConfig.eta)
    p.add_argument("--neg", type=int, default=TrainerConfig.n_noise,
                   help="noise negatives per target occurrence")
    p.add_argument("--epochs", type=int, default=TrainerConfig.epochs)
    p.add_argument("--seed", type=int, default=None, help="unset: time-seeded, echoed in the summary")
    p.add_argument("--dump-samples", help="write every training sample to this TSV file")
    p.set_defaults(func=cmd_train)


def _add_segment(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("segment", help="re-segment raw text with trained artifacts")
    p.add_argument("--input", required=True, help="raw text, one line per sentence")
    p.add_argument("--dict", required=True)
    p.add_argument("--emb", required=True)
    p.add_argument("--cache", help="similarity cache file to load; without it cosines are computed directly")
    p.add_argument("--baseline", help="baseline segmentation of the same lines (fallback tokens)")
    p.add_argument("--out", required=True)
    p.add_argument("--beam", type=int, default=BeamParams.beam_size)
    p.add_argument("--max-word-len", type=int, default=BeamParams.max_word_len)
    p.add_argument("--window", type=int, default=BeamParams.window)
    p.set_defaults(func=cmd_segment)


def _add_eval(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("eval", help="word precision/recall/F against a gold file")
    p.add_argument("--gold", required=True)
    p.add_argument("--input", required=True, help="predicted segmentation, line-aligned with --gold")
    p.set_defaults(func=cmd_eval)


def _add_report(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("report", help="per-word recall deltas of two systems against gold")
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


def _read_aligned(path: str, gold_path: str, gold: list[list[str]]) -> list[list[str]]:
    """The token lines of a system output, checked against the gold file."""
    lines = list(read_token_lines(path))
    try:
        check_aligned(gold, lines)
    except AlignmentError as exc:
        if exc.line is None:
            raise ValueError(f"{path} has {len(lines)} lines, {gold_path} has {len(gold)}") from None
        raise ValueError(f"{path}:{exc.line}: character streams differ from {gold_path}") from None
    return lines


def cmd_train(args: argparse.Namespace) -> int:
    if args.no_cache and args.cache is not None:
        raise ValueError("--cache and --no-cache contradict each other: pass one of them")
    if not args.no_cache and not args.cache:
        raise ValueError("train writes a cache file: pass --cache PATH or --no-cache")
    outputs = {"--dict": args.dict, "--emb": args.emb, _COPY: _copy_of(args.emb),
               "--cache": args.cache, "--dump-samples": args.dump_samples}
    _check_distinct({"--corpus": args.corpus}, outputs)
    seed = args.seed if args.seed is not None else time.time_ns() % (2**31)
    config = TrainerConfig(
        epsilon=args.epsilon, mu=args.mu, n_noise=args.neg, dim=args.dim,
        eta=args.eta, window=args.window, epochs=args.epochs,
        seed=seed,
    )
    t0 = time.perf_counter()
    # wall seconds per stage; "cache" stays None under --no-cache
    stage_s: dict[str, float | None] = dict.fromkeys(("read", "lexicon", "train", "save", "cache"))
    with ExitStack() as stack:
        # every output given is created before training and replaced only on success
        dict_tmp, emb_tmp, copy_tmp, cache_tmp, dump_tmp = (
            None if path is None else stack.enter_context(_replaced_on_success(path))
            for path in outputs.values()
        )
        dump = stack.enter_context(open(dump_tmp, "w", encoding="utf-8")) if dump_tmp else None
        lap = _lap_timer(stage_s)
        sentences = list(read_segmented_corpus(args.corpus))
        if not sentences:
            raise ValueError(f"{args.corpus}: no sentences")
        lap("read")
        lexicon = Lexicon.from_sentences(sentences)
        lap("lexicon")

        by_channel = dict.fromkeys((CTX_POS, CTX_NEG, INWORD_NEG, NOISE_NEG), 0)

        def sink(sample):  # noqa: ANN001 - trainer callback, run in train's calling process
            by_channel[sample.source] += 1
            if dump is not None:
                dump.write(
                    f"{lexicon.word_of(sample.target)}\t{lexicon.word_of(sample.other)}"
                    f"\t{sample.label}\t{sample.source}\t{sample.weight!r}\n"
                )

        try:
            emb = train(sentences, lexicon, config, sample_sink=sink)
        except ValueError as exc:
            raise ValueError(f"{args.corpus}: {exc}") from None
        lap("train")
        lexicon.save(dict_tmp)
        save_embeddings(emb_tmp, lexicon, emb)
        if copy_tmp:  # before the cache build, which sets the run's peak memory
            _save_binary_copy(copy_tmp, emb_tmp, lexicon, emb)
        lap("save")
        cache_entries = None
        if cache_tmp:
            cache = build_cache(sentences, lexicon, emb, window=args.window)
            save_cache(cache_tmp, cache)
            cache_entries = cache.entries
            lap("cache")
    summary = {
        "vocab_size": len(lexicon),
        "total_tokens": lexicon.total_tokens,
        "sentences": len(sentences),
        "samples": sum(by_channel.values()),
        "samples_by_channel": by_channel,
        "cache_entries": cache_entries,
        "seed": seed,
        "stage_s": stage_s,
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    print(json.dumps(summary, ensure_ascii=False))
    return 0


def _lap_timer(laps: dict[str, float | None]) -> Callable[[str], None]:
    """A function that stores under its argument the seconds since the
    previous call (the first: since this one), rounded down to the
    millisecond, so laps within one run sum to at most its rounded wall
    time."""
    last = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal last
        now = time.perf_counter()
        laps[name] = math.floor((now - last) * 1000) / 1000
        last = now

    return lap


# the label under which the same-path checks name --emb's binary copy
_COPY = "--emb's .bin copy"


def _copy_of(emb: str) -> str | None:
    """The path of the binary copy that `train` writes beside `emb` and
    `load_embeddings` reads; None where there is none: an empty path, or
    one that is not a regular file (a pipe, /dev/stdout)."""
    if not emb or (os.path.exists(emb) and not os.path.isfile(emb)):
        return None
    return _binary_copy_path(emb)


def _check_distinct(inputs: dict[str, str | None], outputs: dict[str, str | None]) -> None:
    """Fail when an output resolves to an input or to another output, so no
    command replaces what it reads or writes one file twice.  Inputs may
    share a file.  Absent and empty paths are skipped: an empty one is
    rejected where it is read or created."""
    first: dict[str, str] = {}  # resolved path -> the first flag naming it
    for flag, path in inputs.items():
        if path:
            first.setdefault(os.path.realpath(path), flag)
    for flag, path in outputs.items():
        if path:
            other = first.setdefault(os.path.realpath(path), flag)
            if other != flag:
                raise ValueError(f"{other} and {flag} name the same file: {path}")


def _load_artifacts(args: argparse.Namespace) -> tuple[Lexicon, SimilarityCache]:
    lexicon = Lexicon.load(args.dict)
    for marker in (BOS, EOS):
        if marker not in lexicon:
            raise ValueError(f"{args.dict}: no {marker} entry; re-run train")
    words, emb = load_embeddings(args.emb)
    if list(lexicon.words) != words:
        raise ValueError(
            f"{args.emb}: embedding rows do not match {args.dict} "
            "(different vocabulary or order); re-run train"
        )
    if args.cache is not None:
        return lexicon, load_cache(args.cache, emb)
    return lexicon, SimilarityCache(emb)


@contextmanager
def _replaced_on_success(path: str) -> Iterator[str]:
    """The path of a new file beside `path`, moved onto it when the block
    completes and removed when it fails, so `path` never holds a partial
    write.

    The file is created before the block runs, so an unwritable path fails
    first.  It gets the mode open(path, "w") would leave: that of the file
    it replaces, or the default for a new one.  An existing path that is
    not a regular file is written directly (/dev/stdout works), except a
    directory, which fails, and so does an empty path.
    """
    if not path:
        raise ValueError("empty output path")
    if os.path.exists(path) and not os.path.isfile(path):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        yield path
        return
    real = os.path.realpath(path)  # through a symlink, replace its target
    head, tail = os.path.split(real)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        open(tmp, "xb").close()  # exclusive: never truncates a file already there
    except OSError as exc:  # name the path asked for, not the temporary one
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        if os.path.exists(real):
            shutil.copymode(real, tmp)
        yield tmp
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise


@contextmanager
def _text_output(path: str) -> Iterator[TextIO]:
    """A UTF-8 text file that replaces `path` only on success."""
    with _replaced_on_success(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        yield fh


def _lines_in_step(path: str, base_path: str | None) -> Iterator[tuple[str, list[str] | None]]:
    """Each line of `path` with the tokens of the same line of `base_path`
    (None without one), both read a line at a time.  A line-count mismatch
    fails when the shorter file ends."""
    if base_path is None:
        yield from zip(read_lines(path), repeat(None))
        return
    pairs = zip_longest(read_lines(path), read_lines(base_path))
    for n, (line, base) in enumerate(pairs):  # n lines of each file read so far
        if line is None or base is None:
            longer = n + 1 + sum(1 for _ in pairs)
            n_input, n_base = (n, longer) if line is None else (longer, n)
            raise ValueError(f"{base_path} has {n_base} lines, {path} has {n_input}")
        yield line, base.split()


def cmd_segment(args: argparse.Namespace) -> int:
    params = BeamParams(beam_size=args.beam, max_word_len=args.max_word_len, window=args.window)
    inputs = {"--input": args.input, "--dict": args.dict, "--emb": args.emb,
              "--cache": args.cache, "--baseline": args.baseline}
    for flag, path in inputs.items():
        if path == "":  # never read as an absent --cache or --baseline
            raise ValueError(f"empty input path for {flag}")
    # --out may rewrite --input in place, as `sort -o` does: the decoded
    # lines spell the raw ones, and --out replaces its file only on success
    reads = {k: v for k, v in inputs.items() if k != "--input"}
    _check_distinct({**reads, _COPY: _copy_of(args.emb)}, {"--out": args.out})
    # the output is created before any input is read, so a bad --out fails first
    with _text_output(args.out) as fh, closing(_lines_in_step(args.input, args.baseline)) as pairs:
        lexicon, cache = _load_artifacts(args)
        for lineno, (line, base) in enumerate(pairs, start=1):
            try:
                out = segment_sentence(line, lexicon, cache, params, baseline_tokens=base)
            except ValueError as exc:
                if base is None:
                    raise
                raise ValueError(f"{args.baseline}:{lineno}: {exc}") from None
            fh.write(out + "\n")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    gold = list(read_token_lines(args.gold))
    pred = _read_aligned(args.input, args.gold, gold)
    report = score(gold, pred)
    print(f"{report.precision:.6f}\t{report.recall:.6f}\t{report.f_measure:.6f}")
    print(f"{report.n_gold}\t{report.n_pred}\t{report.n_correct}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    _check_distinct({"--gold": args.gold, "--baseline": args.baseline, "--input": args.input},
                    {"--out": args.out})
    with _text_output(args.out) if args.out is not None else nullcontext(sys.stdout) as out:
        gold = list(read_token_lines(args.gold))
        base = _read_aligned(args.baseline, args.gold, gold)
        new = _read_aligned(args.input, args.gold, gold)
        rows = word_improvement_report(gold, base, new, min_count=args.min_count)
        out.write("word\tgold_count\tprecision_baseline\tprecision_new\tdelta\n")
        for r in rows:
            out.write(
                f"{r.word}\t{r.gold_count}\t{r.precision_baseline:.6f}"
                f"\t{r.precision_new:.6f}\t{r.delta:.6f}\n"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, MemoryError, RuntimeError, FloatingPointError) as exc:
        # RuntimeError: a training worker that died; FloatingPointError: a
        # table that training left non-finite
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
