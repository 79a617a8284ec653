#!/usr/bin/env python3
"""Benchmark of the embseg train -> segment pipeline.

    python3 bench/run.py --workload toy-decode --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload's inputs are generated from
--seed and written as files under bench/out/; the program reads only
those.  One process, one thread: numpy's BLAS is pinned to one thread
through this process's environment before numpy is imported.

The run repeats rounds until --seconds have been measured (at least
three).  A round is one `embseg train` through embseg.cli.main, repeated
loads of the trained artifacts (set-up) and the workload's number of
decoding passes over its lines.  Counts and outputs must repeat exactly
from round to round and from pass to pass.

Each time is the median over the run's repeats, taken at a reference
host speed: on a shared host the machine's speed changes by up to 2x
from one second to the next, in spells that can outlast a whole run.  A
fixed loop that does not call embseg (host_probe_ms) is timed before and
after each train and set-up, every PROBE_INTERVAL seconds during a train
(from an interval timer; the probes' own time is left out) and, during
a pass, between two lines once PROBE_INTERVAL seconds have gone by since
the last probe.  Each stretch of train time is multiplied by PROBE_REF_MS
over the mean of the probe times at its two ends, a set-up by the mean
of the probes around it and a line by the last probe before it.  The
raw medians and every probe time are kept in the run record.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
runs two plain rounds, then hooks embseg's public functions and reports
the per-layer metrics, with the tracing overhead against the plain rounds.

Every decoded line is checked, and so is each round's output against the
first round's.  Two further checks run once per run: the CLI's `segment`
must write the same bytes as the library path on the first lines, and
decoding without the cache must match decoding with it.  A failed check
makes the run print "correct": false and exit 1.  The last line of stdout
is the result object.
The full result, with a record of the machine, is written to
bench/out/<workload>-seed<seed>-trace<t>.json.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import itertools
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import embseg
    import embseg.cli
    import embseg.decoder
    import embseg.trainer
except ImportError as exc:
    print(f"error: cannot import embseg from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

import numpy as np

import workloads
from spans import Tracer

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
SETUP_SECONDS = 0.2       # set-up repeats per round: at least 2, until this much time
TAIL_LINES = 10           # lines the tail percentile must leave above it
MICRO_PAIRS = 4096        # id pairs per set in the cosine lookup timing
CLI_LINES = 300           # lines `embseg segment` decodes in the CLI check
PROBE_REF_MS = 0.6        # host_probe_ms at the reference host speed
PROBE_INTERVAL = 0.05     # seconds between two host probes during a train or pass


@dataclass
class Files:
    corpus: str
    raw: str
    baseline: str
    dict: str
    emb: str
    cache: str
    cli_out: str


@dataclass
class Round:
    train_s: float = 0.0             # wall time less the probes taken inside
    train_at_ref: float = 0.0
    summary: dict = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    line_ns: list[list[int]] = field(default_factory=list)  # per pass, per line
    tokens: int = 0
    probe_ms: list[float] = field(default_factory=list)   # before train, after it, after set-up
    pass_probe_ms: list[list[float]] = field(default_factory=list)   # per pass, the probes
    pass_probe_line: list[list[int]] = field(default_factory=list)   # and the line after each
    train_probe_ms: list[float] = field(default_factory=list)  # the timer's, during the train
    counts: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    roots: dict = field(default_factory=dict)      # traced: phase -> root span indices


class TimerProbe:
    """host_probe_ms every PROBE_INTERVAL seconds while `running`, from a
    SIGALRM interval timer, as (start_ns, end_ns, ms)."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, int, float]] = []
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter_ns()
            ms = host_probe_ms()
            self.samples.append((t0, time.perf_counter_ns(), ms))
        finally:
            self._busy = False

    @contextmanager
    def running(self):
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        try:
            yield self.samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class Bench:
    def __init__(self, wl: workloads.Workload, files: Files, seed: int):
        self.wl = wl
        self.files = files
        self.seed = seed
        self.raw = wl.raw
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.tracer: Tracer | None = None
        self.timer: TimerProbe | None = None   # probes during trains, untraced runs only
        self.outputs: list[str] | None = None
        self.emb: np.ndarray | None = None
        self.lexicon: embseg.Lexicon | None = None
        self.cache: embseg.SimilarityCache | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 50:
            self.errors.append(message)

    @contextmanager
    def span(self, name: str, phase: Round | None = None):
        if self.tracer is None:
            yield
            return
        idx = self.tracer.begin(name)
        try:
            yield
        finally:
            self.tracer.end(idx)
            if phase is not None:
                phase.roots.setdefault(name, []).append(idx)

    # -- the three phases of a round ---------------------------------------

    def train(self, rnd: Round) -> None:
        f = self.files
        argv = ["train", "--corpus", f.corpus, "--dict", f.dict, "--emb", f.emb,
                "--cache", f.cache, "--seed", str(self.seed)]
        out = io.StringIO()
        self.attempted += 1
        self.lexicon = self.cache = self.emb = None   # only what train itself holds
        rnd.probe_ms.append(host_probe_ms())
        with self.span("cli.train", rnd), (self.timer.running() if self.timer
                                           else nullcontext([])) as inside:
            t0 = time.perf_counter_ns()
            with redirect_stdout(out):
                code = embseg.cli.main(argv)
            t1 = time.perf_counter_ns()
        rnd.probe_ms.append(host_probe_ms())
        inside = [p for p in inside if t0 <= p[0] and p[1] <= t1]
        rnd.train_probe_ms = [ms for _, _, ms in inside]
        rnd.train_s = (t1 - t0 - sum(end - start for start, end, _ in inside)) / 1e9
        rnd.train_at_ref = stretches_at_ref(t0, t1, rnd.probe_ms[-2], inside, rnd.probe_ms[-1])
        if code != 0:
            self.fail(f"embseg train exited with {code}")
            raise RuntimeError("training failed")
        rnd.summary = json.loads(out.getvalue().strip().splitlines()[-1])
        digest = hashlib.blake2b()
        for path in (f.dict, f.emb, f.cache):
            digest.update(Path(path).read_bytes())
        rnd.counts["train.samples"] = rnd.summary.get("samples")
        rnd.counts["train.cache_entries"] = rnd.summary.get("cache_entries")
        rnd.counts["train.artifacts"] = digest.hexdigest()

    def setup(self, rnd: Round) -> None:
        while len(rnd.setup_s) < 2 or (sum(rnd.setup_s) < SETUP_SECONDS and len(rnd.setup_s) < 100):
            self.lexicon = self.cache = self.emb = None
            with self.span("setup", rnd):
                t0 = time.perf_counter()
                self.lexicon = embseg.Lexicon.load(self.files.dict)
                _, self.emb = embseg.load_embeddings(self.files.emb)
                self.cache = embseg.load_cache(self.files.cache, self.emb)
                rnd.setup_s.append(time.perf_counter() - t0)

    def decode(self, rnd: Round) -> None:
        wl, lexicon, cache = self.wl, self.lexicon, self.cache
        n = len(self.raw)
        outs: list[str] = [""] * n
        line_ns = [0] * n
        line_fallbacks = [0] * n
        counters: dict = {}
        raised: dict[int, str] = {}
        hits0, misses0 = cache.hits, cache.misses
        segment = embseg.segment_sentence
        clock = time.perf_counter_ns
        probes: list[float] = []
        probe_line: list[int] = []
        gap = int(PROBE_INTERVAL * 1e9)
        next_probe = 0
        with self.span("decode.pass", rnd):
            for i, line in enumerate(self.raw):
                if clock() >= next_probe:
                    probes.append(host_probe_ms())
                    probe_line.append(i)
                    next_probe = clock() + gap
                before = counters.get("fallbacks", 0)
                t0 = clock()
                try:
                    outs[i] = segment(line, lexicon, cache, baseline_tokens=wl.baseline[i],
                                      counters=counters)
                except Exception as exc:  # one bad line must not end the run
                    raised[i] = f"{type(exc).__name__}: {exc}"
                line_ns[i] = clock() - t0
                line_fallbacks[i] = counters.get("fallbacks", 0) - before
        rnd.line_ns.append(line_ns)
        rnd.pass_probe_ms.append(probes)
        rnd.pass_probe_line.append(probe_line)
        rnd.pass_s.append(sum(line_ns) / 1e9)
        rnd.tokens = sum(len(out.split()) for out in outs)
        self.attempted += n
        for i, out in enumerate(outs):
            problem = raised.get(i) or check_line(self.raw[i], out, wl.baseline[i], lexicon,
                                                  line_fallbacks[i])
            if problem:
                self.fail(f"line {i + 1}: {problem}")
        counts = {
            "decode.output": hashlib.blake2b("\n".join(outs).encode()).hexdigest(),
            "decode.fragments": counters.get("fragments"),
            "decode.fallbacks": counters.get("fallbacks"),
            "simcache.hits": cache.hits - hits0,
            "simcache.misses": cache.misses - misses0,
        }
        pred = [out.split() for out in outs]
        try:
            f_measure = embseg.score(wl.gold, pred).f_measure
            rows = embseg.word_improvement_report(wl.gold, wl.baseline, pred, min_count=1)
        except embseg.AlignmentError as exc:
            self.fail(f"scoring: {exc}")
            return
        split_targets = set(wl.split_targets)
        targets = [r for r in rows if r.word in split_targets]
        n_gold = sum(r.gold_count for r in targets)
        quality = {
            "f_measure": f_measure,
            "split_precision": sum(r.precision_new * r.gold_count for r in targets) / n_gold,
        }
        counts.update({f"quality.{k}": v for k, v in quality.items()})
        if len(rnd.line_ns) == 1:
            rnd.quality = quality
            rnd.counts.update(counts)
        else:
            for key, value in counts.items():
                if rnd.counts.get(key) != value:
                    self.fail(f"determinism: {key} is {value!r} in pass {len(rnd.line_ns)}, "
                              f"{rnd.counts.get(key)!r} in pass 1")
        if self.outputs is None:
            self.outputs = outs

    def round(self, passes: int = 1) -> Round:
        rnd = Round()
        self.train(rnd)
        self.setup(rnd)
        rnd.probe_ms.append(host_probe_ms())
        for _ in range(passes):
            self.decode(rnd)
        return rnd

    def rounds(self, seconds: float, minimum: int) -> list[Round]:
        done: list[Round] = []
        t0 = time.perf_counter()
        while True:
            done.append(self.round(self.wl.passes))
            elapsed = time.perf_counter() - t0
            if len(done) >= minimum and elapsed * (len(done) + 1) / len(done) > seconds:
                return done

    # -- once per run -------------------------------------------------------

    def check_uncached(self) -> None:
        """Decoding without the cache must match decoding with it."""
        plain = embseg.SimilarityCache(self.emb)
        self.attempted += 1
        for i in self.wl.check_lines:
            out = embseg.segment_sentence(self.raw[i], self.lexicon, plain,
                                          baseline_tokens=self.wl.baseline[i])
            if out != self.outputs[i]:
                self.fail(f"line {i + 1}: uncached decode differs from cached decode")
                return

    def check_cli(self) -> None:
        """`embseg segment` on the first CLI_LINES lines must write the library
        path's output byte for byte."""
        f = self.files
        argv = ["segment", "--input", f.raw, "--dict", f.dict, "--emb", f.emb,
                "--cache", f.cache, "--baseline", f.baseline, "--out", f.cli_out]
        self.attempted += 1
        with self.span("cli.segment"):
            code = embseg.cli.main(argv)
        expected = "".join(out + "\n" for out in self.outputs[:CLI_LINES]).encode("utf-8")
        if code != 0:
            self.fail(f"embseg segment exited with {code}")
        elif Path(f.cli_out).read_bytes() != expected:
            self.fail("embseg segment output differs from the library path")

    def check_repeats(self, rounds: list[Round]) -> None:
        """Counts, artifacts, outputs and quality must repeat exactly."""
        first = rounds[0].counts
        for k, rnd in enumerate(rounds[1:], start=2):
            for key, value in first.items():
                if key in rnd.counts and rnd.counts[key] != value:
                    self.fail(f"determinism: {key} is {rnd.counts[key]!r} in round {k}, "
                              f"{value!r} in round 1")


PROBE_WORDS = ["".join(chr(0x4E00 + (i * k) % 997) for k in (3, 5, 7)[:1 + i % 3])
               for i in range(600)]
PROBE_VEC = np.linspace(0.1, 1.0, 50)


def host_probe_ms() -> float:
    """Milliseconds of a fixed loop of the kinds of work embseg does (dict
    and string operations, small numpy products), none of it embseg's:
    how fast the machine runs at this moment."""
    t0 = time.perf_counter_ns()
    seen: dict[str, int] = {}
    acc = 0.0
    for _ in range(4):
        for word in PROBE_WORDS:
            seen[word[:2]] = seen.get(word[:2], 0) + len(word)
    for _ in range(150):
        acc += float(PROBE_VEC @ PROBE_VEC)
    return (time.perf_counter_ns() - t0) / 1e6


def check_line(raw: str, out: str, base_tokens: list[str], lexicon, fallbacks: int) -> str | None:
    """Problems with one decoded line, or None.

    Removing the separators gives back the raw line; every fragment is
    either all dictionary words or exactly the baseline's tokens for it,
    and the latter happens at most `fallbacks` times.
    """
    if out.replace(" ", "").encode("utf-8") != raw.encode("utf-8"):
        return "separators removed do not give back the raw line"
    frags = [list(run) for word, run in
             itertools.groupby(out.split(" "), key=lambda t: embseg.is_word_char(t[0])) if word]
    base = carve(base_tokens, ["".join(f) for f in frags])
    fell_back = 0
    for words, base_words in zip(frags, base):
        if all(w in lexicon for w in words):
            continue
        if words != base_words:
            return f"fragment {''.join(words)!r}: words outside the dictionary, not the baseline's"
        fell_back += 1
    if fell_back > fallbacks:
        return f"{fell_back} fragments fell back, the decoder counted {fallbacks}"
    return None


def carve(tokens: list[str], frags: list[str]) -> list[list[str]]:
    """Baseline tokens cut along fragment boundaries, delimiters dropped."""
    words = [w for w in ("".join(c for c in t if embseg.is_word_char(c)) for t in tokens) if w]
    ends = list(itertools.accumulate(len(f) for f in frags))
    out: list[list[str]] = [[] for _ in frags]
    pos = k = 0
    for w in words:
        while w and k < len(ends):
            piece, w = w[:ends[k] - pos], w[ends[k] - pos:]
            out[k].append(piece)
            pos += len(piece)
            if pos == ends[k]:
                k += 1
    return out


# -- metrics -----------------------------------------------------------------

def tail_percentile(n: int) -> float:
    """The highest percentile, at most 99, with TAIL_LINES lines above it."""
    return min(99.0, 100.0 * (1.0 - TAIL_LINES / n))


def at_ref(seconds, probe_ms):
    """A time taken while host_probe_ms read probe_ms, at the reference speed."""
    return seconds * PROBE_REF_MS / probe_ms


def stretches_at_ref(t0: int, t1: int, before: float, inside: list[tuple[int, int, float]],
                     after: float) -> float:
    """Seconds from t0 to t1 (ns) at the reference speed, less the probes
    taken inside; the probes before and after bound the first and last
    stretch."""
    total, start, left = 0.0, t0, before
    for p0, p1, ms in inside:
        total += at_ref((p0 - start) / 1e9, (left + ms) / 2)
        start, left = p1, ms
    return total + at_ref((t1 - start) / 1e9, (left + after) / 2)


def end_to_end(rounds: list[Round]) -> tuple[dict, dict]:
    """Medians over the run's repeats at the reference host speed; each
    line's latency is its median over the passes."""
    passes = [at_ref(np.array(ns, dtype=np.float64),
                     np.repeat(probes, np.diff([*starts, len(ns)])))
              for r in rounds
              for ns, probes, starts in zip(r.line_ns, r.pass_probe_ms, r.pass_probe_line)]
    per_line = np.median(passes, axis=0) / 1e6
    q = tail_percentile(len(per_line))
    tokens = rounds[0].tokens
    setups = [(s, (r.probe_ms[1] + r.probe_ms[2]) / 2) for r in rounds for s in r.setup_s]
    metrics = {
        "train_s": statistics.median(r.train_at_ref for r in rounds),
        "setup_s": statistics.median(at_ref(s, probe) for s, probe in setups),
        "segment_tokens_per_s": statistics.median(tokens / (ns.sum() / 1e9) for ns in passes),
        "line_ms_p50": float(np.percentile(per_line, 50)),
        "line_ms_p99": float(np.percentile(per_line, q)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **rounds[0].quality,
    }
    raw_line = np.median(np.array([ns for r in rounds for ns in r.line_ns], dtype=np.float64),
                         axis=0) / 1e6
    probes = [p for r in rounds
              for p in [*r.probe_ms, *r.train_probe_ms, *itertools.chain(*r.pass_probe_ms)]]
    info = {
        "lines": len(per_line),
        "line_ms_p99_percentile": q,
        "tokens_per_pass": tokens,
        "passes": len(passes),
        "setups": len(setups),
        "probe_ref_ms": PROBE_REF_MS,
        "probe_ms_median": statistics.median(probes),
        "probes": len(probes),
        "raw_medians": {
            "train_s": statistics.median(r.train_s for r in rounds),
            "setup_s": statistics.median(s for s, _ in setups),
            "segment_tokens_per_s": statistics.median(tokens / s for r in rounds for s in r.pass_s),
            "line_ms_p50": float(np.percentile(raw_line, 50)),
            "line_ms_p99": float(np.percentile(raw_line, q)),
        },
        "train_s_each": [r.train_s for r in rounds],
        "decode_s_each": [s for r in rounds for s in r.pass_s],
        "probe_ms_each": [{"around": r.probe_ms, "train": r.train_probe_ms,
                           "passes": r.pass_probe_ms} for r in rounds],
    }
    return metrics, info


class LayerProbe:
    """Hooks and the tallies they keep for the traced run."""

    def __init__(self, tracer: Tracer, cache_path: str):
        self.tracer = tracer
        self.cache_path = cache_path
        self.channels: dict[str, int] = {}
        self.batches = 0
        self.override_words: int | None = None
        self.beam: list[tuple[int, int, bool]] = []   # (span, chars, returned None)
        self._last_positive = False

    def install(self) -> None:
        tr, cli, trainer, decoder = self.tracer, embseg.cli, embseg.trainer, embseg.decoder
        tr.hook(cli, "read_segmented_corpus", "corpus.read", consume=True)
        tr.hook(embseg.Lexicon, "from_sentences", "lexicon.build")
        tr.hook(trainer, "SubsampleTable", "lexicon.subsample", on_return=self._subsample)
        tr.hook(trainer, "build_occurrence_batch", "sampler.batch")
        tr.hook(cli, "train", "trainer.train", on_call=self._tally_samples)
        tr.hook(cli, "save_embeddings", "trainer.save")
        tr.hook(cli, "build_cache", "simcache.build")
        tr.hook(cli, "save_cache", "simcache.save")
        tr.hook(embseg.Lexicon, "load", "lexicon.load")
        for owner in (cli, embseg):
            tr.hook(owner, "load_embeddings", "trainer.load")
            tr.hook(owner, "load_cache", "simcache.load")
            tr.hook(owner, "segment_sentence", "decoder.line")
        tr.hook(decoder, "beam_search", "decoder.beam", on_return=self._beam)
        tr.hook(decoder, "split_fragments", "corpus.split")

    def reset(self) -> None:
        self.channels = {}
        self.batches = 0
        self._last_positive = False

    def _subsample(self, idx, args, kwargs, table) -> None:
        keep = getattr(table, "keep_override", None)
        self.override_words = None if keep is None else int(np.count_nonzero(keep))

    def _tally_samples(self, args, kwargs):
        inner = kwargs.get("sample_sink")
        if inner is None:
            return args, kwargs
        channels = self.channels

        def sink(sample):
            # a batch lists its positives first and ends with at least one
            # negative, so a positive after a negative opens the next batch
            positive = sample.label == embseg.sampler.POSITIVE
            if positive and not self._last_positive:
                self.batches += 1
            self._last_positive = positive
            channels[sample.source] = channels.get(sample.source, 0) + 1
            inner(sample)

        return args, {**kwargs, "sample_sink": sink}

    def _beam(self, idx, args, kwargs, result) -> None:
        fragment = args[0] if args else kwargs.get("fragment", "")
        self.beam.append((idx, len(fragment), result is None))

    def round_metrics(self, rnd: Round, n_lines: int) -> dict:
        """Per-layer values of one traced round; None where unavailable."""
        tr = self.tracer
        train_root = set(rnd.roots["cli.train"])
        pass_root = set(rnd.roots["decode.pass"])

        def total(name: str, roots: set[int]) -> float | None:
            d = tr.durations(name, roots)
            return sum(d) if d else None

        def median_per_setup(name: str) -> float | None:
            d = [sum(tr.durations(name, {r})) for r in rnd.roots["setup"]]
            return statistics.median(d) if all(d) else None

        pairs = sum(self.channels.values()) or None
        batch = tr.durations("sampler.batch", train_root)
        train_spans = [i for i, s in enumerate(tr.spans) if s[0] == "trainer.train" and s[4] in train_root]
        beam = [(tr.spans[i][2] - tr.spans[i][1], chars, failed)
                for i, chars, failed in self.beam if tr.spans[i][4] in pass_root]
        beam_ns = sum(ns for ns, _, _ in beam)
        fragments = rnd.counts.get("decode.fragments")
        fallbacks = rnd.counts.get("decode.fallbacks")
        lookups = rnd.counts["simcache.hits"] + rnd.counts["simcache.misses"]
        split = total("corpus.split", pass_root)
        positions = rnd.summary.get("total_tokens")
        entries = rnd.summary.get("cache_entries")
        m = {
            "corpus.read_s": total("corpus.read", train_root),
            "corpus.split_us_per_line": None if split is None else split / n_lines * 1e6,
            "lexicon.build_s": total("lexicon.build", train_root),
            "lexicon.subsample_s": total("lexicon.subsample", train_root),
            "lexicon.load_s": median_per_setup("lexicon.load"),
            "lexicon.override_words": self.override_words,
            "sampler.batches": self.batches or None,
            "sampler.pairs": pairs,
            "sampler.keep_rate": self.batches / positions if self.batches and positions else None,
            "sampler.batch_us": statistics.fmean(batch) * 1e6 if batch else None,
            "trainer.train_s": total("trainer.train", train_root),
            "trainer.us_per_pair": (tr.self_time(train_spans[0]) / pairs * 1e6
                                    if pairs and train_spans else None),
            "trainer.save_s": total("trainer.save", train_root),
            "trainer.load_s": median_per_setup("trainer.load"),
            "simcache.build_s": total("simcache.build", train_root),
            "simcache.save_s": total("simcache.save", train_root),
            "simcache.load_s": median_per_setup("simcache.load"),
            "simcache.entries": entries,
            "simcache.file_mb": os.path.getsize(self.cache_path) / 2**20,
            "simcache.lookups": lookups,
            "simcache.hit_rate": rnd.counts["simcache.hits"] / lookups if lookups else None,
            "decoder.beam_calls": len(beam) or None,
            "decoder.growth_rounds": len(beam) - fragments if beam and fragments is not None else None,
            "decoder.fallbacks": fallbacks,
            "decoder.fallback_ratio": fallbacks / fragments if fragments else None,
            "decoder.us_per_char": beam_ns / 1e3 / sum(c for _, c, _ in beam) if beam else None,
            "decoder.failed_search_share": (sum(ns for ns, _, failed in beam if failed) / beam_ns
                                            if beam_ns else None),
            "cli.train_overhead_s": tr.self_time(rnd.roots["cli.train"][0]),
        }
        for source in ("ctx_pos", "ctx_neg", "inword_neg", "noise_neg"):
            m[f"sampler.pairs_{source}"] = self.channels.get(source)
        return m


COUNT_LAYER_METRICS = (
    "lexicon.override_words", "sampler.batches", "sampler.pairs", "sampler.pairs_ctx_pos",
    "sampler.pairs_ctx_neg", "sampler.pairs_inword_neg", "sampler.pairs_noise_neg",
    "simcache.entries", "simcache.lookups", "decoder.beam_calls", "decoder.growth_rounds",
    "decoder.fallbacks",
)


def lookup_ns(bench: Bench) -> dict:
    """ns per SimilarityCache.similarity call over fixed hit and miss pair sets.

    Candidates are the window pairs of the first training sentences and
    seeded random pairs; the cache's own hit and miss counters sort them.
    """
    lexicon, cache = bench.lexicon, bench.cache
    candidates: list[tuple[int, int]] = []
    for sent in bench.wl.train[:300]:
        ids = [lexicon.id_of(t) for t in embseg.add_boundary_markers(sent)]
        candidates += [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:i + 5] if a != b]
    rng = np.random.default_rng([bench.seed, 4])
    v = len(lexicon)
    candidates += [(int(a), int(b)) for a, b in rng.integers(v, size=(4 * MICRO_PAIRS, 2)) if a != b]
    sets: dict[str, list[tuple[int, int]]] = {"hit": [], "miss": []}
    for a, b in dict.fromkeys(candidates):
        hits = cache.hits
        cache.similarity(a, b)
        kind = "hit" if cache.hits > hits else "miss"
        if len(sets[kind]) < MICRO_PAIRS:
            sets[kind].append((a, b))
    out = {}
    for kind, pairs in sets.items():
        if not pairs:
            continue
        sim = cache.similarity
        samples = []
        for _ in range(7):
            t0 = time.perf_counter_ns()
            for a, b in pairs:
                sim(a, b)
            samples.append((time.perf_counter_ns() - t0) / len(pairs))
        out[f"simcache.{kind}_ns"] = statistics.median(samples)
    return out


def load_peak_mb(bench: Bench) -> float:
    """Peak traced allocation inside one load_cache call, in MiB."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cache = embseg.load_cache(bench.files.cache, bench.emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del cache
    return peak / 2**20


def run_plain(bench: Bench, seconds: float) -> tuple[dict, dict, list[Round]]:
    bench.timer = TimerProbe()
    try:
        rounds = bench.rounds(seconds, MIN_ROUNDS)
    finally:
        bench.timer = None
    bench.check_repeats(rounds)
    bench.check_uncached()
    bench.lexicon = bench.cache = bench.emb = None   # the CLI loads its own copy
    bench.check_cli()
    metrics, info = end_to_end(rounds)
    return metrics, info, rounds


def run_traced(bench: Bench, seconds: float) -> tuple[dict, dict, list[Round]]:
    t0 = time.perf_counter()
    plain = [bench.round() for _ in range(MIN_TRACED_ROUNDS)]
    tracer = Tracer()
    probe = LayerProbe(tracer, bench.files.cache)
    bench.tracer = tracer
    probe.install()
    try:
        per_round = []
        rounds = []
        t1 = time.perf_counter()
        while True:
            probe.reset()
            rnd = bench.round()
            rounds.append(rnd)
            per_round.append(probe.round_metrics(rnd, len(bench.raw)))
            now = time.perf_counter()
            if (len(rounds) >= MIN_TRACED_ROUNDS
                    and now - t0 + (now - t1) / len(rounds) > seconds):
                break
        bench.check_repeats([*plain, *rounds])
        for k, later in enumerate(per_round[1:], start=2):
            for name in COUNT_LAYER_METRICS:
                if later[name] != per_round[0][name]:
                    bench.fail(f"determinism: {name} is {later[name]!r} in traced round {k}, "
                               f"{per_round[0][name]!r} in traced round 1")
        metrics = {}
        for name in per_round[0]:
            values = [m[name] for m in per_round]
            metrics[name] = None if None in values else (
                values[0] if name in COUNT_LAYER_METRICS else statistics.median(values))
        metrics["evaluate.split_precision"] = plain[0].quality.get("split_precision")
        metrics.update(lookup_ns(bench))
        metrics["simcache.load_peak_mb"] = load_peak_mb(bench)
        bench.check_uncached()
        bench.lexicon = bench.cache = bench.emb = None
        bench.check_cli()
        segment_roots = [i for i, s in enumerate(tracer.spans) if s[0] == "cli.segment"]
        metrics["cli.segment_overhead_s"] = tracer.self_time(segment_roots[0])
        metrics["trace.overhead_train"] = (statistics.median(r.train_s for r in rounds)
                                           / statistics.median(r.train_s for r in plain))
        metrics["trace.overhead_decode"] = (statistics.median(r.pass_s[0] for r in rounds)
                                            / statistics.median(r.pass_s[0] for r in plain))
    finally:
        tracer.restore()
        bench.tracer = None
    info = {
        "traced_rounds": len(rounds),
        "spans": len(tracer.spans),
        "missing_hooks": tracer.missing,
    }
    (OUT / f"{bench.wl.name}-seed{bench.seed}-trace1.spans.json").write_text(
        json.dumps(tracer.dump(), separators=(",", ":")))
    return metrics, info, [*plain, *rounds]


# -- run record ----------------------------------------------------------------

def machine() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside
    a git working tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def write_inputs(wl: workloads.Workload, work: Path) -> Files:
    def lines(path: Path, rows) -> str:
        path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        return str(path)

    return Files(
        corpus=lines(work / "corpus.txt", (" ".join(s) for s in wl.train)),
        raw=lines(work / "raw.txt", wl.raw[:CLI_LINES]),
        baseline=lines(work / "baseline.txt", (" ".join(s) for s in wl.baseline[:CLI_LINES])),
        dict=str(work / "dict.tsv"),
        emb=str(work / "emb.txt"),
        cache=str(work / "cache.bin"),
        cli_out=str(work / "cli_out.txt"),
    )


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    wl = workloads.make(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    bench = Bench(wl, write_inputs(wl, work), args.seed)
    t0 = time.perf_counter()
    try:
        run = run_traced if args.trace else run_plain
        values, info, rounds = run(bench, args.seconds)
    except RuntimeError as exc:
        values, info, rounds = {}, {"aborted": str(exc)}, []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = time.perf_counter() - t0

    metrics, absent = {}, {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            absent[m["name"]] = ("not measured: a hooked name is gone or was not called"
                                 if args.trace else "not measured: see errors")
        else:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    error_rate = bench.failed / max(bench.attempted, 1)
    correct = bench.failed == 0 and not info.get("aborted")
    result = {"correct": correct, "attempted": max(bench.attempted, 1),
              "failed": bench.failed, "metrics": metrics}
    record = {
        "workload": args.workload, "why": why[args.workload],
        "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "wall_s": wall, "machine": machine(), "info": info,
        "quality": rounds[0].quality if rounds else {},
        "error_rate": error_rate, "errors": bench.errors, "absent": absent,
        "counts": rounds[0].counts if rounds else {}, **result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, ensure_ascii=False))

    mach = record["machine"]
    print(f"embseg bench  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"wall={wall:.1f}s")
    print(f"machine  nproc={mach['nproc']} cpu={mach['cpu_model']!r} python={mach['python']} "
          f"numpy={mach['numpy']} commit={mach['commit']}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    for name, reason in absent.items():
        print(f"  {name:28s} {'absent':>14s}  {reason}")
    for name, value in values.items():
        if name not in metrics and name not in absent and value is not None:
            print(f"  {name:28s} {value:>14.6g} (not a metric of this mode)")
    print(f"  {'error_rate':28s} {error_rate:>14.6g} failed/attempted "
          f"({bench.failed}/{bench.attempted})")
    for key, value in info.items():
        if not key.endswith("_each"):   # the per-repeat lists are in the record only
            print(f"  {key}: {value}")
    for err in bench.errors:
        print(f"ERROR {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
