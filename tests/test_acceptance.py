"""Acceptance gate: eleven scenario checks over the whole pipeline.

Run with -v to get one pass/fail line per criterion.  Tolerances are
pinned in the assertions; the throughput check is informational and
reports through the warning system instead of blocking.
"""
import time
import warnings

import numpy as np
import pytest

from embseg.corpus import (
    BOS,
    EOS,
    MARKERS,
    add_boundary_markers,
    fragment_texts,
    reassemble,
    split_fragments,
)
from embseg.decoder import BeamParams, _finals, beam_search, segment_sentence
from embseg.evaluate import score, word_improvement_report
from embseg.lexicon import Lexicon, SubsampleTable
from embseg.sampler import (
    build_occurrence_batch,
    class_weights,
    context_negatives,
    inword_negatives,
)
from embseg.simcache import SimilarityCache, build_cache, load_cache, save_cache
from embseg.synth import corrupt, default_language, generate_corpus
from embseg.trainer import TrainerConfig, init_embeddings, train
from oracles import make_mixed_lines, oracle_best, recompute_mean_logp, sample_loss, train_step


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def synth_setup():
    """1k-sentence toy corpus with trained embeddings and a built cache."""
    lang = default_language()
    rng = np.random.default_rng(2024)
    gold = generate_corpus(lang, 1000, rng)
    base = corrupt(lang, gold)
    lex = Lexicon.from_sentences(base)
    emb = train(base, lex, TrainerConfig(dim=64, seed=11))
    cache = build_cache(base, lex, emb)
    return lang, gold, base, lex, emb, cache


@pytest.fixture(scope="module")
def beam_oracle_runs():
    """500 random fragments decoded by beam (k=2^(n-1), m=n) and by
    exhaustive enumeration; finals kept as per-run score deviations."""
    rng = np.random.default_rng(12)
    chars = "abcdefgh"
    runs = []
    t0 = time.perf_counter()
    for trial in range(500):
        n = int(rng.integers(2, 11))
        frag = "".join(chars[int(rng.integers(len(chars)))] for _ in range(n))
        subs = sorted({frag[a:b] for a in range(n) for b in range(a + 1, n + 1)})
        # random dictionary: all single characters plus a random subset of
        # the longer substrings, plus words the fragment never uses
        words = [w for w in subs if len(w) == 1 or rng.random() < 0.6]
        lex = Lexicon((BOS, EOS, *words, "zz", "zzz"), (1,) * (len(words) + 4))
        if trial % 25 == 0:
            emb = np.ones((len(lex), 6))  # forces a full tie across finals
        else:
            emb = init_embeddings(len(lex), 16, rng)
        # precompute every pair so both searches share the same fast scores
        unit = emb / np.linalg.norm(emb, axis=1)[:, None]
        gram = unit @ unit.T
        table = {
            (a, b): float(np.float32(gram[a, b]))
            for a in range(len(lex)) for b in range(a + 1, len(lex))
        }
        cache = SimilarityCache(emb, table)
        params = BeamParams(beam_size=1 << (n - 1), max_word_len=n)
        res = beam_search(frag, lex, cache, params)
        finals = _finals(frag, lex, cache, params)
        want = oracle_best(frag, lex, cache, 4)
        max_dev = max(
            (abs(h.score - recompute_mean_logp(h.seg, cache, 4)) for h in finals),
            default=0.0,
        )
        runs.append((frag, res, want, len(finals), max_dev))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


# ---------------------------------------------------------------- criteria

def test_criterion_01_inword_enumeration():
    lex = Lexicon(("abc", "a", "b", "c", "ab", "bc"), (1,) * 6)
    inword_negatives("abc", lex)  # warm-up outside the timed call
    t0 = time.perf_counter()
    got = set(inword_negatives("abc", lex))
    elapsed = time.perf_counter() - t0
    wid = lex.id_of
    assert got == {
        (wid("a"), wid("b")),
        (wid("a"), wid("c")),
        (wid("b"), wid("c")),
        (wid("ab"), wid("c")),
        (wid("a"), wid("bc")),
    }
    assert len(got) == 5
    assert elapsed < 1e-3
    print(f"criterion 1: 5-pair enumeration in {elapsed * 1e6:.1f} us")


def test_criterion_02_context_negative_oracle():
    def oracle(words, i, window, lex):
        lo = max(0, i - window)
        hi = min(len(words), i + window + 1)
        context = {words[j] for j in range(lo, hi) if j != i}
        out = set()
        for seq in (
            "".join(w for w in words[lo:i] if w not in MARKERS),
            "".join(w for w in words[i + 1:hi] if w not in MARKERS),
        ):
            for a in range(len(seq)):
                for b in range(a + 1, len(seq) + 1):
                    sub = seq[a:b]
                    if sub in lex and sub not in context:
                        out.add((lex.id_of(words[i]), lex.id_of(sub)))
        return out

    rng = np.random.default_rng(7)
    chars = "天地人日月"
    pool = list(chars)
    while len(pool) < 26:
        w = "".join(chars[int(rng.integers(5))] for _ in range(int(rng.integers(2, 4))))
        if w not in pool:
            pool.append(w)
    sentences = [
        [pool[int(rng.integers(len(pool)))] for _ in range(int(rng.integers(1, 9)))]
        for _ in range(200)
    ]
    lex = Lexicon.from_sentences(sentences)
    assert len(lex) <= 30
    checked = 0
    for sent in sentences:
        words = add_boundary_markers(sent)
        ids = [lex.id_of(w) for w in words]
        for i in range(len(words)):
            lo, hi = max(0, i - 4), min(len(ids), i + 5)
            got = context_negatives(ids[i], ids[lo:i], ids[i + 1:hi], lex)
            assert len(set(got)) == len(got)
            assert set(got) == oracle(words, i, 4, lex)
            checked += 1
    print(f"criterion 2: {checked} positions equal the brute-force oracle")


def test_criterion_03_formula_spot_checks():
    lex = Lexicon(("one", "four", "filler"), (1, 4, 99995))
    table = SubsampleTable(lex)
    assert table.p_sub[lex.id_of("one")] == 1.0
    assert table.p_sub[lex.id_of("four")] == 0.5
    assert class_weights(1, 4, 0.2) == 0.375

    hand = Lexicon(("但是", "但", "是", "口"), (1600, 6400, 10000, 1582000))
    assert SubsampleTable(hand).keep_override[hand.id_of("但是")].item() is False
    hand2 = Lexicon(("但是", "但", "是", "口"), (160000, 6400, 10000, 1423600))
    assert SubsampleTable(hand2).keep_override[hand2.id_of("但是")].item() is True
    print("criterion 3: subsampling, class weight, and keep-rule spot checks hold")


def test_criterion_04_gradient_check():
    lang = default_language()
    corpus = corrupt(lang, generate_corpus(lang, 400, np.random.default_rng(5)))
    lex = Lexicon.from_sentences(corpus)
    srng = np.random.default_rng(6)
    by_source: dict[str, list] = {}
    for sent in corpus:
        ids = [lex.id_of(w) for w in add_boundary_markers(sent)]
        for i in range(len(ids)):
            for s in build_occurrence_batch(ids, i, lex, srng):
                bucket = by_source.setdefault(s.source, [])
                if len(bucket) < 100:
                    bucket.append(s)
        if len(by_source) == 4 and all(len(v) >= 100 for v in by_source.values()):
            break
    assert sorted(by_source) == ["ctx_neg", "ctx_pos", "inword_neg", "noise_neg"]
    assert all(len(v) == 100 for v in by_source.values())

    dim = 12
    emb0 = init_embeddings(len(lex), dim, np.random.default_rng(8))
    h = 1e-5
    t0 = time.perf_counter()
    worst = 0.0
    for samples in by_source.values():
        for s in samples:
            stepped = emb0.copy()
            train_step(s, stepped, lr=1.0)
            analytic = stepped - emb0
            for row in {s.target, s.other}:
                for k in range(dim):
                    up = emb0.copy()
                    up[row, k] += h
                    dn = emb0.copy()
                    dn[row, k] -= h
                    num = (sample_loss(s, up) - sample_loss(s, dn)) / (2 * h)
                    ana = analytic[row, k]
                    rel = abs(ana - num) / max(abs(ana), abs(num), 1e-6)
                    worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 5.0
    print(f"criterion 4: 400 samples, max relative gradient error {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_05_beam_equals_exhaustive(beam_oracle_runs):
    runs, elapsed = beam_oracle_runs
    assert len(runs) == 500
    for frag, res, want, _, _ in runs:
        assert res is not None, frag
        assert want is not None, frag
        assert res[0] == want[0], frag
        assert abs(res[1] - want[1]) <= 1e-9, frag
    assert elapsed < 30.0
    print(f"criterion 5: 500 fragments match exhaustive search ({elapsed:.1f}s)")


def test_criterion_06_incremental_scoring(beam_oracle_runs):
    runs, _ = beam_oracle_runs
    total = sum(n for _, _, _, n, _ in runs)
    worst = max(dev for _, _, _, _, dev in runs)
    assert total > 500
    assert worst <= 1e-9
    print(f"criterion 6: running mean equals recomputation on {total} finals "
          f"(worst deviation {worst:.2e})")


def test_criterion_07_dynamic_growth_and_fallback():
    lex = Lexicon((BOS, EOS, "abcdef"), (1, 1, 1))
    cache = SimilarityCache(init_embeddings(3, 8, np.random.default_rng(3)))
    assert beam_search("abcdef", lex, cache, BeamParams(beam_size=10, max_word_len=5)) is None
    res = beam_search("abcdef", lex, cache, BeamParams(beam_size=20, max_word_len=6))
    assert res is not None
    assert res[0] == ["abcdef"]

    counters = {}
    out = segment_sentence("abcdef", lex, cache, BeamParams(), counters=counters)
    assert out == "abcdef"
    assert counters["fallbacks"] == 0

    out = segment_sentence(
        "xyz", lex, cache, BeamParams(), baseline_tokens=["xy", "z"]
    )
    assert out == "xy z"
    print("criterion 7: the retry decodes the 6-character word; fallback verbatim")


def test_criterion_08_cache_transparency(synth_setup, tmp_path):
    _, gold, base, lex, emb, cache = synth_setup
    path = str(tmp_path / "sim.bin")
    save_cache(path, cache)
    loaded = load_cache(path, emb)

    bare = SimilarityCache(emb)
    assert loaded.pairs()
    for (a, b), val in loaded.pairs().items():
        assert abs(val - bare.similarity(a, b)) <= 1e-6

    raw = ["".join(s) for s in gold]
    with_cache = [
        segment_sentence(line, lex, loaded, baseline_tokens=base[i])
        for i, line in enumerate(raw)
    ]
    without = [
        segment_sentence(line, lex, SimilarityCache(emb), baseline_tokens=base[i])
        for i, line in enumerate(raw)
    ]
    assert with_cache == without
    assert loaded.hit_rate() >= 0.80
    print(f"criterion 8: byte-identical decode on {len(raw)} sentences; "
          f"hit rate {loaded.hit_rate():.4f}")


def test_criterion_09_end_to_end_improvement():
    lang = default_language()
    assert 45 <= len(lang.vocab()) <= 60
    t0 = time.perf_counter()
    wins = 0
    f_deltas = []
    for seed in range(1, 6):
        gold = generate_corpus(lang, 8000, np.random.default_rng(seed))
        assert 80_000 <= sum(len(s) for s in gold) <= 130_000
        base = corrupt(lang, gold)
        lex = Lexicon.from_sentences(base)
        emb = train(base, lex, TrainerConfig(seed=seed))  # stock defaults, 1 epoch
        cache = build_cache(base, lex, emb)
        n_eval = 1000
        pred = [
            segment_sentence("".join(gold[i]), lex, cache, baseline_tokens=base[i]).split()
            for i in range(n_eval)
        ]
        gold_eval, base_eval = gold[:n_eval], base[:n_eval]
        f_base = score(gold_eval, base_eval).f_measure
        f_new = score(gold_eval, pred).f_measure
        rows = {
            r.word: r
            for r in word_improvement_report(gold_eval, base_eval, pred, min_count=10)
        }
        assert all(t in rows for t in lang.split_targets)
        mean_base = sum(rows[t].precision_baseline for t in lang.split_targets) / 5
        mean_new = sum(rows[t].precision_new for t in lang.split_targets) / 5
        wins += mean_new > mean_base
        f_deltas.append(f_new - f_base)
    elapsed = time.perf_counter() - t0
    assert wins >= 4
    assert min(f_deltas) >= -0.005
    assert elapsed < 120.0
    print(f"criterion 9: {wins}/5 seeds improve the split targets; "
          f"F deltas {['%+.4f' % d for d in f_deltas]} ({elapsed:.0f}s)")


def test_criterion_10_round_trip_and_closure(synth_setup):
    lines = make_mixed_lines(10_000, np.random.default_rng(99))
    assert len(lines) == 10_000
    for line in lines:
        parts = split_fragments(line)
        assert "".join(parts) == line
        frags = fragment_texts(parts)
        assert reassemble([list(f) for f in frags], parts).replace(" ", "") == line

    _, gold, base, lex, _, cache = synth_setup
    counters = {}
    outputs = [
        segment_sentence("".join(gold[i]), lex, cache,
                         baseline_tokens=base[i], counters=counters)
        for i in range(300)
    ]
    assert counters["fallbacks"] == 0
    assert counters["fragments"] == 300
    for out in outputs:
        for token in out.split():
            assert token in lex
    print("criterion 10: 10k-line round trip holds; decoder output closed over D")


def test_criterion_11_throughput_informational(synth_setup):
    _, gold, base, lex, _, cache = synth_setup
    raw = ["".join(s) for s in gold]
    t0 = time.perf_counter()
    tokens = 0
    for i, line in enumerate(raw):
        tokens += len(segment_sentence(line, lex, cache, baseline_tokens=base[i]).split())
    elapsed_ms = (time.perf_counter() - t0) * 1000
    tpm = tokens / elapsed_ms
    message = (
        f"decoding throughput {tpm:.1f} tokens/ms single-threaded with cache "
        f"({tokens} tokens; informational floor 1.0, not enforced)"
    )
    print(f"criterion 11: {message}")
    warnings.warn(message)
    assert tpm > 0
