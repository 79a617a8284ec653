"""Beam decoder: scoring, ranking, growth, and fallbacks."""
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embseg import decoder
from embseg.corpus import BOS, EOS
from embseg.decoder import (
    BeamParams,
    Hypothesis,
    _carve_baseline,
    _decode_with_growth,
    _min_tiling_len,
    _rank_key,
    beam_search,
    extend,
    recompute_mean_logp,
    segment_sentence,
    word_logp,
)
from embseg.lexicon import Lexicon
from embseg.simcache import SimilarityCache
from embseg.trainer import init_embeddings


def _make_lexicon(words):
    return Lexicon((BOS, EOS, *words), (1,) * (len(words) + 2))


def _table_cache(lex, default=0.0, overrides=None):
    emb = init_embeddings(len(lex), 6, np.random.default_rng(0))
    table = {}
    for a in range(len(lex)):
        for b in range(a + 1, len(lex)):
            table[(a, b)] = default
    for (wa, wb), val in (overrides or {}).items():
        ia, ib = lex.id_of(wa), lex.id_of(wb)
        table[tuple(sorted((ia, ib)))] = val
    return SimilarityCache(emb, table)


def test_word_logp_window_and_empty():
    lex = _make_lexicon(["a", "b", "c", "d", "e", "w"])
    cache = _table_cache(lex, overrides={
        ("w", "a"): 9.9, ("w", "b"): 0.1, ("w", "c"): 0.2,
        ("w", "d"): 0.3, ("w", "e"): 0.4,
    })
    ids = [lex.id_of(x) for x in ("a", "b", "c", "d", "e")]
    w = lex.id_of("w")
    assert word_logp(w, ids, cache, 4) == pytest.approx((0.1 + 0.2 + 0.3 + 0.4) / 4)
    assert word_logp(w, [], cache, 4) == 0.0
    assert word_logp(w, ids, cache, 10) == pytest.approx((9.9 + 0.1 + 0.2 + 0.3 + 0.4) / 5)


def test_extend_candidates():
    lex = _make_lexicon(["a", "ab"])
    cache = _table_cache(lex)
    bos = lex.id_of(BOS)
    start = Hypothesis((bos,), "", 1, 0.0, (bos,), ())

    outs = extend(start, "a", lex, 5, cache, 4)
    assert [h.buf for h in outs] == ["a"]  # empty buffer cannot flush

    h = outs[0]
    outs2 = extend(h, "b", lex, 5, cache, 4)
    assert {o.buf for o in outs2} == {"ab", "b"}
    flushed = next(o for o in outs2 if o.buf == "b")
    assert flushed.seg == (bos, lex.id_of("a"))
    assert flushed.word_count == 2
    assert flushed.lens == (1,)

    outs3 = extend(h, "b", lex, 1, cache, 4)  # buffer would exceed the bound
    assert [o.buf for o in outs3] == ["b"]

    hx = h._replace(buf="x")
    outs4 = extend(hx, "y", lex, 5, cache, 4)  # buffer not a word: no flush
    assert [o.buf for o in outs4] == ["xy"]


def _all_segmentations(frag):
    n = len(frag)
    for mask in range(1 << max(0, n - 1)):
        words = []
        start = 0
        for i in range(n - 1):
            if (mask >> i) & 1:
                words.append(frag[start:i + 1])
                start = i + 1
        words.append(frag[start:])
        yield words


def _oracle_best(frag, lex, cache, window):
    best_key, best = None, None
    for words in _all_segmentations(frag):
        if any(w not in lex for w in words):
            continue
        ids = [lex.id_of(BOS)] + [lex.id_of(w) for w in words] + [lex.id_of(EOS)]
        total = 0.0
        for i in range(1, len(ids)):
            preds = ids[max(0, i - window):i]
            total += sum(cache.similarity(ids[i], p) for p in preds) / len(preds)
        mean = total / (len(ids) - 1)
        key = (-round(mean * 1e9), len(words), tuple(-len(w) for w in words), tuple(ids))
        if best_key is None or key < best_key:
            best_key, best = key, (words, mean)
    return best


def test_beam_matches_exhaustive_small():
    rng = np.random.default_rng(5)
    chars = "abcde"
    for _ in range(40):
        n = int(rng.integers(2, 8))
        frag = "".join(chars[int(rng.integers(len(chars)))] for _ in range(n))
        subs = sorted({frag[a:b] for a in range(n) for b in range(a + 1, n + 1)})
        lex = _make_lexicon(subs)
        cache = SimilarityCache(init_embeddings(len(lex), 10, rng))
        got = beam_search(frag, lex, cache, beam_size=1 << (n - 1), max_word_len=n)
        want = _oracle_best(frag, lex, cache, 4)
        assert got is not None
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= 1e-9


def test_beam_none_when_no_covering_segmentation():
    lex = _make_lexicon(["a"])
    cache = _table_cache(lex)
    assert beam_search("ax", lex, cache, beam_size=8, max_word_len=2) is None
    result, finals = beam_search(
        "ax", lex, cache, beam_size=8, max_word_len=2, return_finals=True
    )
    assert result is None
    assert finals == []


def test_tie_breaking_prefers_fewer_then_longer_first():
    words = ["a", "b", "c", "d", "ab", "bc", "cd", "abc", "bcd", "abcd"]
    lex = _make_lexicon(words)
    cache = SimilarityCache(np.ones((len(lex), 4)))  # every cosine is exactly 1
    got, _ = beam_search("abcd", lex, cache, beam_size=16, max_word_len=4)
    assert got == ["abcd"]

    lex2 = _make_lexicon([w for w in words if w != "abcd"])
    cache2 = SimilarityCache(np.ones((len(lex2), 4)))
    got2, _ = beam_search("abcd", lex2, cache2, beam_size=16, max_word_len=4)
    assert got2 == ["abc", "d"]


def test_empty_fragment_raises():
    lex = _make_lexicon(["a"])
    with pytest.raises(ValueError, match="empty fragment"):
        beam_search("", lex, _table_cache(lex))


def test_incremental_equals_recompute_on_finals():
    frag = "abcab"
    subs = sorted({frag[a:b] for a in range(len(frag)) for b in range(a + 1, len(frag) + 1)})
    lex = _make_lexicon(subs)
    cache = SimilarityCache(init_embeddings(len(lex), 8, np.random.default_rng(9)))
    result, finals = beam_search(
        frag, lex, cache, beam_size=16, max_word_len=5, return_finals=True
    )
    assert result is not None
    assert finals
    for h in finals:
        assert abs(h.mean_logp() - recompute_mean_logp(h.seg, cache, 4)) <= 1e-9


def test_dynamic_growth_six_char_word():
    lex = Lexicon((BOS, EOS, "abcdef"), (1, 1, 1))
    cache = SimilarityCache(init_embeddings(3, 6, np.random.default_rng(2)))
    assert beam_search("abcdef", lex, cache, beam_size=10, max_word_len=5) is None
    got, _ = beam_search("abcdef", lex, cache, beam_size=20, max_word_len=6)
    assert got == ["abcdef"]

    counters = {}
    out = segment_sentence("abcdef", lex, cache, BeamParams(), counters=counters)
    assert out == "abcdef"
    assert counters == {"fragments": 1, "fallbacks": 0}


def test_fallback_uses_baseline_tokens_verbatim():
    lex = Lexicon((BOS, EOS, "unrelated"), (1, 1, 1))
    cache = SimilarityCache(init_embeddings(3, 6, np.random.default_rng(3)))
    params = BeamParams(retry_cap=1)
    counters = {}
    out = segment_sentence(
        "xyz", lex, cache, params, baseline_tokens=["xy", "z"], counters=counters
    )
    assert out == "xy z"
    assert counters["fallbacks"] == 1

    assert segment_sentence("xyz", lex, cache, params) == "x y z"


def test_growth_terminates_without_retry_cap():
    lex = Lexicon((BOS, EOS, "q"), (1, 1, 1))
    cache = SimilarityCache(init_embeddings(3, 4, np.random.default_rng(1)))
    assert segment_sentence("zz", lex, cache, BeamParams()) == "z z"


def _reference_growth(fragment, lex, cache, params, window):
    """The growth schedule with every round run, none skipped."""
    k, m = params.beam_size, params.max_word_len
    rounds = covered_failures = 0
    while True:
        res = beam_search(fragment, lex, cache, beam_size=k, max_word_len=m, window=window)
        if res is not None:
            return res[0]
        rounds += 1
        if params.retry_cap is not None:
            if rounds > params.retry_cap:
                return None
        elif m >= len(fragment):
            covered_failures += 1
            if covered_failures >= 4:
                return None
        k += params.beam_step
        m += params.len_step


@st.composite
def _decode_cases(draw):
    words = sorted(draw(st.sets(st.text(alphabet="abc", min_size=1, max_size=6), min_size=1, max_size=10)))
    # mostly dictionary words, with some characters that break a tiling ("x" is never a word)
    pieces = draw(st.lists(
        st.sampled_from(words) | st.text(alphabet="abcx", min_size=1, max_size=2),
        min_size=1, max_size=5,
    ))
    fragment = "".join(pieces)[:12]
    lex = _make_lexicon(words)
    if draw(st.booleans()):
        cache = SimilarityCache(np.ones((len(lex), 4)))  # all ties: structure decides
    else:
        cache = SimilarityCache(init_embeddings(len(lex), 6, np.random.default_rng(draw(st.integers(0, 999)))))
    params = BeamParams(
        beam_size=draw(st.integers(1, 3)),
        max_word_len=draw(st.integers(1, 3)),
        beam_step=draw(st.integers(1, 3)),
        len_step=draw(st.integers(1, 2)),
        retry_cap=draw(st.none() | st.integers(0, 2)),
    )
    return fragment, lex, cache, params, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_decode_cases())
def test_growth_skipping_matches_every_round(case):
    fragment, lex, cache, params, window = case
    want = _reference_growth(fragment, lex, cache, params, window)
    assert _decode_with_growth(fragment, lex, cache, params, window) == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_decode_cases())
def test_carried_rank_equals_recomputed(case):
    fragment, lex, cache, params, window = case
    bos = lex.id_of(BOS)
    beam = [Hypothesis((bos,), "", 1, 0.0, (bos,), ())]
    for ch in fragment:
        cands = [c for h in beam for c in extend(h, ch, lex, params.max_word_len, cache, window)]
        for c in cands:
            assert c.rank == _rank_key(c)
        beam = sorted(cands, key=_rank_key)[:params.beam_size]
    _, finals = beam_search(
        fragment, lex, cache, beam_size=params.beam_size,
        max_word_len=params.max_word_len, window=window, return_finals=True,
    )
    for h in finals:
        assert h.rank == _rank_key(h)


def test_min_tiling_len():
    lex = _make_lexicon(["ab", "abc", "cde", "d", "e"])
    assert _min_tiling_len("abcde", lex) == 3   # ab|cde or abc|d|e
    assert _min_tiling_len("abde", lex) == 2
    assert _min_tiling_len("abx", lex) is None
    assert _min_tiling_len("c", lex) is None


def test_growth_skips_rounds_below_seven_char_word(monkeypatch):
    # the only tiling of the fragment is the 7-character word
    lex = _make_lexicon(["abcdefg", "ab", "cd", "ef"])
    cache = SimilarityCache(init_embeddings(len(lex), 6, np.random.default_rng(2)))
    bounds = []

    def counting_search(*args, **kwargs):
        bounds.append(kwargs["max_word_len"])
        return beam_search(*args, **kwargs)

    monkeypatch.setattr(decoder, "beam_search", counting_search)
    assert segment_sentence("abcdefg", lex, cache, BeamParams(retry_cap=2)) == "abcdefg"
    assert bounds == [5, 7]  # the round at bound 6 is counted but not run

    counters = {}
    out = segment_sentence(
        "abcdefg", lex, cache, BeamParams(retry_cap=1),
        baseline_tokens=["abc", "defg"], counters=counters,
    )
    assert out == "abc defg"
    assert counters["fallbacks"] == 1


def test_long_oov_fragment_falls_back_fast():
    lex = _make_lexicon(["天", "地", "人", "天地", "人人"])
    cache = SimilarityCache(init_embeddings(len(lex), 8, np.random.default_rng(4)))
    tokens = ["天地", "人"] * 31 + ["httpwwwexamplecomxyz"] + ["人人", "天"] * 29
    fragment = "".join(tokens)
    assert len(fragment) == 200
    counters = {}
    t0 = time.perf_counter()
    out = segment_sentence(fragment, lex, cache, BeamParams(), baseline_tokens=tokens, counters=counters)
    assert time.perf_counter() - t0 < 1.0
    assert out == " ".join(tokens)
    assert counters["fallbacks"] == 1


def test_carve_baseline_drops_delimiters_and_splits():
    assert _carve_baseline(["a", "b。c", "d"], ["ab", "cd"]) == [["a", "b"], ["c", "d"]]
    with pytest.raises(ValueError, match="cover"):
        _carve_baseline(["ab"], ["abc"])


def test_fallback_carve_with_delimiters():
    lex = Lexicon((BOS, EOS, "q"), (1, 1, 1))
    cache = SimilarityCache(init_embeddings(3, 4, np.random.default_rng(1)))
    out = segment_sentence(
        "xy。zw", lex, cache, BeamParams(retry_cap=0), baseline_tokens=["x", "y。z", "w"]
    )
    assert out == "x y 。 z w"


def test_segment_preserves_delimiters():
    lex = _make_lexicon(["a", "b", "ab"])
    cache = SimilarityCache(np.ones((len(lex), 4)))
    counters = {}
    out = segment_sentence("ab，ab", lex, cache, counters=counters)
    assert out == "ab ， ab"
    assert counters == {"fragments": 2, "fallbacks": 0}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"beam_size": 0},
        {"max_word_len": 0},
        {"beam_step": 0},
        {"len_step": 0},
        {"retry_cap": -1},
    ],
)
def test_beam_params_validation(kwargs):
    with pytest.raises(ValueError):
        BeamParams(**kwargs)
