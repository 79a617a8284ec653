"""Beam decoder: scoring, ranking, the retry over the completable lattice, and fallbacks."""
import dataclasses
import time
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from embseg import decoder
from embseg.corpus import BOS, EOS, is_word_char, strip_delimiters
from embseg.decoder import (
    BeamParams,
    Hypothesis,
    _carve_baseline,
    _completable,
    _finals,
    beam_search,
    segment_sentence,
)
from embseg.lexicon import Lexicon
from embseg.simcache import SimilarityCache
from embseg.trainer import init_embeddings
from oracles import oracle_best, recompute_mean_logp, word_score


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


def _ref_word_logp(word, recent, cache, window):
    """Reference word score: `word_score` over the last `window` words, so
    the reference beams below do not share the decoder's mean_similarity."""
    preds = recent[-window:]
    return word_score(word, preds, cache) if preds else 0.0


class _Open(NamedTuple):
    """A reference beam entry: a hypothesis with its open character buffer."""

    seg: tuple
    buf: str
    word_count: int
    sum_logp: float
    recent: tuple
    lens: tuple
    rank: tuple = ()

    def mean_logp(self):
        return self.sum_logp / (self.word_count - 1) if self.word_count > 1 else 0.0


def _rank_key(h):
    """Reference sort key of an open hypothesis, computed from scratch;
    smaller ranks first."""
    neg_lens = tuple(-x for x in h.lens)
    return (-round(h.mean_logp() * 1e9), h.word_count, neg_lens, h.seg)


def _final_rank_key(h, lex):
    """Reference sort key of a closed hypothesis, from its score and words."""
    neg_lens = tuple(-len(lex.word_of(i)) for i in h.seg[1:-1])
    return (-round(h.score * 1e9), len(h.seg), neg_lens, h.seg)


def _flushed_rank(sum_logp, word_count, neg_lens, seg):
    return (-round(sum_logp / (word_count - 1) * 1e9), word_count, neg_lens, seg)


def _extend(h, ch, lexicon, max_word_len, cache, window):
    """Reference successors of h for one more character.

    Candidate A appends the character to the buffer while the buffer stays
    within max_word_len and keeps the rank; candidate B flushes the buffer
    as a word (only if it is in the dictionary), opens a fresh buffer with
    the character and extends the rank by the new word.
    """
    out = []
    rank = h.rank or _rank_key(h)
    if len(h.buf) + 1 <= max_word_len:
        out.append(_Open(h.seg, h.buf + ch, h.word_count, h.sum_logp, h.recent, h.lens, rank))
    if h.buf and h.buf in lexicon:
        wid = lexicon.id_of(h.buf)
        seg = h.seg + (wid,)
        count = h.word_count + 1
        total = h.sum_logp + _ref_word_logp(wid, h.recent, cache, window)
        out.append(_Open(
            seg, ch, count, total, (h.recent + (wid,))[-window:], h.lens + (len(h.buf),),
            _flushed_rank(total, count, rank[2] + (-len(h.buf),), seg),
        ))
    return out


def _reference_beam(fragment, lex, cache, beam_size, max_word_len, window):
    """beam_search and _finals built from _extend and _rank_key: (result, finals)."""
    bos, eos = lex.id_of(BOS), lex.id_of(EOS)
    beam = [_Open((bos,), "", 1, 0.0, (bos,), ())]
    for ch in fragment:
        cands = [c for h in beam for c in _extend(h, ch, lex, max_word_len, cache, window)]
        if not cands:
            return None, []
        beam = sorted(cands, key=_rank_key)[:beam_size]
    finals = []
    for h in beam:
        if h.buf not in lex:
            continue
        wid = lex.id_of(h.buf)
        logp_w = _ref_word_logp(wid, h.recent, cache, window)
        recent = (h.recent + (wid,))[-window:]
        logp_e = _ref_word_logp(eos, recent, cache, window)
        seg = h.seg + (wid, eos)
        count = h.word_count + 2
        total = h.sum_logp + logp_w + logp_e
        finals.append(Hypothesis(
            *_flushed_rank(total, count, h.rank[2] + (-len(h.buf),), seg), total / (count - 1),
        ))
    if not finals:
        return None, finals
    best = min(finals, key=lambda h: _final_rank_key(h, lex))
    return ([lex.word_of(i) for i in best.seg[1:-1]], best.score), finals


def test_beam_matches_exhaustive_small():
    rng = np.random.default_rng(5)
    chars = "abcde"
    for _ in range(40):
        n = int(rng.integers(2, 8))
        frag = "".join(chars[int(rng.integers(len(chars)))] for _ in range(n))
        subs = sorted({frag[a:b] for a in range(n) for b in range(a + 1, n + 1)})
        lex = _make_lexicon(subs)
        cache = SimilarityCache(init_embeddings(len(lex), 10, rng))
        got = beam_search(frag, lex, cache, BeamParams(beam_size=1 << (n - 1), max_word_len=n))
        want = oracle_best(frag, lex, cache, 4)
        assert got is not None
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= 1e-9


def test_beam_none_when_no_covering_segmentation():
    lex = _make_lexicon(["a"])
    cache = _table_cache(lex)
    params = BeamParams(beam_size=8, max_word_len=2)
    assert beam_search("ax", lex, cache, params) is None
    assert _finals("ax", lex, cache, params) == []


def test_tie_breaking_prefers_fewer_then_longer_first():
    words = ["a", "b", "c", "d", "ab", "bc", "cd", "abc", "bcd", "abcd"]
    lex = _make_lexicon(words)
    cache = SimilarityCache(np.ones((len(lex), 4)))  # every cosine is exactly 1
    got, _ = beam_search("abcd", lex, cache, BeamParams(beam_size=16, max_word_len=4))
    assert got == ["abcd"]

    lex2 = _make_lexicon([w for w in words if w != "abcd"])
    cache2 = SimilarityCache(np.ones((len(lex2), 4)))
    got2, _ = beam_search("abcd", lex2, cache2, BeamParams(beam_size=16, max_word_len=4))
    assert got2 == ["abc", "d"]


def test_empty_fragment_raises():
    lex = _make_lexicon(["a"])
    with pytest.raises(ValueError, match="empty fragment"):
        beam_search("", lex, _table_cache(lex))


@pytest.mark.parametrize("window", [0, -1])
def test_beam_search_rejects_window_below_one(window):
    # recent[-0:] is the whole tuple, so window=0 would silently score
    # against every predecessor
    lex = _make_lexicon(["a"])
    with pytest.raises(ValueError, match="window"):
        beam_search("aaa", lex, _table_cache(lex), BeamParams(window=window))


def test_beam_params_cannot_be_changed_after_validation():
    params = BeamParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.beam_size = 0
    with pytest.raises(ValueError, match="beam_size"):
        dataclasses.replace(params, beam_size=0)
    assert params == BeamParams()


def test_incremental_equals_recompute_on_finals():
    frag = "abcab"
    subs = sorted({frag[a:b] for a in range(len(frag)) for b in range(a + 1, len(frag) + 1)})
    lex = _make_lexicon(subs)
    cache = SimilarityCache(init_embeddings(len(lex), 8, np.random.default_rng(9)))
    finals = _finals(frag, lex, cache, BeamParams(beam_size=16, max_word_len=5))
    assert finals
    for h in finals:
        assert abs(h.score - recompute_mean_logp(h.seg, cache, 4)) <= 1e-9


def test_dynamic_growth_six_char_word():
    lex = Lexicon((BOS, EOS, "abcdef"), (1, 1, 1))
    cache = SimilarityCache(init_embeddings(3, 6, np.random.default_rng(2)))
    assert beam_search("abcdef", lex, cache, BeamParams(beam_size=10, max_word_len=5)) is None
    got, _ = beam_search("abcdef", lex, cache, BeamParams(beam_size=20, max_word_len=6))
    assert got == ["abcdef"]

    counters = {}
    out = segment_sentence("abcdef", lex, cache, BeamParams(), counters=counters)
    assert out == "abcdef"
    assert counters == {"fragments": 1, "fallbacks": 0, "retries": 1}


def test_fallback_uses_baseline_tokens_verbatim():
    lex = Lexicon((BOS, EOS, "unrelated"), (1, 1, 1))
    cache = SimilarityCache(init_embeddings(3, 6, np.random.default_rng(3)))
    params = BeamParams()
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


@st.composite
def _decode_cases(draw, marks=""):
    # `marks` adds delimiter characters to the words' alphabet; they widen
    # the dictionary's alphabet but never reach a fragment
    words = sorted(draw(st.sets(st.text(alphabet="abc" + marks, min_size=1, max_size=6), min_size=1, max_size=10)))
    # mostly dictionary words, with some characters that break a tiling ("x" is never a word)
    pieces = draw(st.lists(
        st.sampled_from(words) | st.text(alphabet="abcx", min_size=1, max_size=2),
        min_size=1, max_size=5,
    ))
    fragment = strip_delimiters("".join(pieces))[:12]
    assume(fragment)
    lex = _make_lexicon(words)
    if draw(st.booleans()):
        cache = SimilarityCache(np.ones((len(lex), 4)))  # all ties: structure decides
    else:
        cache = SimilarityCache(init_embeddings(len(lex), 6, np.random.default_rng(draw(st.integers(0, 999)))))
    params = BeamParams(
        beam_size=draw(st.integers(1, 3)),
        max_word_len=draw(st.integers(1, 3)),
        window=draw(st.integers(1, 4)),
    )
    return fragment, lex, cache, params


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_decode_cases())
def test_carried_rank_equals_recomputed(case):
    fragment, lex, cache, params = case
    window = params.window
    bos = lex.id_of(BOS)
    beam = [_Open((bos,), "", 1, 0.0, (bos,), ())]
    for ch in fragment:
        cands = [c for h in beam for c in _extend(h, ch, lex, params.max_word_len, cache, window)]
        for c in cands:
            assert c.rank == _rank_key(c)
        beam = sorted(cands, key=_rank_key)[:params.beam_size]
    for h in _finals(fragment, lex, cache, params):
        assert h[:4] == _final_rank_key(h, lex)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_decode_cases())
def test_beam_search_matches_reference_beam(case):
    fragment, lex, cache, params = case
    window = params.window
    for k, m in ((params.beam_size, params.max_word_len), (params.beam_size + 3, lex.longest + 2)):
        want_result, want_finals = _reference_beam(fragment, lex, cache, k, m, window)
        assert _finals(fragment, lex, cache, BeamParams(k, m, window)) == want_finals
        assert beam_search(fragment, lex, cache, BeamParams(k, m, window)) == want_result


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_decode_cases())
def test_one_lookup_per_scored_pair(case):
    # the reference beam makes one similarity call per (word, predecessor)
    # pair that its flushes and closes score, repeated pairs included
    fragment, lex, cache, params = case
    cache.hits = cache.misses = 0
    _reference_beam(fragment, lex, cache, params.beam_size, params.max_word_len, params.window)
    pairs = cache.hits + cache.misses
    cache.hits = cache.misses = 0
    _finals(fragment, lex, cache, params)
    assert cache.hits + cache.misses == pairs


def _holds_foreign(fragment, lex):
    """Whether `fragment` holds a character that no real word holds."""
    return not set(fragment) <= {ch for w in lex.words if w not in (BOS, EOS) for ch in w}


def _tiles(fragment, lex):
    """Reference: whether dictionary words spell `fragment`, by a DP over
    its prefixes."""
    tiled = [True]
    for e in range(1, len(fragment) + 1):
        tiled.append(any(tiled[s] and fragment[s:e] in lex for s in range(e)))
    return tiled[-1]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_decode_cases())
def test_falls_back_only_without_a_tiling(case):
    fragment, lex, cache, params = case
    counters = {}
    out = segment_sentence(fragment, lex, cache, params, counters=counters)
    if _tiles(fragment, lex):
        words = out.split(" ")
        assert "".join(words) == fragment
        assert all(w in lex for w in words)
        assert counters["fallbacks"] == 0
    else:
        assert (out, counters["fallbacks"], counters["retries"]) == (" ".join(fragment), 1, 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_decode_cases())
def test_at_most_two_searches_per_fragment(case):
    fragment, lex, cache, params = case
    real_finals, finals = decoder._finals, []

    def recording_finals(*args):
        finals.append(real_finals(*args))
        return finals[-1]

    counters = {}
    with mock.patch.object(decoder, "_finals", recording_finals):
        segment_sentence(fragment, lex, cache, params, counters=counters)
    # a character outside the dictionary's alphabet leaves no tiling to
    # search for; any other fragment is searched once, and maybe retried
    if _holds_foreign(fragment, lex):
        assert (len(finals), counters["retries"]) == (0, 0)
    else:
        assert len(finals) == 1 + counters["retries"] <= 2
    assert all(finals[1:])  # the retry's beam never dies


def _searched_segment(fragment, lex, cache, params):
    """Reference decode of one fragment without the alphabet test: the first
    search, then the retry over the completable lattice when some tiling
    exists, then the fallback to single characters.  Returns (out, counters)."""
    res = beam_search(fragment, lex, cache, params)
    retries = 0
    if res is None:
        ends, reach = _completable(fragment, lex)
        if reach[0] >= 0:
            retries = 1
            res = decoder._best(_finals(fragment, lex, cache, params, (ends, reach)), lex)
    words = list(fragment) if res is None else res[0]
    return " ".join(words), {"fragments": 1, "fallbacks": int(res is None), "retries": retries}


def _recording_spans(calls):
    """A patch of Lexicon.spans that appends the text of each call to `calls`."""
    real_spans = Lexicon.spans

    def recording_spans(self, text):
        calls.append(text)
        return real_spans(self, text)

    return mock.patch.object(Lexicon, "spans", recording_spans)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_decode_cases(marks="]^-\\"))
def test_foreign_fragments_fall_back_before_any_search(case):
    # the dictionary's words may hold "]", "^", "-" and "\\", which a
    # character class must escape; they are delimiters, so no fragment holds them
    fragment, lex, cache, params = case
    want = _searched_segment(fragment, lex, cache, params)
    searches, spans = [], []
    counters = {}
    cache.hits = cache.misses = 0
    with mock.patch.object(decoder, "beam_search", lambda *args: searches.append(args) or beam_search(*args)), \
            _recording_spans(spans):
        out = segment_sentence(fragment, lex, cache, params, counters=counters)
    assert (out, counters) == want
    if _holds_foreign(fragment, lex):
        assert (len(searches), len(spans), cache.hits + cache.misses) == (0, 0, 0)
    else:
        assert len(searches) == 1


def test_foreign_tail_after_a_long_run_does_no_work():
    # a first search over every "a" and a completable walk over all 20,001
    # characters would take 2 spans calls and 79,994 lookups, about 1.8 s;
    # the "b" that no word holds sends the fragment straight to its fallback
    lex = _make_lexicon(["a"])
    cache = _table_cache(lex)
    fragment = "a" * 20_000 + "b"
    spans, counters = [], {}
    with _recording_spans(spans):
        out = segment_sentence(fragment, lex, cache, BeamParams(), baseline_tokens=[fragment], counters=counters)
    assert out == fragment
    assert counters == {"fragments": 1, "fallbacks": 1, "retries": 0}
    assert (len(spans), cache.hits + cache.misses) == (0, 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_decode_cases())
def test_wide_retry_equals_search_at_the_longest_word(case):
    # a beam wider than the hypotheses keeps them all: at bound
    # lexicon.longest every tiling closes, dead entries aside, and over the
    # completable lattice the same tilings close in the same order
    fragment, lex, cache, params = case
    wide = dataclasses.replace(params, beam_size=1 << len(fragment))
    want = _finals(fragment, lex, cache, dataclasses.replace(wide, max_word_len=lex.longest))
    ends, reach = _completable(fragment, lex)
    if reach[0] < 0:
        assert want == []
    else:
        assert _finals(fragment, lex, cache, wide, (ends, reach)) == want


def test_dead_buffer_holds_the_only_slot():
    # Every cosine is negative, so a flushed word scores below the begin
    # marker's 0 and the unflushed buffer ranks first.  At six characters
    # the buffer is longer than any dictionary entry and can never flush,
    # but it still fits max_word_len=6 and so keeps the only beam slot.
    lex = _make_lexicon(["a", "aaaaa"])
    cache = _table_cache(lex, default=-0.5)
    assert lex.longest == 5  # aaaaa is five characters long
    assert beam_search("aaaaaa", lex, cache, BeamParams(beam_size=1, max_word_len=5)) == (["aaaaa", "a"], -0.5)
    assert _finals("aaaaaa", lex, cache, BeamParams(beam_size=1, max_word_len=6)) == []
    assert beam_search("aaaaaa", lex, cache, BeamParams(beam_size=2, max_word_len=6))[0] == ["a"] * 6
    # over the completable lattice the buffer grows only up to aaaaa, the
    # furthest word with a tiling after it, so the retry at the same beam of
    # one cannot die
    counters = {}
    out = segment_sentence("aaaaaa", lex, cache, BeamParams(beam_size=1, max_word_len=6),
                           baseline_tokens=["aaaaaa"], counters=counters)
    assert (out, counters["fallbacks"], counters["retries"]) == ("aaaaa a", 0, 1)


@pytest.mark.parametrize("fragment", ["abcabc", "ababcab", "cabcabcab"])
@pytest.mark.parametrize("max_word_len", [5, 6, 7])
def test_dead_buffers_match_reference(fragment, max_word_len):
    lex = _make_lexicon(["a", "b", "c", "ab", "abcab"])
    cache = _table_cache(lex, default=-0.25, overrides={("a", "b"): 0.5, ("ab", "c"): -0.75})
    for beam_size in (1, 2, 3):
        want_result, want_finals = _reference_beam(fragment, lex, cache, beam_size, max_word_len, 4)
        params = BeamParams(beam_size=beam_size, max_word_len=max_word_len)
        assert _finals(fragment, lex, cache, params) == want_finals
        assert beam_search(fragment, lex, cache, params) == want_result


def test_growth_skips_rounds_below_seven_char_word(monkeypatch):
    # the only tiling of the fragment is the 7-character word: the search at
    # bound 5 dies, and the retry, which has no bound, finds the word
    lex = _make_lexicon(["abcdefg", "ab", "cd", "ef"])
    cache = SimilarityCache(init_embeddings(len(lex), 6, np.random.default_rng(2)))
    bounds = []

    def counting_search(fragment, lexicon, cache, params):
        bounds.append(params.max_word_len)
        return beam_search(fragment, lexicon, cache, params)

    monkeypatch.setattr(decoder, "beam_search", counting_search)
    counters = {}
    assert segment_sentence("abcdefg", lex, cache, BeamParams(), counters=counters) == "abcdefg"
    assert bounds == [5]
    assert counters == {"fragments": 1, "fallbacks": 0, "retries": 1}


def test_growth_stops_past_the_longest_word(monkeypatch):
    # a tiling exists (it needs the longest word, 7 characters), but even a
    # beam of 800 over every dictionary word prunes it, at any bound, so a
    # schedule of wider beams and longer bounds fell back here.  The retry
    # over the completable lattice decodes it at the default beam of 10.
    lex = _make_lexicon(["aabbb", "b", "bb", "bbbbabb", "bbbbbbb"])
    cache = SimilarityCache(np.random.default_rng(4).normal(size=(len(lex), 2)))
    fragment = "bbbbbbbbabbbbbbbbbbbbbbbbbbbbbbabbbbbbabbbbbbbbbbbbbabb"
    assert (len(fragment), lex.longest) == (55, 7)
    real_finals, calls = decoder._finals, []

    def counting_finals(*args):
        calls.append(args)
        return real_finals(*args)

    monkeypatch.setattr(decoder, "_finals", counting_finals)
    counters = {}
    words = segment_sentence(fragment, lex, cache, BeamParams(), counters=counters).split(" ")
    assert "".join(words) == fragment
    assert all(w in lex for w in words)
    assert counters == {"fragments": 1, "fallbacks": 0, "retries": 1}
    assert len(calls) == 2


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
    # segment_sentence checks the cover, before it decodes or cuts anything
    lex = _make_lexicon(["a", "b", "c"])
    with pytest.raises(ValueError, match="cover"):
        segment_sentence("abc", lex, _table_cache(lex), baseline_tokens=["ab"])


def _reference_carve(tokens, frags):
    """Baseline tokens with delimiters dropped, cut at fragment boundaries,
    one character at a time."""
    clean = ["".join(ch for ch in tok if is_word_char(ch)) for tok in tokens]
    clean = [tok for tok in clean if tok]
    out, ti, offset = [], 0, 0
    for frag in frags:
        words = []
        for _ in frag:
            if offset == 0 or not words:
                words.append("")
            words[-1] += clean[ti][offset]
            offset += 1
            if offset == len(clean[ti]):
                ti, offset = ti + 1, 0
        out.append(words)
    return out


def _draw_fragments(tokens, data):
    """The baseline's text, delimiters dropped, cut into drawn fragments."""
    text = "".join(ch for ch in "".join(tokens) if is_word_char(ch))
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(text) - 1)))) & set(range(1, len(text))))
    return [text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)]) if text[i:j]]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.text(alphabet="ab。 ", max_size=4), max_size=8), st.data())
def test_carve_baseline_matches_reference(tokens, data):
    frags = _draw_fragments(tokens, data)
    assert _carve_baseline(tokens, frags) == _reference_carve(tokens, frags)


@pytest.mark.parametrize("word", ["q", "a"], ids=["tiles-nothing", "tiles-runs-of-a"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.text(alphabet="ab。 ", max_size=4), max_size=8), st.data())
def test_fallbacks_take_their_baseline_cut(word, tokens, data):
    # where the dictionary tiles nothing, each fragment takes its own
    # share of the baseline: later fragments start at their offset into
    # it; where it tiles runs of "a", only the fragments with a "b" do
    frags = _draw_fragments(tokens, data)
    runs = st.text(alphabet="。， ", min_size=1, max_size=3)
    delims = [data.draw(runs) for _ in range(len(frags) + 1)]
    for end in (0, -1):  # a line may start and end with a fragment or a delimiter run
        if data.draw(st.booleans()):
            delims[end] = ""
    line = delims[0] + "".join(frag + delim for frag, delim in zip(frags, delims[1:]))
    fallback = [set(frag) != {word} for frag in frags]  # a run of the one word decodes
    words = iter(cut if fell else list(frag)
                 for frag, cut, fell in zip(frags, _reference_carve(tokens, frags), fallback))
    want = " ".join(
        tok for frag, delim in zip(["", *frags], delims)
        for tok in ((next(words) if frag else []) + ([delim] if delim else []))
    )
    lex = _make_lexicon([word])
    counters = {}
    out = segment_sentence(line, lex, _table_cache(lex), baseline_tokens=tokens, counters=counters)
    assert out == want
    assert counters == {"fragments": len(frags), "fallbacks": sum(fallback), "retries": 0}


def test_a_line_with_no_fallback_is_never_cut(monkeypatch):
    def refuse(*args):
        raise AssertionError("cut the baseline of a line that decoded")

    monkeypatch.setattr(decoder, "_carve_baseline", refuse)
    lex = _make_lexicon(["a", "b", "ab"])
    out = segment_sentence("ab，ab", lex, _table_cache(lex), baseline_tokens=["a", "b，", "ab"])
    assert out == "ab ， ab"


def test_a_misaligned_baseline_fails_before_any_search(monkeypatch):
    calls = []

    def counting_search(*args):
        calls.append(args)
        return beam_search(*args)

    monkeypatch.setattr(decoder, "beam_search", counting_search)
    lex = _make_lexicon(["a", "b", "ab"])
    with pytest.raises(ValueError, match="cover"):
        segment_sentence("ab，ab", lex, _table_cache(lex), baseline_tokens=["ab", "，", "ba"])
    assert calls == []


def test_a_line_that_falls_back_everywhere_is_cut_once(monkeypatch):
    # cutting the baseline once per failed fragment would strip every
    # token once per fragment: 400 x 200 calls here
    real_strip, real_carve = decoder.strip_delimiters, decoder._carve_baseline
    strips, carves = [], []
    monkeypatch.setattr(decoder, "strip_delimiters", lambda text: strips.append(text) or real_strip(text))
    monkeypatch.setattr(decoder, "_carve_baseline", lambda *args: carves.append(args) or real_carve(*args))
    tokens = ["x", "y，"] * 200
    lex = _make_lexicon(["q"])
    counters = {}
    out = segment_sentence("".join(tokens), lex, _table_cache(lex), baseline_tokens=tokens, counters=counters)
    assert out == " ".join(tokens).replace("，", " ，")
    assert counters == {"fragments": 200, "fallbacks": 200, "retries": 0}
    assert len(carves) == 1
    assert len(strips) <= len(tokens) + 1  # each token once, and the cover check


def test_fallback_carve_with_delimiters():
    lex = Lexicon((BOS, EOS, "q"), (1, 1, 1))
    cache = SimilarityCache(init_embeddings(3, 4, np.random.default_rng(1)))
    out = segment_sentence(
        "xy。zw", lex, cache, BeamParams(), baseline_tokens=["x", "y。z", "w"]
    )
    assert out == "x y 。 z w"


def test_segment_preserves_delimiters():
    lex = _make_lexicon(["a", "b", "ab"])
    cache = SimilarityCache(np.ones((len(lex), 4)))
    counters = {}
    out = segment_sentence("ab，ab", lex, cache, counters=counters)
    assert out == "ab ， ab"
    assert counters == {"fragments": 2, "fallbacks": 0, "retries": 0}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"beam_size": 0},
        {"max_word_len": 0},
        {"window": 0},
        {"beam_size": -3},
        {"beam_size": 2.5},
        {"max_word_len": 2.5},
        {"max_word_len": 3.0},
        {"window": 1.5},
        {"beam_size": True},
    ],
)
def test_beam_params_validation(kwargs):
    # beam_search takes its options only as a BeamParams, so a bad option
    # raises instead of reading as a dead beam, whose answer is None; a
    # fractional max_word_len used to decode with a fractional bound, and a
    # fractional beam_size or window to fail mid-search as a slice TypeError
    lex = _make_lexicon(["a", "b"])
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        beam_search("ab", lex, _table_cache(lex), BeamParams(**kwargs))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_decode_cases())
def test_leading_rank_key_is_a_small_int(case):
    # the score is a mean of cosines, so it lies in [-1, 1] and its quantized
    # rank key in [-1e9, 1e9], below 2**30: list.sort then compares the
    # leading key of each beam entry on its one-digit-int path.  A score that
    # sums per-word terms is not bounded so and fails here.
    fragment, lex, cache, params = case
    for h in _finals(fragment, lex, cache, params):
        assert type(h.q) is int
        assert abs(h.q) <= 10**9
