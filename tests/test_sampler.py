"""Positive windows and the three negative channels."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embseg.corpus import BOS, EOS, MARKERS, add_boundary_markers
from embseg.lexicon import Lexicon
from embseg.sampler import (
    CTX_NEG,
    CTX_POS,
    INWORD_NEG,
    NEGATIVE,
    NOISE_NEG,
    POSITIVE,
    TrainingSample,
    build_occurrence_batch,
    class_weights,
    context_negatives,
    inword_negatives,
    noise_negatives,
    positives,
)


def _ids(lex, sent):
    return [lex.id_of(w) for w in add_boundary_markers(sent)]


def test_positives_window_and_edges():
    sent = [10, 11, 12, 13, 14]
    assert positives(sent, 2, 1) == [(12, 11), (12, 13)]
    assert positives(sent, 0, 2) == [(10, 11), (10, 12)]
    assert positives(sent, 4, 10) == [(14, 10), (14, 11), (14, 12), (14, 13)]
    assert positives([7], 0, 4) == []


def test_context_negatives_flank_substring_case():
    lex = Lexicon.from_sentences([["今天", "天气", "w", "天天"]])
    ids = [lex.id_of(w) for w in (BOS, "今天", "天气", "w", EOS)]
    out = context_negatives(ids, 3, 4, lex)
    # of all substrings of the flank 今天天气, only 天天 is a dictionary
    # word that is not itself a context word
    assert out == [(lex.id_of("w"), lex.id_of("天天"))]


def test_context_negatives_exclude_marker_text():
    # ⟨B is a dictionary word; if marker text leaked into the flank stream,
    # the left flank of x would contain ⟨B as a substring and emit it
    lex = Lexicon.from_sentences([["OS", "x"], ["⟨B", "q"]])
    assert context_negatives(_ids(lex, ["OS", "x"]), 2, 4, lex) == []


def test_context_negatives_never_emit_a_marker():
    # the flank "x⟨EOS⟩y" spells the end marker; it is text, not a word
    lex = Lexicon.from_sentences([["a", "b", "c", "d", "e", "x⟨EOS⟩y", "q", "r"], ["abcdef"]])
    ids = _ids(lex, ["a", "b", "c", "d", "e", "x⟨EOS⟩y", "q", "r"])
    assert context_negatives(ids, ids.index(lex.id_of("q")), 1, lex) == []
    # nor when a real word starts with the marker's text
    lex = Lexicon.from_sentences([["⟨EOS⟩z", "q", "x⟨EOS⟩"]])
    assert context_negatives(_ids(lex, ["⟨EOS⟩z", "q", "x⟨EOS⟩"]), 2, 1, lex) == []


def test_inword_negatives_never_emit_a_marker():
    lex = Lexicon.from_sentences([["x", "x⟨EOS⟩", "⟨BOS⟩y", "y"]])
    assert inword_negatives("x⟨EOS⟩", lex) == []
    assert inword_negatives("⟨BOS⟩y", lex) == []


def test_context_negatives_reach_the_longest_word():
    # the longest dictionary entry, spelled across two context words, at
    # the end of the left flank and at the start of the right flank
    longest = "天地人天地人"
    lex = Lexicon.from_sentences([["q", "天地人", "天地人", "x"], [longest]])
    assert lex.longest == len(longest)
    expected = [(lex.id_of("x"), lex.id_of(longest))]
    left = _ids(lex, ["q", "天地人", "天地人", "x"])
    assert context_negatives(left, 4, 4, lex) == expected
    right = _ids(lex, ["x", "天地人", "天地人", "q"])
    assert context_negatives(right, 1, 4, lex) == expected


def _oracle_context(words, i, window, lex):
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


def test_context_negatives_match_brute_force():
    rng = np.random.default_rng(1)
    vocab = ["天", "地", "人", "天地", "地人", "天地人", "人人"]
    sentences = [
        [vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(1, 7)))]
        for _ in range(60)
    ]
    lex = Lexicon.from_sentences(sentences)
    for sent in sentences:
        words, ids = add_boundary_markers(sent), _ids(lex, sent)
        for i in range(len(words)):
            got = context_negatives(ids, i, 4, lex)
            assert len(set(got)) == len(got)
            assert set(got) == _oracle_context(words, i, 4, lex)


def test_inword_enumeration_three_chars_full():
    lex = Lexicon(("abc", "a", "b", "c", "ab", "bc"), (1, 1, 1, 1, 1, 1))
    wid = lex.id_of
    got = inword_negatives("abc", lex)
    assert len(got) == 5
    assert set(got) == {
        (wid("a"), wid("b")),
        (wid("a"), wid("c")),
        (wid("b"), wid("c")),
        (wid("ab"), wid("c")),
        (wid("a"), wid("bc")),
    }


def test_inword_skips_out_of_dictionary_parts():
    lex = Lexicon(("abc", "a", "c", "ab", "bc"), (1, 1, 1, 1, 1))  # no "b"
    wid = lex.id_of
    got = set(inword_negatives("abc", lex))
    assert got == {(wid("a"), wid("c")), (wid("ab"), wid("c")), (wid("a"), wid("bc"))}


def test_inword_short_words_and_markers():
    lex = Lexicon(("a", BOS), (1, 1))
    assert inword_negatives("a", lex) == []
    assert inword_negatives(BOS, lex) == []


def test_inword_repeated_characters():
    lex = Lexicon(("aa", "a"), (1, 1))
    a = lex.id_of("a")
    assert inword_negatives("aa", lex) == [(a, a)]


def test_inword_matches_index_oracle_four_chars():
    word = "wxyz"
    subs = {word[a:b] for a in range(4) for b in range(a + 1, 5)} - {word}
    lex = Lexicon((word, *sorted(subs)), (1,) * (1 + len(subs)))
    expected = set()
    for a in range(4):
        for b in range(a + 1, 5):
            for c in range(b, 4):
                for d in range(c + 1, 5):
                    expected.add((lex.id_of(word[a:b]), lex.id_of(word[c:d])))
    assert set(inword_negatives(word, lex)) == expected


def _real_words(lex):
    return {w: i for i, w in enumerate(lex.words) if w not in MARKERS}


def _brute_context(words, i, window, lex):
    """Every start and end offset of both flanks, in order, first hit wins."""
    real = _real_words(lex)
    lo = max(0, i - window)
    hi = min(len(words), i + window + 1)
    skip = {words[j] for j in range(lo, hi) if j != i}
    out = []
    for flank in (words[lo:i], words[i + 1:hi]):
        seq = "".join(w for w in flank if w not in MARKERS)
        for a in range(len(seq)):
            for b in range(a + 1, len(seq) + 1):
                if seq[a:b] in real and seq[a:b] not in skip:
                    skip.add(seq[a:b])
                    out.append((real[words[i]], real[seq[a:b]]))
    return out


def _brute_inword(word, lex):
    real = _real_words(lex)
    k = len(word)
    if word in MARKERS:
        return []
    return [
        (real[word[a:b]], real[word[c:d]])
        for a in range(k) for b in range(a + 1, k + 1)
        for c in range(b, k) for d in range(c + 1, k + 1)
        if word[a:b] in real and word[c:d] in real
    ]


# words over a small alphabet that can spell the end marker
_WORDS = st.lists(st.sampled_from(["a", "b", "ab", EOS]), min_size=1, max_size=4).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.lists(_WORDS, min_size=1, max_size=6), min_size=1, max_size=4),
    st.integers(1, 3),
)
def test_enumerations_equal_brute_force(sentences, window):
    lex = Lexicon.from_sentences(sentences)
    for sent in sentences:
        words, ids = add_boundary_markers(sent), _ids(lex, sent)
        for i, word in enumerate(words):
            if word in MARKERS:
                continue
            assert context_negatives(ids, i, window, lex) == _brute_context(words, i, window, lex)
            assert inword_negatives(word, lex) == _brute_inword(word, lex)


def test_noise_uniform_excludes_target():
    rng = np.random.default_rng(2)
    pairs = noise_negatives(0, 100_000, rng, 100)
    others = np.array([o for _, o in pairs])
    assert (others != 0).all()
    freqs = np.bincount(others, minlength=100) / len(others)
    assert freqs[0] == 0.0
    assert np.abs(freqs[1:] - 1 / 99).max() < 0.005


def test_noise_collision_redraw_tiny_vocab():
    rng = np.random.default_rng(3)
    assert noise_negatives(0, 50, rng, 2) == [(0, 1)] * 50


def test_noise_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        noise_negatives(0, -1, rng, 10)
    with pytest.raises(ValueError, match="at least two"):
        noise_negatives(0, 1, rng, 1)
    assert noise_negatives(0, 0, rng, 1) == []


def test_class_weights_frozen_point():
    assert class_weights(1, 4, 0.2) == 0.375


def test_class_weights_validation_and_edge():
    with pytest.raises(ValueError):
        class_weights(0, 4, 0.2)
    with pytest.raises(ValueError):
        class_weights(1, 4, -0.1)
    assert class_weights(3, 0, 0.2) == 1.0


def _batch_fixture():
    sentences = [["b", "c", "a"], ["bc", "a"]]
    lex = Lexicon.from_sentences(sentences)
    return lex, _ids(lex, ["b", "c", "a"])


class _FixedDraw:
    """Stands in for the rng: every noise draw returns `wid`."""

    def __init__(self, wid):
        self.wid = wid

    def integers(self, high):
        assert 0 <= self.wid < high
        return self.wid


def _negatives(batch):
    return [s for s in batch if s.label == NEGATIVE]


def test_batch_dedup_prefers_first_channel():
    lex, ids = _batch_fixture()
    bc = lex.id_of("bc")
    # noise always draws bc, colliding with the context negative
    batch = build_occurrence_batch(ids, 3, lex, _FixedDraw(bc), n_noise=1)
    assert len(batch) == 5
    negs = _negatives(batch)
    assert [(s.target, s.other, s.source) for s in negs] == [
        (lex.id_of("a"), bc, CTX_NEG)
    ]
    assert negs[0].weight == pytest.approx((4 / 1 + 0.2) / 1.2)


def test_batch_noise_channel_survives_without_collision():
    lex, ids = _batch_fixture()
    c = lex.id_of("c")
    batch = build_occurrence_batch(ids, 3, lex, _FixedDraw(c), n_noise=1)
    negs = _negatives(batch)
    assert sorted(s.source for s in negs) == [CTX_NEG, NOISE_NEG]
    w_neg = (4 / 2 + 0.2) / 1.2
    assert all(s.weight == pytest.approx(w_neg) for s in negs)


def test_batch_inword_channel():
    lex, _ = _batch_fixture()
    batch = build_occurrence_batch(_ids(lex, ["bc", "a"]), 1, lex, np.random.default_rng(5), n_noise=0)
    assert [(s.source, s.target, s.other) for s in _negatives(batch)] == [
        (INWORD_NEG, lex.id_of("b"), lex.id_of("c"))
    ]


def test_batch_without_positives_is_an_error():
    lex = Lexicon(("q", "r"), (1, 1))
    with pytest.raises(ValueError, match="at least one positive"):
        build_occurrence_batch([0], 0, lex, np.random.default_rng(0))


def test_batch_sample_invariants():
    lex, ids = _batch_fixture()
    batch = build_occurrence_batch(ids, 3, lex, np.random.default_rng(9))
    assert isinstance(batch, tuple)
    pos = [s for s in batch if s.label == POSITIVE]
    negs = _negatives(batch)
    assert len(pos) == 4 and len(negs) >= 1
    assert all(s.source == CTX_POS and s.weight == 1.0 for s in pos)
    assert all(s.source != CTX_POS for s in negs)
    assert len({(s.target, s.other) for s in negs}) == len(negs)
    assert len({s.weight for s in negs}) == 1
    assert list(batch[:len(pos)]) == pos


def _reference_batch(ids, i, lex, rng, window, n_noise, eta):
    """build_occurrence_batch from the public channels, every negative
    checked against all earlier ones, with no per-word memo."""
    pos = positives(ids, i, window)
    negs, seen = [], set()
    for src, pairs in (
        (CTX_NEG, context_negatives(ids, i, window, lex)),
        (INWORD_NEG, inword_negatives(lex.word_of(ids[i]), lex)),
        (NOISE_NEG, noise_negatives(ids[i], n_noise, rng, len(lex))),
    ):
        for pair in pairs:
            if pair not in seen:
                seen.add(pair)
                negs.append((*pair, src))
    w_neg = class_weights(len(pos), len(negs), eta)
    return tuple(
        [TrainingSample(t, o, CTX_POS, 1.0) for t, o in pos]
        + [TrainingSample(t, o, src, w_neg) for t, o, src in negs]
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.lists(st.sampled_from(["a", "b", "ab", "ba", "aba", "abab", "bab"]),
                      min_size=1, max_size=6), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(0, 3),
)
def test_batches_with_the_inword_memo_equal_the_reference(sentences, window, n_noise):
    # every occurrence twice: the second finds its word's in-word pairs in
    # the memo the first filled; repeated pieces ("abab") repeat pairs
    lex = Lexicon.from_sentences(sentences)
    for _ in range(2):
        for sent in sentences:
            ids = _ids(lex, sent)
            for i in range(len(ids)):
                got = build_occurrence_batch(ids, i, lex, np.random.default_rng(i),
                                             window=window, n_noise=n_noise)
                want = _reference_batch(ids, i, lex, np.random.default_rng(i), window, n_noise, 0.2)
                assert got == want
                assert all(type(s) is TrainingSample for s in got)
    assert set(lex._inword) <= set(range(len(lex)))
    assert Lexicon.from_sentences(sentences)._inword == {}  # a memo per lexicon


def test_sample_label_follows_its_channel():
    for source in (CTX_POS, CTX_NEG, INWORD_NEG, NOISE_NEG):
        sample = TrainingSample(0, 1, source, 1.0)
        assert sample.label == (POSITIVE if source == CTX_POS else NEGATIVE)
    assert TrainingSample._fields == ("target", "other", "source", "weight")
