"""The toy-language generator and its corrupted baseline."""
import numpy as np

from embseg.synth import corrupt, default_language, generate_corpus
from oracles import make_mixed_lines


def test_vocabulary_size_and_uniqueness():
    vocab = default_language().vocab()
    assert len(vocab) == 53
    assert len(set(vocab)) == 53


def test_split_target_pieces_straddle_topics():
    lang = default_language()
    a, b = set(lang.singles_a), set(lang.singles_b)
    for target in lang.split_targets:
        chars = set(target)
        assert chars <= a | b
        assert chars & a
        assert chars & b


def test_merge_pairs_avoid_target_characters():
    lang = default_language()
    target_chars = set("".join(lang.split_targets))
    for u, v in lang.merge_pairs:
        assert u not in target_chars
        assert v not in target_chars
        assert u + v not in lang.vocab()


def test_generated_corpus_properties():
    lang = default_language()
    corpus = generate_corpus(lang, 500, np.random.default_rng(0))
    vocab = set(lang.vocab())
    two_char = {w for w in vocab if len(w) == 2}
    assert len(corpus) == 500
    for sent in corpus:
        assert 8 <= len(sent) <= 18
        assert all(w in vocab for w in sent)
        for u, v in zip(sent, sent[1:]):
            # no adjacent pair may be mistakable for a vocabulary word
            assert u + v not in vocab
            assert u[-1] + v[0] not in two_char


def test_corpus_contains_targets_and_merge_bigrams():
    lang = default_language()
    corpus = generate_corpus(lang, 2000, np.random.default_rng(1))
    target_counts = {w: 0 for w in lang.split_targets}
    for sent in corpus:
        for w in sent:
            if w in target_counts:
                target_counts[w] += 1
    assert all(c >= 30 for c in target_counts.values())

    adjacency = {pair: 0 for pair in lang.merge_pairs}
    for sent in corpus:
        for u, v in zip(sent, sent[1:]):
            if (u, v) in adjacency:
                adjacency[(u, v)] += 1
    assert all(c >= 20 for c in adjacency.values())


def test_corrupt_splits_with_keep_rule():
    lang = default_language()
    corpus = generate_corpus(lang, 2000, np.random.default_rng(2))
    broken = corrupt(lang, corpus)
    assert ["".join(s) for s in corpus] == ["".join(s) for s in broken]

    for target in lang.split_targets:
        n_gold = sum(w == target for sent in corpus for w in sent)
        n_whole = sum(w == target for sent in broken for w in sent)
        assert n_gold > 0
        assert n_whole == n_gold // 3


def test_corrupt_merges_every_adjacent_pair():
    lang = default_language()
    corpus = generate_corpus(lang, 2000, np.random.default_rng(3))
    broken = corrupt(lang, corpus)
    for u, v in lang.merge_pairs:
        n_adj = sum(
            (a, b) == (u, v) for sent in corpus for a, b in zip(sent, sent[1:])
        )
        n_merged = sum(w == u + v for sent in broken for w in sent)
        assert n_adj > 0
        assert n_merged == n_adj
        for sent in broken:
            assert not any((a, b) == (u, v) for a, b in zip(sent, sent[1:]))


def test_make_mixed_lines_shape_and_no_whitespace():
    rng = np.random.default_rng(4)
    lines = make_mixed_lines(50, rng)
    assert len(lines) == 50
    assert all(lines)
    assert not any(ch.isspace() for line in lines for ch in line)
    assert make_mixed_lines(50, np.random.default_rng(4)) == lines
