"""Similarity cache: build scope, file format, transparency."""
import struct

import numpy as np
import pytest

from embseg.corpus import BOS, EOS
from embseg.lexicon import Lexicon
from embseg.simcache import (
    SimilarityCache,
    build_cache,
    load_cache,
    save_cache,
)
from embseg.trainer import init_embeddings


def _setup(sentences):
    lex = Lexicon.from_sentences(sentences)
    emb = init_embeddings(len(lex), 12, np.random.default_rng(0))
    return lex, emb


def test_build_cache_window_pairs_exact():
    lex, emb = _setup([["a", "b"]])
    cache = build_cache([["a", "b"]], lex, emb)
    ids = [lex.id_of(w) for w in (BOS, "a", "b", EOS)]
    expected = {
        tuple(sorted((x, y))) for x in ids for y in ids if x != y
    }
    assert set(cache.table) == expected
    assert len(cache.table) == 6


def test_build_cache_window_bound():
    sent = [["w1", "w2", "w3", "w4", "w5", "w6"]]
    lex, emb = _setup(sent)
    cache = build_cache(sent, lex, emb, window=1)
    ids = [lex.id_of(t) for t in (BOS, "w1", "w2", "w3", "w4", "w5", "w6", EOS)]
    assert set(cache.table) == {tuple(sorted(p)) for p in zip(ids, ids[1:])}


def test_cached_values_equal_miss_path_bitwise():
    sent = [["a", "b", "c"], ["c", "a"]]
    lex, emb = _setup(sent)
    cache = build_cache(sent, lex, emb)
    bare = SimilarityCache(emb)
    assert cache.table
    for (a, b), val in cache.table.items():
        assert bare.similarity(a, b) == val
        assert abs(val) <= 1.0000001


@pytest.mark.parametrize("dim", [1, 12, 100, 257])
def test_cached_values_equal_miss_path_bitwise_across_chunks(dim):
    rng = np.random.default_rng(dim)
    words = [f"w{i}" for i in range(160)]
    sent = [list(rng.choice(words, size=20)) for _ in range(400)]
    lex = Lexicon.from_sentences(sent)
    emb = rng.normal(size=(len(lex), dim))
    cache = build_cache(sent, lex, emb)
    keys = list(cache.table)
    assert len(keys) > 4096  # more than one batch of cosines
    assert keys == sorted(keys)
    bare = SimilarityCache(emb)
    cached = np.array([cache.table[k] for k in keys])
    direct = np.array([bare.similarity(a, b) for a, b in keys])
    assert cached.tobytes() == direct.tobytes()


def test_similarity_identity_symmetry_and_counters():
    lex, emb = _setup([["a", "b"]])
    cache = build_cache([["a", "b"]], lex, emb)
    a, b = lex.id_of("a"), lex.id_of("b")
    assert cache.similarity(a, a) == 1.0
    assert cache.similarity(a, b) == cache.similarity(b, a)
    assert cache.hits == 3
    assert cache.misses == 0

    bare = SimilarityCache(emb)
    bare.similarity(a, b)
    assert bare.misses == 1
    assert bare.hit_rate() == 0.0
    assert SimilarityCache(emb).hit_rate() == 0.0  # no lookups yet


def test_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero vector"):
        SimilarityCache(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_cache_is_transparent_to_lookups():
    sent = [["a", "b", "c", "a"]]
    lex, emb = _setup(sent)
    with_table = build_cache(sent, lex, emb)
    without = SimilarityCache(emb)
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = int(rng.integers(len(lex))), int(rng.integers(len(lex)))
        assert with_table.similarity(a, b) == without.similarity(a, b)


def test_cache_file_round_trip(tmp_path):
    sent = [["a", "b", "c"]]
    lex, emb = _setup(sent)
    cache = build_cache(sent, lex, emb)
    path = str(tmp_path / "sim.bin")
    save_cache(path, cache)
    back = load_cache(path, emb)
    assert back.table == cache.table


def test_cache_file_validation(tmp_path):
    sent = [["a", "b"]]
    lex, emb = _setup(sent)
    cache = build_cache(sent, lex, emb)
    path = tmp_path / "sim.bin"
    save_cache(str(path), cache)
    raw = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="not a similarity cache"):
        load_cache(str(bad), emb)

    bad.write_bytes(raw[:4] + bytes([9]) + raw[5:])
    with pytest.raises(ValueError, match="version"):
        load_cache(str(bad), emb)

    with pytest.raises(ValueError, match="vocabulary"):
        load_cache(str(path), emb[:-1])

    bad.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_cache(str(bad), emb)


def _rejected(path, emb, what):
    with pytest.raises(ValueError, match=what) as info:
        load_cache(str(path), emb)
    assert str(path) in str(info.value)


def test_cache_file_rejects_other_embeddings(tmp_path):
    # same vocabulary size, different vectors: a stale cache from another run
    sent = [["a", "b", "c"], ["c", "a"]]
    lex = Lexicon.from_sentences(sent)
    emb1 = init_embeddings(len(lex), 12, np.random.default_rng(1))
    emb7 = init_embeddings(len(lex), 12, np.random.default_rng(7))
    path = tmp_path / "sim.bin"
    save_cache(str(path), build_cache(sent, lex, emb1))
    assert load_cache(str(path), emb1).table
    _rejected(path, emb7, "different embeddings")


def test_cache_file_rejects_version_1(tmp_path):
    sent = [["a", "b"]]
    lex, emb = _setup(sent)
    table = build_cache(sent, lex, emb).table
    rec = b"".join(struct.pack("<IIf", a, b, c) for (a, b), c in sorted(table.items()))
    path = tmp_path / "v1.bin"
    path.write_bytes(b"WCSC" + bytes([1]) + struct.pack("<IQ", len(lex), len(table)) + rec)
    _rejected(path, emb, "version")


@pytest.mark.parametrize(
    "key, value, what",
    [
        ((1, 4), 0.5, "vocabulary size"),
        ((0, 5), 0.5, "vocabulary size"),
        ((2, 1), 0.5, "order"),
        ((1, 1), 0.5, "order"),
        ((0, 1), float("nan"), "non-finite"),
        ((0, 1), float("inf"), "non-finite"),
    ],
)
def test_cache_file_rejects_bad_records(tmp_path, key, value, what):
    lex, emb = _setup([["a", "b"]])  # 4 words with the markers
    assert len(lex) == 4
    path = tmp_path / "bad.bin"
    save_cache(str(path), SimilarityCache(emb, {(0, 2): 0.25, key: value}))
    _rejected(path, emb, what)


def test_cache_file_rejects_trailing_and_missing_bytes(tmp_path):
    sent = [["a", "b"]]
    lex, emb = _setup(sent)
    path = tmp_path / "sim.bin"
    save_cache(str(path), build_cache(sent, lex, emb))
    raw = path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw + b"\0")
    _rejected(bad, emb, "trailing bytes")
    bad.write_bytes(raw[:20])
    _rejected(bad, emb, "truncated")
    bad.write_bytes(raw[:-1])
    _rejected(bad, emb, "truncated")

