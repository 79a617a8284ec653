"""Similarity cache: build scope, file format, transparency."""
import hashlib
import struct
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embseg import simcache
from embseg.corpus import BOS, EOS, add_boundary_markers
from embseg.lexicon import Lexicon
from embseg.simcache import (
    _ENTRY,
    _HEADER,
    SimilarityCache,
    _unit_digest,
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
    assert set(cache.pairs()) == expected
    assert cache.entries == 6


def test_build_cache_window_bound():
    sent = [["w1", "w2", "w3", "w4", "w5", "w6"]]
    lex, emb = _setup(sent)
    cache = build_cache(sent, lex, emb, window=1)
    ids = [lex.id_of(t) for t in (BOS, "w1", "w2", "w3", "w4", "w5", "w6", EOS)]
    assert set(cache.pairs()) == {tuple(sorted(p)) for p in zip(ids, ids[1:])}


def test_build_cache_rejects_a_word_missing_from_the_lexicon():
    lex, emb = _setup([["a", "b"]])
    with pytest.raises(KeyError) as raised:
        build_cache([["a", "b"], ["b", "zz"]], lex, emb)
    assert raised.value.args == ("unknown word 'zz'; was the lexicon built from this corpus?",)


def test_cached_values_equal_miss_path_bitwise():
    sent = [["a", "b", "c"], ["c", "a"]]
    lex, emb = _setup(sent)
    cache = build_cache(sent, lex, emb)
    bare = SimilarityCache(emb)
    assert cache.pairs()
    for (a, b), val in cache.pairs().items():
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
    pairs = cache.pairs()
    keys = list(pairs)
    assert len(keys) > 4096  # more than one batch of cosines
    assert keys == sorted(keys)
    bare = SimilarityCache(emb)
    cached = np.array([pairs[k] for k in keys])
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


@st.composite
def _scoring_cases(draw):
    """Embeddings, a table holding some pairs (some at their float32 cosine,
    some at arbitrary plain floats), a word id and its predecessors."""
    v = draw(st.integers(2, 8))
    emb = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(v, draw(st.integers(2, 16))))
    exact = SimilarityCache(emb)
    pairs = {}
    for a, b in draw(st.lists(st.tuples(st.integers(0, v - 2), st.integers(1, v - 1)), max_size=12)):
        if a < b:
            plain = st.floats(-1.0, 1.0)
            pairs[a, b] = draw(plain) if draw(st.booleans()) else exact.similarity(a, b)
    a = draw(st.integers(0, v - 1))
    others = draw(st.lists(st.just(a) | st.integers(0, v - 1), min_size=1, max_size=6))
    return emb, pairs, a, others


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_scoring_cases())
def test_mean_similarity_equals_in_order_similarity_sum(case):
    emb, pairs, a, others = case
    fused, plain = SimilarityCache(emb, pairs), SimilarityCache(emb, pairs)
    total = 0.0
    for b in others:
        total += plain.similarity(a, b)
    assert repr(fused.mean_similarity(a, others)) == repr(total / len(others))
    assert (fused.hits, fused.misses) == (plain.hits, plain.misses)
    assert fused.hits + fused.misses == len(others)


def _through_cell(cell, xs):
    out = []
    for x in xs:
        cell[0] = x
        out.append(cell[0])
    return out


def test_rounding_cell_matches_numpy_float32():
    cell = SimilarityCache(np.eye(2))._f32
    rng = np.random.default_rng(0)
    # exact midpoints between adjacent float32 values are float64 values
    low = rng.uniform(-1, 1, 10**4).astype(np.float32)
    high = np.nextafter(low, np.float32(np.inf))
    mids = (low.astype(np.float64) + high) / 2
    assert ((mids != low) & (mids != high)).all()
    for xs in (rng.uniform(-1, 1, 10**5).tolist(), mids.tolist(), [0.0, -0.0, 1.0, -1.0]):
        assert [repr(x) for x in _through_cell(cell, xs)] == [repr(float(np.float32(x))) for x in xs]
    # ties go to the neighbour whose last significand bit is 0
    tied = np.array(_through_cell(cell, mids.tolist()), dtype=np.float32)
    assert not (tied.view(np.uint32) & 1).any()


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
    assert back.pairs() == cache.pairs()
    assert list(back.pairs().items()) == list(cache.pairs().items())


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
    assert load_cache(str(path), emb1).pairs()
    _rejected(path, emb7, "different embeddings")


def test_cache_file_rejects_version_1(tmp_path):
    sent = [["a", "b"]]
    lex, emb = _setup(sent)
    table = build_cache(sent, lex, emb).pairs()
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
        ((0, 1), 7.0, r"record 0 \(0, 1, 7\.0\): cosine outside \[-1, 1\]"),
        ((0, 3), -1.5, r"record 1 \(0, 3, -1\.5\): cosine outside \[-1, 1\]"),
    ],
)
def test_cache_file_rejects_bad_records(tmp_path, key, value, what):
    lex, emb = _setup([["a", "b"]])  # 4 words with the markers
    assert len(lex) == 4
    # a table cannot hold these records, so they are written directly
    path = tmp_path / "bad.bin"
    save_cache(str(path), SimilarityCache(emb, {(0, 2): 0.25, (0, 3): 0.5}))
    head = path.read_bytes()[:5 + _HEADER.size]
    rec = np.array(sorted([(0, 2, 0.25), (*key, value)]), dtype=_ENTRY)
    path.write_bytes(head + rec.tobytes())
    _rejected(path, emb, what)


@pytest.mark.parametrize(
    "records, index",
    [
        ([(0, 1, 0.5), (0, 1, 0.9)], 1),                # a duplicate pair: the last would win
        ([(2, 3, 0.5), (0, 1, 0.25)], 1),               # descending
        ([(0, 2, 0.5), (1, 2, 0.25), (0, 3, 0.75)], 2),  # ascending a, then back
    ],
)
def test_cache_file_rejects_records_not_in_ascending_pair_order(tmp_path, records, index):
    _, emb = _setup([["a", "b"]])  # 4 words with the markers
    path = tmp_path / "bad.bin"
    save_cache(str(path), SimilarityCache(emb, {(0, 2): 0.25, (0, 3): 0.5}))
    raw = path.read_bytes()
    vocab_size, _, digest = _HEADER.unpack_from(raw, 5)
    body = np.array(records, dtype=_ENTRY).tobytes()
    path.write_bytes(raw[:5] + _HEADER.pack(vocab_size, len(records), digest) + body)
    _rejected(path, emb, rf"record {index} .*duplicate or out-of-order")


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



def test_constructor_rejects_pairs_that_are_not_ordered_ids():
    _, emb = _setup([["a", "b"]])  # 4 words with the markers
    for key in [(1, 1), (2, 1), (0, 4), (-1, 2)]:
        with pytest.raises(ValueError, match="not ids"):
            SimilarityCache(emb, {key: 0.5})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_constructor_rejects_non_finite_cosine(value):
    # load_cache refuses such a record, so a table must not hold one
    _, emb = _setup([["a", "b"]])
    with pytest.raises(ValueError, match=r"\(0, 1, .*\): non-finite cosine"):
        SimilarityCache(emb, {(0, 2): 0.25, (0, 1): value})


def test_constructor_rejects_cosine_outside_unit_interval(tmp_path):
    # accepted, save_cache wrote a file that load_cache refuses
    emb = np.eye(3)
    for value in (1.5, -1.0000001):
        with pytest.raises(ValueError, match=r"\(0, 1, .*\): cosine outside \[-1, 1\]"):
            SimilarityCache(emb, {(0, 1): value})
    path = tmp_path / "sim.bin"
    save_cache(str(path), SimilarityCache(emb, {(0, 1): 1.0, (0, 2): -1.0}))
    assert load_cache(str(path), emb).pairs() == {(0, 1): 1.0, (0, 2): -1.0}


def test_constructor_stores_single_precision_cosines(tmp_path):
    # a hand-set 0.1 was held as the double 0.1 and loaded back as
    # 0.10000000149011612; build_cache and load_cache hold float32 values
    emb = np.eye(3)
    cache = SimilarityCache(emb, {(0, 1): 0.1})
    rounded = float(np.float32(0.1))
    assert cache.pairs() == {(0, 1): rounded}
    assert cache.similarity(1, 0) == rounded
    path = tmp_path / "sim.bin"
    save_cache(str(path), cache)
    assert load_cache(str(path), emb).pairs() == cache.pairs()


@pytest.mark.parametrize("window", [0, -2])
def test_build_cache_rejects_window_below_one(window):
    sent = [["a", "b", "c"]]
    lex, emb = _setup(sent)
    with pytest.raises(ValueError, match="window"):
        build_cache(sent, lex, emb, window=window)


@pytest.mark.parametrize("extra", [-1, 1])
def test_build_cache_rejects_embeddings_not_one_row_per_word(extra):
    sent = [["a", "b", "c"]]
    lex, _ = _setup(sent)
    emb = init_embeddings(len(lex) + extra, 12, np.random.default_rng(0))
    read = []

    def sentences():
        read.append(True)
        yield from sent

    with pytest.raises(ValueError, match=rf"{len(lex) + extra} rows, lexicon has {len(lex)} words"):
        build_cache(sentences(), lex, emb)
    assert read == []  # rejected before the corpus is read


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_vector_rejected(value):
    with pytest.raises(ValueError, match="non-finite"):
        SimilarityCache(np.array([[value, 1.0], [1.0, 0.0]]))


# -- the numpy pair walk against the set-of-tuples walk it replaced ---------

def _reference_pairs(sentences, lexicon, window):
    """Every distinct unordered pair of unequal ids within `window`
    positions of one sentence, sorted."""
    pairs = set()
    for sent in sentences:
        ids = [lexicon.id_of(t) for t in add_boundary_markers(sent)]
        for i, a in enumerate(ids):
            for b in ids[i + 1:i + 1 + window]:
                if a != b:
                    pairs.add((a, b) if a < b else (b, a))
    return sorted(pairs)


def _reference_file(pairs, emb):
    """The version-2 cache file of `pairs`, written field by field."""
    unit = emb / np.linalg.norm(emb, axis=1)[:, None]
    digest = hashlib.blake2b(np.ascontiguousarray(unit), digest_size=32).digest()
    rec = b"".join(struct.pack("<IIf", a, b, c) for (a, b), c in sorted(pairs.items()))
    return b"WCSC" + bytes([2]) + struct.pack("<IQ32s", len(emb), len(pairs), digest) + rec


def _random_corpus(rng, n_sent, vocab, max_len):
    words = [f"w{i}" for i in range(vocab)]
    return [[words[int(i)] for i in rng.integers(vocab, size=int(rng.integers(max_len + 1)))]
            for _ in range(n_sent)]


def _assert_matches_reference(sent, window, tmp_path):
    lex = Lexicon.from_sentences(sent)
    emb = np.random.default_rng(window).normal(size=(len(lex), 5))
    cache = build_cache(sent, lex, emb, window=window)
    pairs = cache.pairs()
    assert list(pairs) == _reference_pairs(sent, lex, window)
    bare = SimilarityCache(emb)
    cached = np.array(list(pairs.values()), dtype=np.float64)
    direct = np.array([bare.similarity(a, b) for a, b in pairs], dtype=np.float64)
    assert cached.tobytes() == direct.tobytes()
    path = tmp_path / f"sim{window}.bin"
    save_cache(str(path), cache)
    assert path.read_bytes() == _reference_file(pairs, emb)
    assert list(load_cache(str(path), emb).pairs().items()) == list(pairs.items())


@pytest.mark.parametrize("window", range(1, 8))
def test_build_matches_reference_walk_on_edge_sentences(window, tmp_path):
    sent = [
        [],                          # markers only
        ["a"],                       # one token
        ["a", "b"],                  # shorter than most windows
        ["b", "b", "b", "b"],        # repeated ids: a == b is skipped
        ["a", "a", "c", "a", "c", "c", "a", "b", "c", "d", "e", "f", "g", "a"],
        [],
        ["d"],
    ]
    _assert_matches_reference(sent, window, tmp_path)


@pytest.mark.parametrize("block", [None, 1, 7, 64])
@pytest.mark.parametrize("window", range(1, 8))
def test_build_matches_reference_walk_across_blocks(window, block, tmp_path, monkeypatch):
    # the default block needs a corpus of more than 16k ids; small blocks
    # cut inside and between short corpora's sentences
    if block is not None:
        monkeypatch.setattr(simcache, "_BLOCK", block)
    rng = np.random.default_rng(window)
    n_sent = 5000 if block is None else 60
    sent = _random_corpus(rng, n_sent, 40, 9)
    assert block is not None or sum(len(s) + 2 + window for s in sent) > 2 * simcache._BLOCK
    _assert_matches_reference(sent, window, tmp_path)


def test_window_past_the_longest_sentence_walks_no_further():
    # the walk once ran every distance up to the window and laid a window
    # of separators after each sentence: 10**21 raised OverflowError
    sent = [["a", "b", "c", "d", "e", "f"], ["g"]]
    lex, emb = _setup(sent)
    longest = max(len(s) for s in sent) + 2  # the markers included
    want = build_cache(sent, lex, emb, window=longest).pairs()
    # (BOS, f) and (a, EOS), 6 apart in the longest sentence only
    assert len(want) == len(build_cache(sent, lex, emb, window=longest - 3).pairs()) + 2
    assert build_cache(sent, lex, emb, window=10**21).pairs() == want


@pytest.mark.parametrize("group", [1, 2, 7])
def test_build_and_load_fill_rows_across_groups(group, tmp_path, monkeypatch):
    # the default group needs a table of more than 16k pairs; small groups
    # cut between rows and hold rows longer than a group
    monkeypatch.setattr(simcache, "_GROUP", group)
    sent = _random_corpus(np.random.default_rng(group), 60, 40, 9)
    _assert_matches_reference(sent, 4, tmp_path)


def test_build_matches_reference_walk_on_random_corpora(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(20):
        window = int(rng.integers(1, 8))
        sent = _random_corpus(rng, int(rng.integers(1, 300)), int(rng.integers(1, 60)), 15)
        _assert_matches_reference(sent, window, tmp_path)


def test_packed_keys_do_not_wrap_past_32_bits(tmp_path):
    # V * V > 2**32: a product in 32 bits would alias pairs near V - 1
    n = 70_000 - 2
    words = [f"w{i}" for i in range(n)]
    lex = Lexicon((BOS, EOS, *words), (1,) * len(words) + (1, 1))
    v = len(lex)
    assert v == 70_000 and v * v > 2**32
    emb = np.random.default_rng(3).normal(size=(v, 2))
    sent = [words[-4:], [words[0], words[-1], words[-2]], [words[-1], words[1]]]
    cache = build_cache(sent, lex, emb)
    pairs = cache.pairs()
    assert list(pairs) == _reference_pairs(sent, lex, 4)
    assert (v - 2, v - 1) in pairs
    assert max(pairs) == (v - 2, v - 1)

    path = tmp_path / "big.bin"
    save_cache(str(path), cache)
    assert path.read_bytes() == _reference_file(pairs, emb)
    back = load_cache(str(path), emb)
    assert list(back.pairs().items()) == list(pairs.items())

    bare = SimilarityCache(emb)
    for a, b in pairs:
        assert back.similarity(b, a) == back.similarity(a, b) == bare.similarity(a, b)
    assert back.misses == 0


# -- the per-word rows against a dict keyed by (min, max) -------------------

@st.composite
def _tables(draw):
    """Embeddings, a pair table in an arbitrary insertion order (ids with
    no pair included), the same table in a second order, and lookups."""
    v = draw(st.integers(2, 12))
    emb = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(v, 3))
    ids = st.integers(0, v - 1)
    keys = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] < p[1]), unique=True))
    cos = st.floats(-1.0, 1.0, width=32)
    items = [(key, draw(cos)) for key in keys]
    again = draw(st.permutations(items))
    lookups = draw(st.lists(st.tuples(ids, st.lists(ids, min_size=1, max_size=5)), max_size=10))
    return emb, items, again, lookups


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_tables())
def test_rows_equal_a_reference_dict(tmp_path_factory, case):
    emb, items, again, lookups = case
    ref = dict(items)
    cache = SimilarityCache(emb, dict(items))
    bare = SimilarityCache(emb)

    def expected(a, b):
        if a == b:
            return 1.0, True
        key = (min(a, b), max(a, b))
        return (ref[key], True) if key in ref else (bare.similarity(a, b), False)

    for a, others in lookups:
        want = [expected(a, b) for b in others]
        for b, (val, hit) in zip(others, want):
            hits0, misses0 = cache.hits, cache.misses
            assert repr(cache.similarity(a, b)) == repr(val)
            assert (cache.hits - hits0, cache.misses - misses0) == (hit, not hit)
        hits0, misses0 = cache.hits, cache.misses
        total = 0.0
        for val, _ in want:
            total += val
        assert repr(cache.mean_similarity(a, others)) == repr(total / len(others))
        hits = sum(hit for _, hit in want)
        assert (cache.hits - hits0, cache.misses - misses0) == (hits, len(others) - hits)

    assert list(cache.pairs().items()) == sorted(ref.items())
    assert cache.entries == len(ref)
    path = tmp_path_factory.mktemp("rows") / "sim.bin"
    save_cache(str(path), cache)
    raw = path.read_bytes()
    assert raw == _reference_file(ref, emb)
    save_cache(str(path), SimilarityCache(emb, dict(again)))
    assert path.read_bytes() == raw
    assert list(load_cache(str(path), emb).pairs().items()) == sorted(ref.items())


# Bytes per pair at the peak of load_cache.  The bound is set by the object
# sizes of CPython 3.11, the tier-1 interpreter: a float is 24 bytes and a
# dict slot 24 plus its index.  Rows of shared id keys peak near 78 bytes
# a pair here; a dict keyed by packed ints, with a 32-byte int per pair and
# full-length lists of keys and values alive at once, peaked near 172.
LOAD_PEAK_BYTES_PER_PAIR = 110


def _random_table_file(path, v, n):
    """Write a valid cache file of `n` random pairs over `v` ids, without
    building the table in memory; returns its embeddings."""
    rng = np.random.default_rng(5)
    emb = rng.normal(size=(v, 4))
    keys = rng.integers(v * v, size=3 * n)
    a, b = np.divmod(keys, v)
    keys = np.sort(rng.choice(np.unique(keys[a < b]), size=n, replace=False))
    rec = np.empty(n, dtype=_ENTRY)
    rec["a"], rec["b"] = np.divmod(keys, v)
    rec["cos"] = rng.uniform(-1, 1, n)
    digest = _unit_digest(SimilarityCache(emb)._unit)
    path.write_bytes(b"WCSC" + bytes([2]) + _HEADER.pack(v, n, digest) + rec.tobytes())
    return emb


def test_load_cache_peak_memory_per_pair(tmp_path):
    v, n = 2500, 100_000
    path = tmp_path / "sim.bin"
    emb = _random_table_file(path, v, n)
    tracemalloc.start()
    try:
        cache = load_cache(str(path), emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < LOAD_PEAK_BYTES_PER_PAIR, f"{peak / n:.1f} bytes per pair"
    assert cache.entries == n


# -- save_cache in row groups against one array of the whole table ----------

def _whole_table_bytes(cache):
    """The cache file as one array of every record, field by field through
    np.fromiter: the writer that row groups replaced, kept as reference."""
    near = cache.near
    sizes = np.fromiter(map(len, near), dtype=np.int64, count=len(near))
    n = int(sizes.sum())
    rec = np.empty(n, dtype=_ENTRY)
    rec["a"] = np.repeat(np.arange(len(near)), sizes)
    rec["b"] = np.fromiter(chain.from_iterable(near), dtype=np.uint32, count=n)
    rec["cos"] = np.fromiter(chain.from_iterable(map(dict.values, near)), dtype=np.float32, count=n)
    head = _HEADER.pack(cache.vocab_size, n, _unit_digest(cache._unit))
    return b"WCSC" + bytes([2]) + head + rec.tobytes()


@pytest.mark.parametrize("group", [1, 7, 64])
def test_save_cache_in_row_groups_equals_whole_table_writer(group, tmp_path, monkeypatch):
    monkeypatch.setattr(simcache, "_GROUP", group)
    v = 100
    rng = np.random.default_rng(group)
    emb = rng.normal(size=(v, 3))
    keys = {(int(a), int(b)) for a, b in rng.integers(v, size=(300, 2)) if a < b}
    keys |= {(2, b) for b in range(3, v)}  # a row of 97 pairs: longer than every group
    keys = {(a, b) for a, b in keys if a not in (5, 6, 7)}  # and rows with no pair
    cache = SimilarityCache(emb, {key: float(np.float32(rng.uniform(-1, 1))) for key in keys})
    assert max(map(len, cache.near)) > group
    path = tmp_path / "sim.bin"
    save_cache(str(path), cache)
    assert path.read_bytes() == _whole_table_bytes(cache)
    assert list(load_cache(str(path), emb).pairs().items()) == list(cache.pairs().items())


def test_save_cache_peak_memory_is_bounded(tmp_path):
    # one array of the whole table peaked near 20 bytes a pair, 6 MiB here;
    # a row group holds at most _GROUP pairs, about 0.3 MiB of arrays
    v, n = 2500, 300_000
    src = tmp_path / "src.bin"
    emb = _random_table_file(src, v, n)
    cache = load_cache(str(src), emb)
    path = tmp_path / "sim.bin"
    tracemalloc.start()
    try:
        save_cache(str(path), cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{peak / 2**20:.2f} MiB"
    assert path.read_bytes() == src.read_bytes()
