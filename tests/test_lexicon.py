"""Dictionary bookkeeping and the subsampling rules."""
import re

import pytest
from hypothesis import given, settings, strategies as st

from embseg.corpus import BOS, EOS, MARKERS, add_boundary_markers
from embseg.lexicon import Lexicon, SubsampleTable


def test_counts_ids_and_lookup():
    lex = Lexicon.from_sentences([["a", "b"], ["b", "c"]])
    assert lex.words == (BOS, "a", "b", EOS, "c")
    assert lex.counts.tolist() == [2, 1, 2, 2, 1]
    assert lex.total_tokens == 8
    assert len(lex) == 5
    for wid, word in enumerate(lex.words):
        assert lex.id_of(word) == wid
        assert lex.word_of(wid) == word
    assert "b" in lex
    assert "zz" not in lex


def test_markers_counted_by_default():
    lex = Lexicon.from_sentences([["a"]])
    assert lex.words == (BOS, "a", EOS)
    assert lex.total_tokens == 3


def test_longest_counts_real_words_only():
    assert Lexicon.from_sentences([["a", "b"]]).longest == 1
    assert Lexicon((BOS, EOS), (1, 1)).longest == 0
    # the per-id text table it reads blanks the markers only, not marker text in a word
    lex = Lexicon.from_sentences([["ab", "x⟨BOS⟩"]])
    assert lex._texts == ("", "ab", "x⟨BOS⟩", "")
    assert lex.longest == len("x⟨BOS⟩")


def test_prefixes_map_every_prefix_of_a_real_word():
    lex = Lexicon.from_sentences([["ab", "abcd", "b"], ["⟨EOS⟩z", "x⟨BOS⟩"]])
    assert lex._prefix_ids == {
        "a": -1, "ab": lex.id_of("ab"), "abc": -1, "abcd": lex.id_of("abcd"),
        "b": lex.id_of("b"),
        # marker text spelled inside real words is a prefix, never a word
        "⟨": -1, "⟨E": -1, "⟨EO": -1, "⟨EOS": -1, "⟨EOS⟩": -1, "⟨EOS⟩z": lex.id_of("⟨EOS⟩z"),
        "x": -1, "x⟨": -1, "x⟨B": -1, "x⟨BO": -1, "x⟨BOS": -1, "x⟨BOS⟩": lex.id_of("x⟨BOS⟩"),
    }


def test_load_leaves_prefixes_unbuilt(tmp_path):
    path = str(tmp_path / "dict.tsv")
    Lexicon.from_sentences([["ab", "c"]]).save(path)
    lex = Lexicon.load(path)
    assert "_prefix_ids" not in vars(lex)  # built on first use, by the sampler or decoder
    assert lex.spans("ab") == [(0, 2, lex.id_of("ab"))]
    assert lex._prefix_ids["a"] == -1


@pytest.mark.parametrize("words", [["a\\b"], ["\\", "ab"], ["-", "a", "c"], ["c-a"], ["]", "^b"], ["^", "a]"]])
def test_foreign_matches_characters_that_no_real_word_holds(words, tmp_path):
    path = str(tmp_path / "dict.tsv")
    Lexicon.from_sentences([words]).save(path)
    lex = Lexicon.load(path)
    assert "_foreign" not in vars(lex)  # built on first decode, not at load
    alphabet = set("".join(words))
    for ch in "abc-^]\\⟨BOS⟩":
        assert bool(lex._foreign(ch)) == (ch not in alphabet)  # markers add no character
    assert not lex._foreign("".join(words))
    assert Lexicon((BOS, EOS), (1, 1))._foreign("a")  # no real word: every character is foreign


# pieces that can spell a boundary marker inside a word or a text, and
# words longer than the decoder's default five-character bound
_WORD = st.lists(st.sampled_from(["a", "b", "c", EOS]), min_size=1, max_size=8).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sets(_WORD.filter(lambda w: w not in MARKERS), min_size=1, max_size=8),
    st.lists(st.sampled_from(["a", "b", "c", "x", BOS, EOS]), max_size=14).map("".join),
)
def test_spans_equal_brute_force(words, text):
    # "x" is never a word, and most prefixes of the drawn words are not
    # words either: each start stops extending at the first non-prefix
    lex = Lexicon.from_sentences([sorted(words)])
    real = {w: i for i, w in enumerate(lex.words) if w not in MARKERS}
    n = len(text)
    assert lex.spans(text) == [
        (s, e, real[text[s:e]]) for s in range(n) for e in range(s + 1, n + 1) if text[s:e] in real
    ]
    markers = {lex.id_of(BOS), lex.id_of(EOS)}
    assert not markers & {wid for _, _, wid in lex.spans(text + BOS + EOS)}


def test_unknown_word_message():
    lex = Lexicon(("a",), (1,))
    with pytest.raises(KeyError, match="unknown word"):
        lex.id_of("b")


# tokens that spell a marker, carry the escape prefix, or hold a stray "⟨"
_TOKEN = st.lists(st.sampled_from(["a", "b", "⟨", "⟨⟨", BOS, EOS]), min_size=1, max_size=4).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.lists(_TOKEN, max_size=6), min_size=1, max_size=4))
def test_encode_equals_id_of_over_marked_tokens(sentences):
    lex = Lexicon.from_sentences(sentences)
    for tokens in sentences:
        want = [lex.id_of(t) for t in add_boundary_markers(tokens)]
        assert lex.encode(tokens) == want
        assert lex.encode(iter(tokens)) == want


@pytest.mark.parametrize("tokens, unknown", [
    (["a", "zz"], "zz"),
    (["a", BOS], "⟨⟨" + BOS),  # escaped before lookup, as add_boundary_markers does
])
def test_encode_unknown_word_is_id_of_error(tokens, unknown):
    lex = Lexicon.from_sentences([["a", "b"]])
    with pytest.raises(KeyError) as raised:
        lex.id_of(unknown)
    with pytest.raises(KeyError) as got:
        lex.encode(tokens)
    assert got.value.args == raised.value.args
    assert "was the lexicon built from this corpus?" in got.value.args[0]


@pytest.mark.parametrize(
    "words,counts",
    [((), ()), (("a", "b"), (1,)), (("a",), (0,)), (("a", "a"), (1, 1))],
)
def test_constructor_validation(words, counts):
    with pytest.raises(ValueError):
        Lexicon(words, counts)


def test_save_load_round_trip(tmp_path):
    lex = Lexicon.from_sentences([["天", "天气"], ["天"]])
    path = str(tmp_path / "dict.tsv")
    lex.save(path)
    back = Lexicon.load(path)
    assert back.words == lex.words
    assert back.counts.tolist() == lex.counts.tolist()
    assert back.total_tokens == lex.total_tokens


def test_load_malformed(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("word-no-tab\n", encoding="utf-8")
    with pytest.raises(ValueError, match="word<TAB>count"):
        Lexicon.load(str(bad))
    bad.write_text("w\tnot-an-int\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not an integer"):
        Lexicon.load(str(bad))


@pytest.mark.parametrize("text,message", [
    ("a\t1\nb\t2\n\na\t3\n", r":4: duplicate word 'a' \(first on line 1\)"),
    ("a\t1\nb\t0\n", ":2: count must be >= 1"),
    ("\n", ": no entries"),
], ids=["duplicate", "zero-count", "empty"])
def test_load_errors_name_file_and_line(tmp_path, text, message):
    bad = tmp_path / "bad.tsv"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(str(bad)) + message):
        Lexicon.load(str(bad))


def _flat_lexicon() -> Lexicon:
    # f(one) equals 1e-5 exactly, f(four) equals 4e-5
    return Lexicon(("one", "four", "filler"), (1, 4, 99995))


def test_subsample_formula_exact_points():
    lex = _flat_lexicon()
    table = SubsampleTable(lex)
    assert table.p_sub[lex.id_of("one")] == 1.0
    assert table.p_sub[lex.id_of("four")] == 0.5
    assert table.p_sub[lex.id_of("filler")] < 0.005


def test_subsample_validation():
    lex = _flat_lexicon()
    with pytest.raises(ValueError):
        SubsampleTable(lex, epsilon=0.0)
    with pytest.raises(ValueError):
        SubsampleTable(lex, mu=0.0)


def _danshi_lexicon(danshi: int, filler: int) -> Lexicon:
    return Lexicon(("但是", "但", "是", "口"), (danshi, 6400, 10000, filler))


def test_multichar_keep_hand_cases():
    # frequent enough to be kept often on its own: no override
    lex = _danshi_lexicon(1600, 1582000)
    table = SubsampleTable(lex)
    assert table.p_sub[lex.id_of("但是")] == pytest.approx(0.1, rel=1e-12)
    assert table.p_sub[lex.id_of("但")] == pytest.approx(0.05, rel=1e-12)
    assert table.p_sub[lex.id_of("是")] == pytest.approx(0.04, rel=1e-12)
    # threshold is mu / 2 * (0.05 + 0.04) = 0.0225 and 0.1 is not below it
    assert table.keep_override[lex.id_of("但是")].item() is False

    # a hundred times more frequent: its own keep probability sinks below
    lex2 = _danshi_lexicon(160000, 1423600)
    table2 = SubsampleTable(lex2)
    assert table2.p_sub[lex2.id_of("但是")] == pytest.approx(0.01, rel=1e-12)
    assert table2.keep_override[lex2.id_of("但是")].item() is True


def test_multichar_keep_needs_known_substrings():
    lex = Lexicon(("但是", "口"), (1, 999))
    table = SubsampleTable(lex)
    assert table.keep_override[lex.id_of("但是")].item() is False
    assert table.keep_override[lex.id_of("口")].item() is False  # single characters never qualify


def test_markers_are_atomic():
    lex = Lexicon(
        (BOS, "⟨", "S⟩", "ab", "a", "b", "口"),
        (400000, 4, 4, 400000, 4, 4, 3199988),
    )
    table = SubsampleTable(lex)
    assert table.keep_override[lex.id_of("ab")].item() is True  # override fires for a real word
    assert table.keep_override[lex.id_of(BOS)].item() is False  # markers never qualify


def test_multichar_keep_never_counts_a_marker_as_a_part():
    # counted as a part, the end marker's keep probability raised the
    # threshold above q⟨EOS⟩'s own; its one real part is q
    lex = Lexicon((BOS, EOS, "q⟨EOS⟩", "q", "filler"), (1000, 1000, 40, 5, 97955))
    assert SubsampleTable(lex).keep_override[lex.id_of("q⟨EOS⟩")].item() is True
