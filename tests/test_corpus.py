"""Fragment splitting, reassembly, marker escaping, and file readers."""
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embseg.corpus import (
    BOS,
    EOS,
    MARKERS,
    add_boundary_markers,
    escape_token,
    fragment_texts,
    is_word_char,
    read_lines,
    read_segmented_corpus,
    read_token_lines,
    reassemble,
    split_fragments,
    strip_delimiters,
)
from oracles import make_mixed_lines, unescape_token


def test_split_fragments_example():
    # fragments at the even indices, delimiter runs at the odd ones; a line
    # that ends with a delimiter ends with an empty fragment
    assert split_fragments("x1。y2！") == ["x1", "。", "y2", "！", ""]
    assert fragment_texts(split_fragments("x1。y2！")) == ["x1", "y2"]


def test_split_fragments_empty_line():
    assert split_fragments("") == [""]
    assert fragment_texts(split_fragments("")) == []


@pytest.mark.parametrize(
    "ch,expected",
    [
        ("天", True),   # CJK unified ideograph
        ("㐀", True),   # extension A starts at U+3400
        ("a", True),
        ("Z", True),
        ("7", True),
        ("５", True),   # fullwidth digit
        ("Ａ", False),  # fullwidth Latin letters are delimiters
        ("。", False),
        (" ", False),
        ("⟨", False),
        ("〇", False),  # U+3007 sits outside both CJK ranges
    ],
)
def test_is_word_char(ch, expected):
    assert is_word_char(ch) is expected


# the documented word-character ranges, inclusive
_WORD_RANGES = [(0x30, 0x39), (0x41, 0x5A), (0x61, 0x7A), (0x3400, 0x4DBF), (0x4E00, 0x9FFF), (0xFF10, 0xFF19)]


def _in_word_ranges(cp):
    return any(lo <= cp <= hi for lo, hi in _WORD_RANGES)


@pytest.mark.parametrize("lo,hi", _WORD_RANGES)
def test_word_char_range_edges(lo, hi):
    assert [is_word_char(chr(cp)) for cp in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1)] == [
        False, True, True, True, True, False,
    ]


def test_word_char_class_over_the_bmp():
    text = "".join(map(chr, range(0x10000)))
    want = [_in_word_ranges(cp) for cp in range(0x10000)]
    assert [is_word_char(ch) for ch in text] == want
    assert strip_delimiters(text) == "".join(ch for ch, keep in zip(text, want) if keep)
    parts = split_fragments(text)
    assert "".join(parts) == text
    assert all(parts[1:-1])  # only the end fragments may be empty
    pos = 0
    for i, part in enumerate(parts):
        assert set(want[pos:pos + len(part)]) <= {i % 2 == 0}
        pos += len(part)


_ALPHABET = "天地人山水ab12５Ａ。，!? ⟨⟩«»"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(alphabet=_ALPHABET, max_size=40))
def test_split_fragments_partitions_line(line):
    parts = split_fragments(line)
    assert len(parts) % 2 == 1
    assert "".join(parts) == line
    for i, part in enumerate(parts):
        # even: a maximal word-character run, empty only at either end;
        # odd: a non-empty delimiter run between two fragments
        if i % 2 == 0 and not part:
            assert i in (0, len(parts) - 1)
            continue
        assert {is_word_char(c) for c in part} == {i % 2 == 0}


def test_reassemble_round_trip_mixed_lines():
    rng = np.random.default_rng(0)
    for line in make_mixed_lines(200, rng):
        parts = split_fragments(line)
        frags = fragment_texts(parts)
        out = reassemble([list(f) for f in frags], parts)
        assert out.replace(" ", "") == line


_DELIMS = "。，!?Ａ⟨⟩«»"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(alphabet=_DELIMS, min_size=1, max_size=4),
       st.text(alphabet=_ALPHABET.replace(" ", ""), max_size=30))
def test_reassemble_round_trips_lines_with_delimiter_ends(run, body):
    # a line that starts or ends with a delimiter splits with an empty first
    # or last fragment, which gets no word list and yields no token
    for line in (run + body, body + run, run + body + run, run):
        parts = split_fragments(line)
        out = reassemble([list(f) for f in fragment_texts(parts)], parts)
        assert "" not in out.split(" ")
        assert out.replace(" ", "") == line


def test_reassemble_fragment_count_mismatch():
    pieces = split_fragments("ab。")
    with pytest.raises(ValueError, match="fragment count"):
        reassemble([], pieces)


def test_reassemble_tiling_mismatch():
    pieces = split_fragments("ab")
    with pytest.raises(ValueError, match="tile"):
        reassemble([["a", "c"]], pieces)


def test_escape_round_trip_adversarial():
    tokens = [BOS, EOS, "⟨⟨" + BOS, "⟨⟨", "⟨⟨⟨⟨x", "plain", "⟨BOS", "BOS⟩"]
    escaped = [escape_token(t) for t in tokens]
    assert all(e not in MARKERS for e in escaped)
    assert [unescape_token(e) for e in escaped] == tokens
    assert len(set(escaped)) == len(set(tokens))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(alphabet="⟨⟩BOSE天a", min_size=1, max_size=10))
def test_escape_round_trip_property(token):
    assert unescape_token(escape_token(token)) == token
    assert escape_token(token) not in MARKERS


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(
    st.sampled_from([BOS, EOS, "⟨⟨" + EOS, "⟨⟨"]) | st.text(alphabet="⟨⟩BOSE天a", min_size=1, max_size=8),
    max_size=6,
))
def test_add_boundary_markers_escapes_every_token(tokens):
    assert add_boundary_markers(iter(tokens)) == [BOS, *map(escape_token, tokens), EOS]


def test_add_boundary_markers_escapes_collisions():
    assert add_boundary_markers(["a", BOS]) == [BOS, "a", "⟨⟨" + BOS, EOS]


def test_read_segmented_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("今天 天气\n\n 天 \n", encoding="utf-8")
    assert list(read_segmented_corpus(str(path))) == [["今天", "天气"], ["天"]]


def test_read_segmented_corpus_holds_one_object_per_word(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("今天 天气 很好\n\n天气 今天\n今天 今天\n", encoding="utf-8")
    lines = list(read_segmented_corpus(str(path)))
    assert lines == [["今天", "天气", "很好"], ["天气", "今天"], ["今天", "今天"]]
    today = lines[0][0]
    assert all(tok is today for tok in (lines[1][1], lines[2][0], lines[2][1]))
    assert lines[1][0] is lines[0][1]


_LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_LINE_TEXT, st.sampled_from(["", " ", "今天 天气", " 天气\t今天 "])), max_size=8))
def test_readers_split_like_str_split(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "tokens.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    want = [line.split() for line in lines]
    assert list(read_token_lines(str(path))) == want
    assert list(read_segmented_corpus(str(path))) == [tokens for tokens in want if tokens]
    seen = {}
    for tokens in read_token_lines(str(path)):
        assert all(seen.setdefault(tok, tok) is tok for tok in tokens)


def test_reading_repeated_lines_holds_list_slots_not_token_copies(tmp_path):
    # one str per occurrence costs about 80 bytes a token here; with one
    # per word a line costs only its list, with room for spare slots
    line = "今天 天气 很好 我们 出去 走走"
    n = 2000
    path = tmp_path / "corpus.txt"
    path.write_text((line + "\n") * n, encoding="utf-8")
    k = len(line.split())
    per_line = sys.getsizeof([None] * 2 * k)
    tracemalloc.start()
    try:
        lines = list(read_segmented_corpus(str(path)))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(lines) == n
    assert held < n * per_line, f"{held / n:.0f} bytes per line, bound {per_line}"


def test_read_segmented_corpus_bad_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok line\n\xff\xfe\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: invalid UTF-8"):
        list(read_segmented_corpus(str(path)))


@pytest.mark.parametrize("data,lines", [
    (b"", []),
    (b"\n", [""]),
    (b"a\n\nb", ["a", "", "b"]),
    (b"a \t\r\nb\rc\n", ["a \t\r", "b\rc"]),  # only "\n" ends a line
    ("天\u2028地\x85\n".encode("utf-8"), ["天\u2028地\x85"]),
])
def test_read_lines_splits_only_at_newline(tmp_path, data, lines):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    assert list(read_lines(str(path))) == lines
