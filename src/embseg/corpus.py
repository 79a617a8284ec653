"""Corpus handling: delimiter splitting, reassembly, boundary markers.

Raw text is cut into decodable fragments around delimiter runs, and
segmented fragments are later stitched back together in the original
order.  Boundary markers are reserved tokens wrapped around every
training sentence so that sentence edges take part in the embedding
geometry like ordinary words.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "BOS",
    "EOS",
    "MARKERS",
    "FRAGMENT",
    "DELIMITER",
    "Piece",
    "is_word_char",
    "strip_delimiters",
    "split_fragments",
    "fragment_texts",
    "reassemble",
    "read_lines",
    "read_token_lines",
    "read_segmented_corpus",
    "escape_token",
    "add_boundary_markers",
]

BOS = "⟨BOS⟩"
EOS = "⟨EOS⟩"
MARKERS = frozenset((BOS, EOS))

FRAGMENT = "FRAGMENT"
DELIMITER = "DELIMITER"

# Tokens colliding with a marker get this prepended; see escape_token.
_ESCAPE = "⟨⟨"


@dataclass(frozen=True)
class Piece:
    """One maximal run of same-class characters from a raw line."""

    kind: str
    text: str


# The ranges of is_word_char, written down only here so that they can be
# widened in a single place; every word-character test uses this class.
_WORD_CLASS = "\u3400-\u4dbf\u4e00-\u9fffA-Za-z0-9\uff10-\uff19"
_WORD_CHAR = re.compile(f"[{_WORD_CLASS}]")
_DELIMITER_RUN = re.compile(f"([^{_WORD_CLASS}]+)")


def is_word_char(ch: str) -> bool:
    """True for characters that belong inside fragments.

    Word characters are CJK Unified Ideographs (plus Extension A), ASCII
    letters, and ASCII or fullwidth digits.  Everything else, including
    fullwidth Latin letters, counts as a delimiter.
    """
    return _WORD_CHAR.fullmatch(ch) is not None


def strip_delimiters(text: str) -> str:
    """`text` with every delimiter character removed."""
    return _DELIMITER_RUN.sub("", text)


def split_fragments(line: str) -> list[Piece]:
    """Cut a raw line into alternating fragment and delimiter pieces.

    Concatenating the piece texts reproduces the line byte for byte; no
    normalization of any kind is applied.
    """
    # the capture group keeps the delimiter runs, at the odd indices
    parts = _DELIMITER_RUN.split(line)
    return [
        Piece(DELIMITER if i & 1 else FRAGMENT, text)
        for i, text in enumerate(parts)
        if text
    ]


def fragment_texts(pieces: Iterable[Piece]) -> list[str]:
    """The fragment piece texts, in order."""
    return [p.text for p in pieces if p.kind == FRAGMENT]


def reassemble(fragments: list[list[str]], pieces: list[Piece]) -> str:
    """Interleave segmented fragments with the original delimiter pieces.

    Each fragment's word list must tile its piece text exactly.  Tokens
    (words and delimiter runs) are joined by single spaces, so removing
    the inserted separators recovers the raw line.
    """
    n_frag = sum(1 for p in pieces if p.kind == FRAGMENT)
    if len(fragments) != n_frag:
        raise ValueError(
            f"fragment count mismatch: {len(fragments)} segmentations for {n_frag} fragments"
        )
    tokens: list[str] = []
    seg = iter(fragments)
    for piece in pieces:
        if piece.kind == DELIMITER:
            tokens.append(piece.text)
            continue
        words = next(seg)
        if "".join(words) != piece.text:
            raise ValueError(f"segmentation does not tile fragment {piece.text!r}")
        tokens.extend(words)
    return " ".join(tokens)


def read_lines(path: str) -> Iterator[str]:
    """Yield each line of a UTF-8 text file without its "\n".

    Every input file is read here.  Only "\n" ends a line, so a "\r"
    before it stays part of the line; blank lines are kept.  Invalid UTF-8
    raises a ValueError that starts with `path:line:`.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.rstrip(b"\n").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid UTF-8: {exc}") from None
            yield line


def read_token_lines(path: str) -> Iterator[list[str]]:
    """Yield the tokens of each line, split at any whitespace; a blank line
    gives [].

    Equal tokens are one str object: a reader that keeps the whole file
    holds each distinct word once, not once per occurrence (a corpus has
    many more tokens than words).  The lists equal `line.split()`.
    """
    seen: dict[str, str] = {}  # this file's words; dropped with the generator
    one = seen.setdefault
    for line in read_lines(path):
        yield [one(tok, tok) for tok in line.split()]


def read_segmented_corpus(path: str) -> Iterator[list[str]]:
    """Yield one token list per non-blank line, split at any whitespace.

    As in `read_token_lines`, equal tokens of the file are one str object.
    """
    for tokens in read_token_lines(path):
        if tokens:
            yield tokens


def escape_token(token: str) -> str:
    """Rename tokens that would collide with a boundary marker.

    Prepends "⟨⟨" to the markers themselves and to tokens already carrying
    that prefix; the map is injective, so dropping one leading "⟨⟨"
    inverts it for every input.
    """
    if token in MARKERS or token.startswith(_ESCAPE):
        return _ESCAPE + token
    return token


def _escaped(tokens: list[str]) -> Iterable[str]:
    # the tokens through escape_token: the list itself when none holds "⟨",
    # since every token escape_token renames holds one
    if "⟨" not in "".join(tokens):
        return tokens
    return map(escape_token, tokens)


def add_boundary_markers(tokens: Iterable[str]) -> list[str]:
    """Wrap a sentence with the reserved begin and end marker tokens."""
    return [BOS, *_escaped(list(tokens)), EOS]
