"""Word dictionary with counts and the target-subsampling rules.

Each id's characters in running text are kept in one table, with "" for
the boundary markers, which are tokens, not text.  The longest word, the
prefix table behind `Lexicon.spans`, the decoder's test for characters no
word holds, the keep override and the sampler's flank texts all read that
table, so a marker is told from a real word in one place.
"""
from __future__ import annotations

import re
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .corpus import BOS, EOS, MARKERS, _escaped, add_boundary_markers, read_lines

__all__ = ["Lexicon", "SubsampleTable"]


class Lexicon:
    """Immutable word dictionary: dense ids, raw counts, total token count.

    Ids are assigned in first-occurrence order and run 0..V-1 without gaps.
    """

    def __init__(self, words: Iterable[str], counts: Iterable[int]):
        self._words: tuple[str, ...] = tuple(words)
        self._counts = np.asarray(list(counts), dtype=np.int64)
        if len(self._words) == 0:
            raise ValueError("empty lexicon")
        if len(self._words) != len(self._counts):
            raise ValueError("words and counts differ in length")
        if (self._counts < 1).any():
            raise ValueError("all counts must be >= 1")
        self._index = {w: i for i, w in enumerate(self._words)}
        if len(self._index) != len(self._words):
            raise ValueError("duplicate word in lexicon")
        self.total_tokens = int(self._counts.sum())
        # each id's characters in running text: "" for the markers
        self._texts = tuple("" if w in MARKERS else w for w in self._words)
        # characters in the longest real word
        self.longest = max(map(len, self._texts))

    @classmethod
    def from_sentences(cls, sentences: Iterable[list[str]]) -> "Lexicon":
        """Count every token of a segmented corpus, boundary markers included."""
        counts: dict[str, int] = {}
        for sent in sentences:
            for tok in add_boundary_markers(sent):
                counts[tok] = counts.get(tok, 0) + 1
        if not counts:
            raise ValueError("cannot build a lexicon from an empty corpus")
        return cls(counts.keys(), counts.values())

    @property
    def words(self) -> tuple[str, ...]:
        return self._words

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @cached_property
    def _prefix_ids(self) -> dict[str, int]:
        # every non-empty prefix of a real word -> the id of the word it
        # spells, or -1 when it spells none.  No key maps to a marker's id;
        # marker text spelled inside a real word is a prefix like any other.
        # Built on first use, so loading a dictionary does not pay for it.
        table: dict[str, int] = {}
        for wid, word in enumerate(self._texts):
            if not word:  # a marker
                continue
            table[word] = wid
            for k in range(1, len(word)):
                table.setdefault(word[:k], -1)
        return table

    @cached_property
    def _foreign(self) -> Callable[[str], re.Match | None]:
        # `search` for a character that no real word holds, so a text it
        # matches has no tiling by dictionary words; one character class,
        # scanned in C.  Markers add no character.  Built on first decode,
        # like _prefix_ids.
        alphabet = "".join(sorted(set().union(*self._texts)))
        return re.compile(f"[^{re.escape(alphabet)}]" if alphabet else "(?s).").search

    def spans(self, text: str) -> list[tuple[int, int, int]]:
        """(start, end, id) of every real word spelled by text[start:end],
        ordered by start and then by end.

        Each start extends only while the text is a prefix of some real
        word.  A boundary marker is never returned, even where the text
        spells one.
        """
        get = self._prefix_ids.get
        n = len(text)
        out: list[tuple[int, int, int]] = []
        for start in range(n):
            for end in range(start + 1, n + 1):
                wid = get(text[start:end])
                if wid is None:  # no real word starts with text[start:end]
                    break
                if wid >= 0:
                    out.append((start, end, wid))
        return out

    @cached_property
    def _inword(self) -> dict[int, tuple[tuple[int, int], ...]]:
        # the in-word negatives of each target id, filled on first use by
        # sampler.build_occurrence_batch, so each word's spans are walked once
        return {}

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def id_of(self, word: str) -> int:
        """The id of `word`; an unknown word is a KeyError."""
        try:
            return self._index[word]
        except KeyError:
            raise _unknown(word) from None

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Ids of a sentence wrapped in the boundary markers, its tokens
        escaped: `[id_of(t) for t in add_boundary_markers(tokens)]`, mapped
        in one C-level pass.  An unknown word is id_of's KeyError."""
        index = self._index
        try:
            return [index[BOS], *map(index.__getitem__, _escaped(list(tokens))), index[EOS]]
        except KeyError as exc:
            raise _unknown(exc.args[0]) from None

    def word_of(self, wid: int) -> str:
        """The word with id `wid`."""
        return self._words[wid]

    def save(self, path: str) -> None:
        """One 'word<TAB>count' line per entry, in id order."""
        with open(path, "w", encoding="utf-8") as fh:
            for word, count in zip(self._words, self._counts):
                fh.write(f"{word}\t{int(count)}\n")

    @classmethod
    def load(cls, path: str) -> "Lexicon":
        """Inverse of save.  A malformed line, a word listed twice or a count
        below 1 raises a ValueError naming the file and line."""
        first_line: dict[str, int] = {}  # word -> line it was first listed on
        counts: list[int] = []
        for lineno, line in enumerate(read_lines(path), start=1):
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'word<TAB>count'")
            word = fields[0]
            if word in first_line:
                raise ValueError(
                    f"{path}:{lineno}: duplicate word {word!r} (first on line {first_line[word]})"
                )
            first_line[word] = lineno
            try:
                count = int(fields[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: count is not an integer") from None
            if count < 1:
                raise ValueError(f"{path}:{lineno}: count must be >= 1")
            counts.append(count)
        if not counts:
            raise ValueError(f"{path}: no entries")
        return cls(first_line.keys(), counts)


def _unknown(word: str) -> KeyError:
    return KeyError(f"unknown word {word!r}; was the lexicon built from this corpus?")


class SubsampleTable:
    """Per-word keep probabilities with the multi-character keep override.

    A word survives target selection with probability
    min(1, sqrt(epsilon / f(w))).  A multi-character word is never
    discarded when its own keep probability falls below mu/N times the
    summed keep probabilities of the distinct real words spelled by its
    proper substrings (`Lexicon.spans`), N being their number.  Marker
    tokens are atomic symbols: they never receive the override and never
    count as a word's part, even where a word spells one.  Both are
    arrays indexed by word id: `p_sub` holds the keep probabilities and
    `keep_override` the override.
    """

    def __init__(self, lexicon: Lexicon, epsilon: float = 1e-5, mu: float = 0.5):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if mu <= 0:
            raise ValueError("mu must be positive")
        self.lexicon = lexicon
        self.mu = mu
        freqs = lexicon.counts / lexicon.total_tokens
        self.p_sub = np.minimum(1.0, np.sqrt(epsilon / freqs))
        self.keep_override = np.zeros(len(lexicon), dtype=bool)
        for wid, word in enumerate(lexicon._texts):
            if word:  # never a marker
                self.keep_override[wid] = self._multichar_keep(word, wid)

    def _multichar_keep(self, word: str, wid: int) -> bool:
        # distinct ids of the proper-substring spans, in span order, so the
        # sum below is the same in every process
        parts = dict.fromkeys(
            part for start, end, part in self.lexicon.spans(word) if end - start < len(word)
        )
        if not parts:
            return False
        threshold = self.mu / len(parts) * float(self.p_sub[list(parts)].sum())
        return float(self.p_sub[wid]) < threshold
