"""Word dictionary with counts, frequencies, and target-subsampling rules."""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .corpus import MARKERS, add_boundary_markers

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
        self.longest = max(map(len, self._words))  # characters in the longest entry

    @classmethod
    def from_sentences(cls, sentences: Iterable[list[str]], add_markers: bool = True) -> "Lexicon":
        """Count every token of a segmented corpus, markers included by default."""
        counts: dict[str, int] = {}
        for sent in sentences:
            tokens = add_boundary_markers(sent) if add_markers else sent
            for tok in tokens:
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

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def id_of(self, word: str) -> int:
        try:
            return self._index[word]
        except KeyError:
            raise KeyError(f"unknown word {word!r}; was the lexicon built from this corpus?") from None

    def word_of(self, wid: int) -> str:
        return self._words[wid]

    def count_of(self, wid: int) -> int:
        return int(self._counts[wid])

    def freq(self, wid: int) -> float:
        """Relative frequency count/total, always in (0, 1]."""
        return float(self._counts[wid]) / self.total_tokens

    def save(self, path: str) -> None:
        """One 'word<TAB>count' line per entry, in id order."""
        with open(path, "w", encoding="utf-8") as fh:
            for word, count in zip(self._words, self._counts):
                fh.write(f"{word}\t{int(count)}\n")

    @classmethod
    def load(cls, path: str) -> "Lexicon":
        words: list[str] = []
        counts: list[int] = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'word<TAB>count'")
                words.append(fields[0])
                try:
                    counts.append(int(fields[1]))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: count is not an integer") from None
        return cls(words, counts)


class SubsampleTable:
    """Per-word keep probabilities with the multi-character keep override.

    A word survives target selection with probability
    min(1, sqrt(epsilon / f(w))).  A multi-character word is never
    discarded when its own keep probability falls below mu/N times the
    summed keep probabilities of its in-dictionary proper substrings,
    N being the number of distinct such substrings.  Marker tokens are
    atomic symbols and never receive the override.
    """

    def __init__(
        self,
        lexicon: Lexicon,
        epsilon: float = 1e-5,
        mu: float = 0.5,
        atomic: frozenset[str] = MARKERS,
    ):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if mu <= 0:
            raise ValueError("mu must be positive")
        self.lexicon = lexicon
        self.epsilon = epsilon
        self.mu = mu
        freqs = lexicon.counts / lexicon.total_tokens
        self.p_sub = np.minimum(1.0, np.sqrt(epsilon / freqs))
        self.keep_override = np.zeros(len(lexicon), dtype=bool)
        for wid, word in enumerate(lexicon.words):
            if word in atomic:
                continue
            self.keep_override[wid] = self._multichar_keep(word, wid)

    def subsample_prob(self, word: str) -> float:
        """Keep probability of a word, in (0, 1]."""
        return float(self.p_sub[self.lexicon.id_of(word)])

    def multichar_keep(self, word: str) -> bool:
        """True when the multi-character override applies to this word."""
        return bool(self.keep_override[self.lexicon.id_of(word)])

    def _multichar_keep(self, word: str, wid: int) -> bool:
        if len(word) < 2:
            return False
        # contiguous proper substrings, deduplicated as strings
        subs = {
            word[a:b]
            for a in range(len(word))
            for b in range(a + 1, len(word) + 1)
        } - {word}
        ids = [self.lexicon.id_of(s) for s in subs if s in self.lexicon]
        if not ids:
            return False
        threshold = self.mu / len(ids) * float(self.p_sub[ids].sum())
        return float(self.p_sub[wid]) < threshold

    def sample_target(self, word: str, rng: np.random.Generator) -> bool:
        """Decide whether one occurrence of `word` becomes a training target.

        Deterministically true under the multi-character override (no random
        draw is consumed); otherwise a Bernoulli draw at the keep probability.
        """
        wid = self.lexicon.id_of(word)
        if self.keep_override[wid]:
            return True
        return bool(rng.random() < self.p_sub[wid])
