"""Training-sample generation: window positives and three negative channels.

For one sampled target occurrence the batch holds
  - a positive pair per context word inside the window,
  - negatives for every real dictionary word spelled by a substring of the
    flanking character sequences that is not itself a context word,
  - negatives for every ordered disjoint substring pair inside a
    multi-character target, and
  - uniformly drawn noise negatives.
Negatives share one class weight computed from the batch's class counts.
The boundary markers are tokens, not text: no negative pairs a substring
with a marker, even where a word spells the marker's characters.  Both
substring channels read the real words a text spells from `Lexicon.spans`.

The sampler reads token ids only: a sentence is mapped once per stage by
`Lexicon.encode`.  A batch is built with few Python calls per pair: its
samples are made in C, the flank texts are joined from the lexicon's
per-id texts, and a word's in-word negatives are found once per lexicon,
on the word's first kept occurrence.
"""
from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from .corpus import MARKERS
from .lexicon import Lexicon

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "CTX_POS",
    "CTX_NEG",
    "INWORD_NEG",
    "NOISE_NEG",
    "TrainingSample",
    "build_occurrence_batch",
]

POSITIVE = "positive"
NEGATIVE = "negative"

CTX_POS = "ctx_pos"
CTX_NEG = "ctx_neg"
INWORD_NEG = "inword_neg"
NOISE_NEG = "noise_neg"


class TrainingSample(NamedTuple):
    """One weighted pair; its channel `source` decides its label."""

    target: int
    other: int
    source: str
    weight: float

    @property
    def label(self) -> str:
        return POSITIVE if self.source == CTX_POS else NEGATIVE


# builds a TrainingSample from a 4-tuple in C, without the Python-level
# __new__ a NamedTuple call runs
_new_sample = partial(tuple.__new__, TrainingSample)


def positives(sentence: list[int], i: int, window: int) -> list[tuple[int, int]]:
    """(target, context) id pairs for every window position, clipped at edges."""
    lo = max(0, i - window)
    hi = min(len(sentence), i + window + 1)
    return [(sentence[i], sentence[j]) for j in range(lo, hi) if j != i]


def context_negatives(ids: list[int], i: int, window: int, lexicon: Lexicon) -> list[tuple[int, int]]:
    """Negative pairs from mis-readings of the flanking character streams.

    The characters of the left and right context words are concatenated
    (markers excluded; they are not character sequences of real text), and
    every distinct real word spelled by a substring, other than the context
    words, becomes a negative for the target.  Pairs come out in order of
    the first substring spelling them, by start and then end offset, left
    flank first.
    """
    lo = max(0, i - window)
    hi = min(len(ids), i + window + 1)
    left, right = ids[lo:i], ids[i + 1:hi]
    skip = set(left + right)  # context words, then each word emitted
    target = ids[i]
    text = lexicon._texts.__getitem__  # a marker's text is ""
    out: list[tuple[int, int]] = []
    for flank in (left, right):
        for _, _, wid in lexicon.spans("".join(map(text, flank))):
            if wid not in skip:
                skip.add(wid)
                out.append((target, wid))
    return out


def inword_negatives(word: str, lexicon: Lexicon) -> list[tuple[int, int]]:
    """Ordered disjoint substring pairs of a multi-character word.

    Both sides must be real dictionary words; the left substring ends
    strictly before the right one starts.  Single-character words and
    marker tokens yield nothing.
    """
    if len(word) < 2 or word in MARKERS:
        return []
    spans = lexicon.spans(word)
    return [(left, right) for _, end, left in spans for start, _, right in spans if start >= end]


def noise_negatives(target: int, n: int, rng: np.random.Generator, vocab_size: int) -> list[tuple[int, int]]:
    """n noise pairs drawn uniformly over the vocabulary, redrawing on the
    target itself."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 0 and vocab_size < 2:
        raise ValueError("noise sampling needs at least two words")
    out: list[tuple[int, int]] = []
    for _ in range(n):
        while True:
            other = int(rng.integers(vocab_size))
            if other != target:
                break
        out.append((target, other))
    return out


def class_weights(n_pos: int, n_neg: int, eta: float) -> float:
    """The negative weight (n_pos/n_neg + eta)/(1 + eta); positives weigh 1.0.

    The weight is meaningful only when n_neg > 0; 1.0 is returned as a
    placeholder otherwise.  A batch without positives is invalid.
    """
    if n_pos < 1:
        raise ValueError("a batch needs at least one positive sample")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if n_neg <= 0:
        return 1.0
    return (n_pos / n_neg + eta) / (1.0 + eta)


def build_occurrence_batch(
    ids: list[int],
    i: int,
    lexicon: Lexicon,
    rng: np.random.Generator,
    *,
    window: int = 4,
    n_noise: int = 1,
    eta: float = 0.2,
) -> tuple[TrainingSample, ...]:
    """All weighted samples for one sampled target occurrence, positives
    first.

    Negatives are deduplicated by (target, other) within the batch, first
    generation wins (context, then in-word, then noise).  The negative
    weight comes from this batch's class counts, so an occurrence with no
    context word is a ValueError.
    """
    target = ids[i]
    pos = positives(ids, i, window)
    ctx = context_negatives(ids, i, window, lexicon)
    memo = lexicon._inword
    inword = memo.get(target)
    if inword is None:
        # An in-word pair joins two proper substrings of the target, so it
        # never starts with the target as every context and noise pair
        # does: deduplicated among themselves once per word, they meet no
        # other channel's pair.
        inword = memo[target] = tuple(dict.fromkeys(inword_negatives(lexicon.word_of(target), lexicon)))
    seen = set(ctx)  # context negatives are distinct already
    noise: list[tuple[int, int]] = []
    for pair in noise_negatives(target, n_noise, rng, len(lexicon)):
        if pair not in seen:
            seen.add(pair)
            noise.append(pair)
    w_neg = class_weights(len(pos), len(ctx) + len(inword) + len(noise), eta)
    samples = [(t, o, CTX_POS, 1.0) for t, o in pos]
    samples += [(t, o, CTX_NEG, w_neg) for t, o in ctx]
    samples += [(t, o, INWORD_NEG, w_neg) for t, o in inword]
    samples += [(t, o, NOISE_NEG, w_neg) for t, o in noise]
    return tuple(map(_new_sample, samples))
