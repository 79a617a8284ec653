"""Synthetic segmented corpora with a controllable corrupted baseline.

The toy language is split into three topics.  Two background topics hold
frequent single-character words and opaque fillers; a domain topic holds
cue words, compound fillers, and the designated target words.  Each
character of a target word is a frequent single in one of the background
topics, but the two (or three) characters of one target always come from
different topics, so outside the domain they never meet.  The fake
baseline systematically splits the targets (keeping every KEEP_EVERY-th
occurrence whole, so they still enter the dictionary); re-joining them
requires exactly the contrast the embeddings are meant to learn, because
the split pieces are words anchored in foreign contexts while the whole
form lives only in the domain niche.  The baseline also glues a few
frequent word bigrams into single tokens, the complementary error.

Domain fillers are two-character words and their two-by-two compounds,
with every character also a standalone word, so domain windows are full
of in-dictionary substrings, as in real text.

Used by the demo scripts and the verification suite; not part of the
segmentation pipeline itself.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToyLanguage",
    "default_language",
    "generate_corpus",
    "corrupt",
]

COLLOCATION = 0.8                # cue -> target and target -> cue probability
MERGE_COLLOCATION = 0.65         # first -> second probability inside merge pairs
TRIPLE_RATE = 0.3                # per-position rate of cue/target triples in domain sentences
TOPIC_WEIGHTS = (0.35, 0.35, 0.30)  # sentence share of topics A, B and the domain
KEEP_EVERY = 3                   # corrupt keeps every third occurrence of a split target whole


@dataclass(frozen=True)
class ToyLanguage:
    """The word groups of a toy language, one tuple per role."""

    singles_a: tuple[str, ...]        # frequent single-character words, topic A
    singles_b: tuple[str, ...]        # frequent single-character words, topic B
    fillers_a: tuple[str, ...]        # opaque multi-character words, topic A
    fillers_b: tuple[str, ...]        # opaque multi-character words, topic B
    domain_chars: tuple[str, ...]     # single-character words of the domain topic
    domain_halves: tuple[str, ...]    # two-character domain words built from domain_chars
    domain_compounds: tuple[str, ...] # four-character words built from two halves
    cue_starts: tuple[str, ...]       # cue_starts[k] strongly precedes split_targets[k]
    cue_ends: tuple[str, ...]         # split_targets[k] strongly precedes cue_ends[k]
    split_targets: tuple[str, ...]    # words the corrupted baseline splits
    merge_pairs: tuple[tuple[str, str], ...] = ()  # adjacent pairs the baseline merges

    def vocab(self) -> tuple[str, ...]:
        """The words of every group, in field order; merge_pairs adds none."""
        return (self.singles_a + self.singles_b + self.fillers_a + self.fillers_b
                + self.domain_chars + self.domain_halves + self.domain_compounds
                + self.cue_starts + self.cue_ends + self.split_targets)


def default_language() -> ToyLanguage:
    """A 53-word language with five split targets and three merge bigrams.

    Target characters alternate between the two background topics, so the
    pieces are frequent everywhere except next to each other.  The merge
    bigrams are built from singles that belong to no target.
    """
    return ToyLanguage(
        singles_a=tuple("大山天就有他的在上"),
        singles_b=tuple("人水地也我了是中不"),
        fillers_a=("朋友", "电脑"),
        fillers_b=("飞车", "星光"),
        domain_chars=tuple("工作时间学习问题"),
        domain_halves=("工作", "时间", "学习", "问题"),
        domain_compounds=("工作时间", "学习时间", "工作问题", "学习问题"),
        cue_starts=("红花", "春风", "东城", "南海", "高楼"),
        cue_ends=("绿叶", "秋雨", "西村", "北岛", "长街"),
        split_targets=("大人", "山水", "天地", "就也", "有我他"),
        merge_pairs=(("的", "在"), ("了", "是"), ("中", "不")),
    )


def _pool(words: list[str], weights: list[float]) -> tuple[list[str], np.ndarray]:
    arr = np.asarray(weights, dtype=np.float64)
    cdf = np.cumsum(arr / arr.sum())
    cdf[-1] = 1.0
    return words, cdf


def _draw(pool: tuple[list[str], np.ndarray], rng: np.random.Generator) -> str:
    words, cdf = pool
    return words[int(np.searchsorted(cdf, rng.random(), side="right"))]


def generate_corpus(lang: ToyLanguage, n_sentences: int, rng: np.random.Generator) -> list[list[str]]:
    """Sentences of 8..16 words; each sentence belongs to one topic.

    Background topics draw singles and fillers; domain sentences mix
    domain fill with cue/target/cue triples (with dropout, so cues also
    occur alone).  Merge-pair heads attract their partner with
    probability MERGE_COLLOCATION, so the merge bigrams are frequent.
    Adjacent background draws never spell a vocabulary word across a
    token boundary, so the only join-or-split ambiguity in the corpus
    sits on the designated targets.
    """
    pool_a = _pool(list(lang.singles_a) + list(lang.fillers_a),
                   [8.0] * len(lang.singles_a) + [5.0] * len(lang.fillers_a))
    pool_b = _pool(list(lang.singles_b) + list(lang.fillers_b),
                   [8.0] * len(lang.singles_b) + [5.0] * len(lang.fillers_b))
    pool_c = _pool(list(lang.domain_chars) + list(lang.domain_halves)
                   + list(lang.domain_compounds),
                   [4.0] * len(lang.domain_chars) + [3.5] * len(lang.domain_halves)
                   + [2.5] * len(lang.domain_compounds))
    vocab = set(lang.vocab())
    two_char = {w for w in vocab if len(w) == 2}

    def clean(prev: str | None, nxt: str) -> bool:
        if prev is None:
            return True
        if prev + nxt in vocab:
            return False
        return prev[-1] + nxt[0] not in two_char

    topics = np.asarray(TOPIC_WEIGHTS, dtype=np.float64)
    topic_cdf = np.cumsum(topics / topics.sum())
    topic_cdf[-1] = 1.0
    n_kinds = len(lang.split_targets)
    merge_succ = dict(lang.merge_pairs)

    corpus: list[list[str]] = []
    for _ in range(n_sentences):
        topic = int(np.searchsorted(topic_cdf, rng.random(), side="right"))
        n = int(rng.integers(8, 17))
        sent: list[str] = []
        prev: str | None = None
        while len(sent) < n:
            if topic == 2 and rng.random() < TRIPLE_RATE:
                k = int(rng.integers(n_kinds))
                sent.append(lang.cue_starts[k])
                prev = lang.cue_starts[k]
                if rng.random() < COLLOCATION:
                    sent.append(lang.split_targets[k])
                    prev = lang.split_targets[k]
                    if rng.random() < COLLOCATION:
                        sent.append(lang.cue_ends[k])
                        prev = lang.cue_ends[k]
                continue
            pool = (pool_a, pool_b, pool_c)[topic]
            if (prev in merge_succ and rng.random() < MERGE_COLLOCATION
                    and clean(prev, merge_succ[prev])):
                nxt = merge_succ[prev]
            else:
                nxt = _draw(pool, rng)
                while not clean(prev, nxt):
                    nxt = _draw(pool, rng)
            sent.append(nxt)
            prev = nxt
        corpus.append(sent)
    return corpus


def corrupt(lang: ToyLanguage, sentences: list[list[str]]) -> list[list[str]]:
    """Apply the fake baseline's systematic errors to a gold corpus.

    Every split target is broken into single characters except each
    KEEP_EVERY-th occurrence (counted per word across the corpus), which
    survives whole so the word still enters the dictionary.  Every
    adjacent merge pair is glued into one token.
    """
    counters = {w: 0 for w in lang.split_targets}
    merge = dict(lang.merge_pairs)
    out: list[list[str]] = []
    for sent in sentences:
        toks: list[str] = []
        i = 0
        while i < len(sent):
            w = sent[i]
            if i + 1 < len(sent) and merge.get(w) == sent[i + 1]:
                toks.append(w + sent[i + 1])
                i += 2
                continue
            if w in counters:
                counters[w] += 1
                if counters[w] % KEEP_EVERY == 0:
                    toks.append(w)
                else:
                    toks.extend(w)
            else:
                toks.append(w)
            i += 1
        out.append(toks)
    return out
