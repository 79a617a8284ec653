"""Test oracles: plain reference computations that only the tests read.

Each is the straightforward form of something the library computes
faster or never needs: the objective's cosine and loss terms, one
training step on a fresh table, a word's score and a segmentation's
score recomputed from scratch, a fragment's best segmentation by
exhaustive enumeration, the inverse of the marker escape, and raw
mixed-script lines for round-trip checks.  They live here, beside the tests that check the library
against them, and not in the package's public surface.
"""
from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from embseg.corpus import BOS, EOS, _ESCAPE
from embseg.lexicon import Lexicon
from embseg.sampler import CTX_POS, TrainingSample
from embseg.simcache import _MIN_NORM, SimilarityCache
from embseg.trainer import _stepper


def pair_score(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two vectors; zero vectors are a domain error."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu < _MIN_NORM or nv < _MIN_NORM:
        raise ValueError("cosine undefined for a zero vector")
    return float(np.dot(u, v)) / (nu * nv)


def _log_sigmoid(x: float) -> float:
    # stable for both signs
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def sample_loss(sample: TrainingSample, emb: np.ndarray) -> float:
    """Weighted log-sigmoid objective term of one sample.

    Positives score log(sigmoid(cos)), negatives log(sigmoid(-cos)); the
    term is maximized during training.
    """
    cos = pair_score(emb[sample.target], emb[sample.other])
    sign = 1.0 if sample.source == CTX_POS else -1.0
    return sample.weight * _log_sigmoid(sign * cos)


def train_step(sample: TrainingSample, emb: np.ndarray, lr: float) -> None:
    """One gradient-ascent update on the two rows touched by `sample`.

    d/dcos of weight*log(sigmoid(s*cos)) is weight*s*sigmoid(-s*cos), and
    dcos/du = v/(|u||v|) - cos*u/|u|^2 (symmetrically for v).  Both deltas
    are computed from the pre-step rows, then applied in place through
    the row views (when target == other both land on the same row, in the
    same order).  This is the step `train` runs, on the record `train`
    packs, here indexing `emb` per call and with fresh scalar cells for
    this call.
    """
    rate = lr * sample.weight
    _stepper(emb)(sample.target, sample.other, rate if sample.source == CTX_POS else -rate)


def word_score(word: int, preds: Sequence[int], cache: SimilarityCache) -> float:
    """Reference per-word score: the mean cosine of `word` to its non-empty
    `preds`, as plain similarity calls added left to right from 0.0, so
    it does not share the decoder's mean_similarity.  The explicit loop
    keeps the decoder's rounding on every Python: from 3.12 on, `sum()`
    compensates its rounding."""
    total = 0.0
    for p in preds:
        total += cache.similarity(word, p)
    return total / len(preds)


def recompute_mean_logp(seg: Sequence[int], cache: SimilarityCache, window: int) -> float:
    """Reference scorer: evaluate a full segmentation from scratch.

    Used to verify that the incremental score kept by the beam matches a
    batch recomputation; each word after the first scores `word_score`
    against the up to `window` words before it.
    """
    if len(seg) < 2:
        return 0.0
    total = 0.0
    for i in range(1, len(seg)):
        total += word_score(seg[i], seg[max(0, i - window):i], cache)
    return total / (len(seg) - 1)


def _all_segmentations(frag: str) -> Iterator[list[str]]:
    n = len(frag)
    for mask in range(1 << max(0, n - 1)):
        words = []
        start = 0
        for i in range(n - 1):
            if (mask >> i) & 1:
                words.append(frag[start:i + 1])
                start = i + 1
        words.append(frag[start:])
        yield words


def oracle_best(frag: str, lexicon: Lexicon, cache: SimilarityCache,
                window: int) -> tuple[list[str], float] | None:
    """The best dictionary segmentation of `frag` and its score, found by
    scoring every one of its 2^(n-1) segmentations from scratch with
    `recompute_mean_logp`, or None when no dictionary words tile it.

    Ranks by the score rounded to 1e-9, then fewer words, then longer
    words first, then the word ids.
    """
    best_key, best = None, None
    for words in _all_segmentations(frag):
        if any(w not in lexicon for w in words):
            continue
        ids = [lexicon.id_of(BOS)] + [lexicon.id_of(w) for w in words] + [lexicon.id_of(EOS)]
        mean = recompute_mean_logp(ids, cache, window)
        key = (-round(mean * 1e9), len(words), tuple(-len(w) for w in words), tuple(ids))
        if best_key is None or key < best_key:
            best_key, best = key, (words, mean)
    return best


def unescape_token(token: str) -> str:
    """Inverse of `corpus.escape_token`: drop one leading escape prefix."""
    if token.startswith(_ESCAPE):
        return token[len(_ESCAPE):]
    return token


_MIXED_CJK = "的了在是有人我他你大小上中不也就山水天地春风秋雨东西南北红绿高长"
_MIXED_ASCII = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_MIXED_DIGITS = "0123456789０１２３４５６７８９"
_MIXED_DELIMS = "。，！？、；：（）.,!?;:()[]「」…·«»~"


def make_mixed_lines(n: int, rng: np.random.Generator) -> list[str]:
    """Raw mixed-script lines for round-trip checks: CJK, ASCII words,
    digits (halfwidth and fullwidth), and delimiter runs, but no literal
    whitespace, so that removing the separators the pipeline inserts
    recovers each line byte for byte."""
    pools = (_MIXED_CJK, _MIXED_ASCII, _MIXED_DIGITS, _MIXED_DELIMS)
    lines: list[str] = []
    for _ in range(n):
        n_runs = int(rng.integers(1, 9))
        parts: list[str] = []
        for _ in range(n_runs):
            pool = pools[int(rng.integers(len(pools)))]
            length = int(rng.integers(1, 7))
            parts.append("".join(pool[int(rng.integers(len(pool)))] for _ in range(length)))
        lines.append("".join(parts))
    return lines
