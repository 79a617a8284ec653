"""Stochastic gradient training of the embedding table.

The objective is a weighted sum of log-sigmoid scores over sampled pairs:
positives push the cosine of their two vectors up, negatives push it down.
Scoring pairs by cosine rather than raw dot product keeps the training
geometry identical to the metric the decoder ranks hypotheses with.

`train` spends its time in numpy's per-call work rather than in Python
calls per token and per pair: `Lexicon.encode` maps the corpus to ids
once, the step reads row views made once per training run and unpacks
each sample once, and the sampler builds its samples in C.  The result
is bit for bit that of `train_step` applied to each sample in turn.
"""
from __future__ import annotations

import logging
import math
import os
import stat
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from .corpus import read_lines
from .lexicon import Lexicon, SubsampleTable
from .sampler import CTX_POS, TrainingSample, build_occurrence_batch

__all__ = [
    "TrainerConfig",
    "init_embeddings",
    "pair_score",
    "sample_loss",
    "train_step",
    "train",
    "save_embeddings",
    "load_embeddings",
]

log = logging.getLogger(__name__)

_MIN_NORM = 1e-12
_SWEEP_EVERY = 1000  # occurrence batches between finiteness sweeps
_LR_START = 0.025    # learning rate at the first token position
_LR_END = 1e-4       # learning rate approached at the last one


@dataclass
class TrainerConfig:
    """Sampling, objective, and schedule hyperparameters: the `train` flags."""

    epsilon: float = 1e-5        # subsampling threshold
    mu: float = 0.5              # multi-character keep threshold
    n_noise: int = 1             # noise negatives per target occurrence
    dim: int = 100               # embedding dimension
    eta: float = 0.2             # class-weight smoothing
    window: int = 4              # context window
    epochs: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_noise", "dim", "window", "epochs", "seed"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("epsilon", "mu", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epsilon <= 0 or self.mu <= 0:
            raise ValueError("epsilon and mu must be positive")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.dim < 1 or self.window < 1 or self.epochs < 1:
            raise ValueError("dim, window, and epochs must be >= 1")
        if self.n_noise < 0:
            raise ValueError("n_noise must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def init_embeddings(vocab_size: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform init in [-0.5/dim, +0.5/dim]; every row is non-zero."""
    if vocab_size < 1 or dim < 1:
        raise ValueError("vocab_size and dim must be >= 1")
    bound = 0.5 / dim
    table = rng.uniform(-bound, bound, size=(vocab_size, dim))
    # an all-zero row has probability zero but would break the cosine
    while True:
        bad = np.linalg.norm(table, axis=1) < _MIN_NORM
        if not bad.any():
            return table
        table[bad] = rng.uniform(-bound, bound, size=(int(bad.sum()), dim))


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


def _stepper(rows: Sequence[np.ndarray]) -> Callable[[TrainingSample, float], None]:
    """A train step on `rows[id]` that owns four 0-d float64 cells for its
    scalars.

    `rows` is the table itself, indexed per call, or `list(table)`, its row
    views made once: both are views of the same memory.  numpy scales a
    vector by a 0-d float64 array faster than by a Python float, which it
    converts on every call; the IEEE products are the same.  So the step
    writes its scalars into the cells and scales through them.  Each
    closure has cells of its own: two trainings, or a training and a
    train_step call, never write each other's.
    """
    inv_c = np.empty(())   # 1 / (|u| |v|)
    cu_c = np.empty(())    # cos / |u|^2
    cv_c = np.empty(())    # cos / |v|^2
    coef_c = np.empty(())  # lr * weight * dloss/dcos
    exp = math.exp

    def step(sample: TrainingSample, lr: float) -> None:
        target, other, source, weight = sample
        u = rows[target]
        v = rows[other]
        # exactly np.linalg.norm of a 1-D float64 vector, without its overhead
        nu = math.sqrt(u.dot(u))
        nv = math.sqrt(v.dot(v))
        if nu < _MIN_NORM or nv < _MIN_NORM:
            raise ValueError("cosine undefined for a zero vector")
        inv = 1.0 / (nu * nv)
        cos = float(u.dot(v)) * inv
        sign = 1.0 if source == CTX_POS else -1.0
        # sigmoid(x) at x = -sign * cos, in the form that is stable for its sign
        x = -sign * cos
        if x >= 0:
            sig = 1.0 / (1.0 + exp(-x))
        else:
            z = exp(x)
            sig = z / (1.0 + z)
        inv_c[()] = inv
        cu_c[()] = cos / (nu * nu)
        cv_c[()] = cos / (nv * nv)
        coef_c[()] = lr * weight * sign * sig
        # du = coef * (v*inv - u*cos/|u|^2), dv symmetrically, both from
        # the pre-step rows; IEEE products commute, so *= coef is exact
        du = v * inv_c
        du -= u * cu_c
        du *= coef_c
        dv = u * inv_c
        dv -= v * cv_c
        dv *= coef_c
        u += du
        v += dv

    return step


def train_step(sample: TrainingSample, emb: np.ndarray, lr: float) -> None:
    """One gradient-ascent update on the two rows touched by `sample`.

    d/dcos of weight*log(sigmoid(s*cos)) is weight*s*sigmoid(-s*cos), and
    dcos/du = v/(|u||v|) - cos*u/|u|^2 (symmetrically for v).  Both deltas
    are computed from the pre-step rows, then applied in place through
    the row views (when target == other both land on the same row, in the
    same order).  This is the step `train` runs, here indexing `emb` per
    call and with fresh scalar cells for this call.
    """
    _stepper(emb)(sample, lr)


def _repair_rows(emb: np.ndarray, rng: np.random.Generator, where: str) -> None:
    """Re-randomize rows whose norm collapsed; training never divides by ~0."""
    norms = np.linalg.norm(emb, axis=1)
    bad = ~np.isfinite(norms) | (norms < _MIN_NORM)
    if bad.any():
        ids = np.flatnonzero(bad)
        log.warning("re-randomizing %d degenerate embedding rows (%s): %s",
                    len(ids), where, ids[:16].tolist())
        bound = 0.5 / emb.shape[1]
        emb[bad] = rng.uniform(-bound, bound, size=(len(ids), emb.shape[1]))


def train(
    sentences: Sequence[list[str]],
    lexicon: Lexicon,
    config: TrainerConfig,
    *,
    sample_sink: Callable[[TrainingSample], None] | None = None,
) -> np.ndarray:
    """Train the embedding table over the corpus.

    `sentences` are token lists without boundary markers; markers are added
    here and must already be counted in the lexicon.  Tokens missing from
    the lexicon are an error.  The learning rate decays linearly from
    0.025 towards 1e-4 over all token positions of all epochs.  The result
    is a deterministic function of the corpus, lexicon, and config.
    Returns the V x dim table.

    sample_sink, when given, receives every generated TrainingSample in
    order; used for audit dumps.
    """
    rng = np.random.default_rng(config.seed)
    emb = init_embeddings(len(lexicon), config.dim, rng)
    table = SubsampleTable(lexicon, config.epsilon, config.mu)

    wrapped = list(map(lexicon.encode, sentences))

    total_positions = sum(map(len, wrapped)) * config.epochs
    if total_positions == 0:
        return emb

    # row views made once: _repair_rows writes the table in place, so they
    # stay views of the rows being trained
    step = _stepper(list(emb))
    p_sub = table.p_sub.tolist()
    keep = table.keep_override.tolist()
    lr_span = _LR_START - _LR_END
    processed = 0  # token positions before the current sentence
    batches = 0
    for _ in range(config.epochs):
        for ids in wrapped:
            draws = rng.random(len(ids)).tolist()
            for i, wid in enumerate(ids):
                if not (keep[wid] or draws[i] < p_sub[wid]):
                    continue
                # a wrapped sentence holds both markers, so every position has context
                batch = build_occurrence_batch(
                    ids, i, lexicon, rng,
                    window=config.window, n_noise=config.n_noise, eta=config.eta,
                )
                lr = _LR_START - lr_span * ((processed + i) / total_positions)
                for sample in batch:
                    if sample_sink is not None:
                        sample_sink(sample)
                    step(sample, lr)
                batches += 1
                if batches % _SWEEP_EVERY == 0:
                    _repair_rows(emb, rng, f"sweep at batch {batches}")
                    if not np.isfinite(emb).all():
                        raise FloatingPointError("non-finite embedding entries")
            processed += len(ids)

    _repair_rows(emb, rng, "final sweep")
    if not np.isfinite(emb).all():
        raise FloatingPointError("non-finite embedding entries after training")
    return emb


def save_embeddings(path: str, lexicon: Lexicon, emb: np.ndarray) -> None:
    """Text format: header 'V d', then one 'word v1 .. vd' line per id.

    Floats are written with full round-trip precision.
    """
    V, d = emb.shape
    if V != len(lexicon):
        raise ValueError("embedding table and lexicon disagree on vocabulary size")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{V} {d}\n")
        for wid in range(V):
            vec = " ".join(map(repr, emb[wid].tolist()))  # tolist: exact Python floats
            fh.write(f"{lexicon.word_of(wid)} {vec}\n")


def load_embeddings(path: str) -> tuple[list[str], np.ndarray]:
    """Inverse of save_embeddings; validates the header against the body
    and rejects non-finite values."""
    lines = read_lines(path)
    header = next(lines, "").split()
    try:
        V, d = map(int, header)
    except ValueError:
        V = d = 0
    if V < 1 or d < 1:
        raise ValueError(f"{path}:1: malformed header, expected 'V d' with V, d >= 1")
    # a row is a word, d space-led floats and a newline: at least 2d + 2
    # bytes, so a header the file cannot hold fails before the allocation
    st = os.stat(path)
    if stat.S_ISREG(st.st_mode) and V * (2 * d + 2) > st.st_size:
        raise ValueError(
            f"{path}:1: header announces {V} rows of {d} floats, "
            f"more than the file's {st.st_size} bytes can hold"
        )
    words: list[str] = []
    try:  # the only check of a header that a pipe or a device announces
        emb = np.empty((V, d), dtype=np.float64)
    except (MemoryError, ValueError):  # numpy's too-big array is a ValueError
        raise ValueError(
            f"{path}:1: header announces {V} rows of {d} floats, more than can be allocated"
        ) from None
    row = 0
    for lineno, line in enumerate(lines, start=2):
        parts = line.split(" ")
        if len(parts) != d + 1:
            raise ValueError(f"{path}:{lineno}: expected a word and {d} floats")
        if row >= V:
            raise ValueError(f"{path}:{lineno}: more rows than the header announces")
        words.append(parts[0])
        try:
            emb[row] = list(map(float, parts[1:]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        row += 1
    if row != V:
        raise ValueError(f"{path}: header announces {V} rows, found {row}")
    bad = np.flatnonzero(~np.isfinite(emb).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}:{int(bad[0]) + 2}: non-finite value")
    return words, emb
