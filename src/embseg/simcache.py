"""Precomputed cosine lookups for co-occurring word pairs.

The table holds the cosine of every pair of words that co-occur within
a window in the training corpus.  The decoder also asks about the
lattice alternatives it weighs, word pairs that may never co-occur in
training; those miss and are computed directly.  The table therefore
pays only where the decoder's pairs co-occur: on a small vocabulary
nearly every lookup hits, on a large one most may miss.  Values are
rounded to single precision on both the hit and the miss path, which
keeps decoding bit-identical whether or not a table is loaded: the cache
is a pure accelerator.  The decoder scores a word with one
`SimilarityCache.mean_similarity` call over its predecessors, which
counts and rounds each pair exactly as `similarity` does.

In memory the table is one row per word id: row a maps each larger id b
it pairs with to the cosine, in ascending b.  The keys are shared int
objects, one per vocabulary id, so a pair costs a dict slot and a float
and no int of its own; rows that hold no pair share one empty dict.
`SimilarityCache.pairs` gives the table back keyed by (a, b).
Embeddings must be finite and nonzero.
"""
from __future__ import annotations

import hashlib
import math
import os
import struct
from array import array
from bisect import bisect_right
from itertools import accumulate, chain, islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .lexicon import Lexicon

__all__ = [
    "SimilarityCache",
    "build_cache",
    "save_cache",
    "load_cache",
]

_MAGIC = b"WCSC"
_VERSION = 2
_DIGEST_SIZE = 32
_HEADER = struct.Struct(f"<IQ{_DIGEST_SIZE}s")  # after magic and version
# a row norm below this is a zero vector: SimilarityCache rejects the row,
# and the trainer redraws it at init and repair, so a trained table loads
_MIN_NORM = 1e-12
_ENTRY = np.dtype([("a", "<u4"), ("b", "<u4"), ("cos", "<f4")])
_CHUNK = 128  # pairs per cosine batch: small, so the gathered rows do not raise peak memory
_BLOCK = 1 << 14  # token ids per block of the pair walk: bounds its arrays on a long corpus
_GROUP = 1 << 14  # pairs converted at a time between rows and records
_NO_PAIRS: dict[int, float] = {}  # the row of every id without a pair; never mutated


class SimilarityCache:
    """Cosine scorer over word ids with an optional precomputed pair table.

    `pairs` maps id pairs (a, b), a < b, to cosines in [-1, 1]; `near[a]`
    holds them rounded to single precision as {b: cosine} in ascending b,
    the values a cache file holds.  hits and misses count every
    query, so they always sum to the total number of lookups.

    Not for concurrent use from threads: the counters and the rounding
    cell are shared, unlocked state.
    """

    def __init__(self, embeddings: np.ndarray, pairs: Mapping[tuple[int, int], float] | None = None):
        if not np.isfinite(embeddings).all():
            raise ValueError("non-finite value in embedding table")
        norms = np.linalg.norm(embeddings, axis=1)
        if (norms < _MIN_NORM).any():
            raise ValueError("zero vector in embedding table")
        self._unit = embeddings / norms[:, None]
        # row views: rows[a].dot(rows[b]) is np.dot's BLAS dot without its
        # per-call indexing and dispatch
        self._rows = list(self._unit)
        self._vocab = v = int(embeddings.shape[0])
        self.near: list[dict[int, float]] = [_NO_PAIRS] * v
        if pairs:
            ids = list(range(v))
            for (a, b), val in sorted(pairs.items()):
                if not 0 <= a < b < v:
                    raise ValueError(f"pair ({a}, {b}) is not ids a < b < {v}")
                if not math.isfinite(val):
                    raise ValueError(f"pair ({a}, {b}, {val!r}): non-finite cosine")
                if not -1 <= val <= 1:
                    raise ValueError(f"pair ({a}, {b}, {val!r}): cosine outside [-1, 1]")
                if self.near[a] is _NO_PAIRS:
                    self.near[a] = {}
                self.near[a][ids[b]] = float(np.float32(val))
        self.hits = 0
        self.misses = 0
        # a computed cosine is rounded to single precision by a store into
        # and a load from this cell: the C double -> float cast np.float32
        # makes, without building a numpy scalar
        self._f32 = array("f", (0.0,))

    @property
    def vocab_size(self) -> int:
        return self._vocab

    @property
    def entries(self) -> int:
        """Number of cached pairs."""
        return sum(map(len, self.near))

    def pairs(self) -> dict[tuple[int, int], float]:
        """The table keyed by id pairs (a, b), a < b, in ascending (a, b)."""
        return {(a, b): val for a, row in enumerate(self.near) for b, val in row.items()}

    def similarity(self, a: int, b: int) -> float:
        """Cosine of two word ids, symmetric in its arguments."""
        if a == b:
            self.hits += 1
            return 1.0
        val = self.near[a].get(b) if a < b else self.near[b].get(a)
        if val is not None:
            self.hits += 1
            return val
        self.misses += 1
        cell = self._f32
        cell[0] = self._rows[a].dot(self._rows[b])
        return cell[0]

    def mean_similarity(self, a: int, others: Sequence[int]) -> float:
        """Mean of similarity(a, b) over the non-empty `others`, summed left
        to right from 0.0, with the same values and the same hit and miss
        counts as one similarity call per element; in one call, because the
        decoder scores every candidate word this way."""
        near = self.near
        row = near[a]
        rows = self._rows
        cell = self._f32
        total = 0.0
        misses = 0
        for b in others:
            if a == b:
                total += 1.0
                continue
            val = row.get(b) if a < b else near[b].get(a)
            if val is None:
                misses += 1
                cell[0] = rows[a].dot(rows[b])
                val = cell[0]
            total += val
        n = len(others)
        self.hits += n - misses
        self.misses += misses
        return total / n

    def hit_rate(self) -> float:
        """hits / (hits + misses), or 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def build_cache(
    sentences: Iterable[list[str]],
    lexicon: Lexicon,
    embeddings: np.ndarray,
    window: int = 4,
) -> SimilarityCache:
    """Precompute cosines for every distinct unordered pair of words that
    co-occur within `window` positions.  Boundary markers participate like
    words.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    if embeddings.shape[0] != len(lexicon):
        raise ValueError(
            f"embedding table has {embeddings.shape[0]} rows, lexicon has {len(lexicon)} words"
        )
    cache = SimilarityCache(embeddings)
    v = cache.vocab_size
    blocks: list[np.ndarray] = []
    block: list[list[int]] = []
    size = 0
    for sent in sentences:
        block.append(lexicon.encode(sent))
        size += len(block[-1])
        if size >= _BLOCK:
            blocks.append(_window_keys(block, window, v))
            block, size = [], 0
    blocks.append(_window_keys(block, window, v))
    keys = _sorted_unique(np.concatenate(blocks))
    del blocks
    a, b = np.divmod(keys, v)
    del keys
    # A stacked vector-vector matmul runs each pair through the same BLAS
    # dot as the miss path, so a hit is bit-identical to a miss.
    unit = cache._unit
    cos = np.empty(len(a), dtype=np.float32)
    for lo in range(0, len(a), _CHUNK):
        hi = lo + _CHUNK
        cos[lo:hi] = np.matmul(unit[a[lo:hi], None, :], unit[b[lo:hi], :, None]).reshape(-1)
    bounds = _row_bounds(a, v)
    del a
    cache.near = _near_rows(bounds, b, cos)
    return cache


def _row_bounds(a: np.ndarray, v: int) -> list[int]:
    """Row r of the ascending ids `a` is a[bounds[r]:bounds[r + 1]]."""
    return np.searchsorted(a, np.arange(v + 1, dtype=a.dtype)).tolist()


def _row_groups(bounds: list[int]) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges [r, s) covering every row, each holding at
    most _GROUP pairs or a single longer row; row r holds the pairs
    bounds[r]:bounds[r + 1].  Rows and records are converted a group at a
    time: nothing of the table's length is built, and a small table does
    not pay numpy calls per row."""
    v = len(bounds) - 1
    r = 0
    while r < v:
        s = max(bisect_right(bounds, bounds[r] + _GROUP) - 1, r + 1)
        yield r, s
        r = s


def _near_rows(bounds: list[int], b: np.ndarray, cos: np.ndarray) -> list[dict[int, float]]:
    """The per-word rows: row a maps b[i] to cos[i] for i in
    bounds[a]:bounds[a + 1], converted to Python objects one row group at
    a time.  The keys are shared: one int object per vocabulary id."""
    v = len(bounds) - 1
    ids = np.arange(v).astype(object)
    near = [_NO_PAIRS] * v
    for r, s in _row_groups(bounds):
        lo, hi = bounds[r], bounds[s]
        pairs = zip(ids[b[lo:hi]].tolist(), cos[lo:hi].tolist())
        for q in range(r, s):
            if bounds[q] < bounds[q + 1]:
                near[q] = dict(islice(pairs, bounds[q + 1] - bounds[q]))
    return near


def _window_keys(sents: list[list[int]], window: int, v: int) -> np.ndarray:
    """Sorted distinct packed keys of the pairs of unequal ids at most
    `window` apart within one of `sents`."""
    # no two ids of a sentence are further apart than its length less one,
    # so the walk stops there whatever the window; as many separators
    # after each sentence keep every pair inside one sentence
    reach = min(window, max(map(len, sents), default=1) - 1)
    gap = [-1] * reach
    ids: list[int] = []
    for sent in sents:
        ids += sent
        ids += gap
    arr = np.array(ids, dtype=np.int64)
    keys = [np.empty(0, dtype=np.int64)]
    for k in range(1, reach + 1):
        x, y = arr[:-k], arr[k:]
        keep = (x >= 0) & (y >= 0) & (x != y)
        x, y = x[keep], y[keep]
        keys.append(np.minimum(x, y) * v + np.maximum(x, y))
    return _sorted_unique(np.concatenate(keys))


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of `keys`, ascending.  np.unique does the same
    but was many times slower than this sort and mask."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _unit_digest(unit: np.ndarray) -> bytes:
    """Digest of the unit-row table that every cached cosine was computed
    from; a cache file is valid only against embeddings with this digest."""
    return hashlib.blake2b(np.ascontiguousarray(unit), digest_size=_DIGEST_SIZE).digest()


def save_cache(path: str, cache: SimilarityCache) -> None:
    """Binary layout: magic 'WCSC', version byte, vocab size (u32 LE), entry
    count (u64 LE), blake2b digest of the unit-row table (32 bytes), then
    (id_a u32, id_b u32, cos f32) triples with id_a < id_b, sorted.  The
    rows are in that order already, so they are written as they stand, one
    row group at a time: no array of the whole table is built."""
    near = cache.near
    bounds = list(accumulate(map(len, near), initial=0))
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes([_VERSION]))
        fh.write(_HEADER.pack(cache.vocab_size, bounds[-1], _unit_digest(cache._unit)))
        for r, s in _row_groups(bounds):
            rows = near[r:s]
            n = bounds[s] - bounds[r]
            rec = np.empty(n, dtype=_ENTRY)
            rec["a"] = np.repeat(np.arange(r, s), np.diff(bounds[r:s + 1]))
            rec["b"] = np.fromiter(chain.from_iterable(rows), dtype=np.uint32, count=n)
            rec["cos"] = np.fromiter(chain.from_iterable(map(dict.values, rows)), dtype=np.float32, count=n)
            rec.tofile(fh)


def load_cache(path: str, embeddings: np.ndarray) -> SimilarityCache:
    """Read a cache file back.  It must have been built from `embeddings`:
    the vocabulary size and the digest of the unit-row table must match.
    Every record must hold ids a < b < V and a finite cosine in [-1, 1],
    the records must be in strictly ascending (a, b) order, and no bytes
    may follow the last record."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a similarity cache file")
        version = fh.read(1)
        if version != bytes([_VERSION]):
            raise ValueError(
                f"{path}: unsupported cache version {version!r} "
                f"(this build reads version {_VERSION}); re-run train"
            )
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"{path}: truncated cache file")
        vocab_size, count, digest = _HEADER.unpack(head)
        if vocab_size != embeddings.shape[0]:
            raise ValueError(
                f"{path}: cache built for vocabulary of {vocab_size}, "
                f"embeddings have {embeddings.shape[0]}"
            )
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if body < count * _ENTRY.itemsize:
            raise ValueError(f"{path}: truncated cache file")
        if body > count * _ENTRY.itemsize:
            raise ValueError(f"{path}: trailing bytes after {count} records")
        rec = np.fromfile(fh, dtype=_ENTRY, count=count)
    keys = rec["a"].astype(np.int64) * vocab_size + rec["b"]
    for bad, what in (
        (rec["a"] >= rec["b"], "ids not in (smaller, larger) order"),
        (rec["b"] >= vocab_size, f"word id not below vocabulary size {vocab_size}"),
        (~np.isfinite(rec["cos"]), "non-finite cosine"),
        (np.abs(rec["cos"]) > 1, "cosine outside [-1, 1]"),
        # checked last: only ids validated above pack to one key per pair
        (np.concatenate(([False], np.diff(keys) <= 0)), "duplicate or out-of-order pair"),
    ):
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            a, b, c = rec[i].tolist()
            raise ValueError(f"{path}: record {i} ({a}, {b}, {c!r}): {what}")
    del keys
    near = _near_rows(_row_bounds(rec["a"], vocab_size), rec["b"], rec["cos"])
    del rec
    # the unit rows come after the table is built and the records freed,
    # so they do not add to the load's peak memory
    cache = SimilarityCache(embeddings)
    cache.near = near
    if digest != _unit_digest(cache._unit):
        raise ValueError(f"{path}: cache built from different embeddings; re-run train")
    return cache

