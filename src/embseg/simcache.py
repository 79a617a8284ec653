"""Precomputed cosine lookups for co-occurring word pairs.

Decoding keeps asking for the cosine of nearby word pairs, and nearly all
of those pairs co-occur somewhere in the training corpus, so computing
them once up front removes most vector math from the decoder's inner
loop.  Values are rounded to single precision on both the hit and the
miss path, which keeps decoding bit-identical whether or not a table is
loaded: the cache is a pure accelerator.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import struct
from typing import Iterable

import numpy as np

from .corpus import add_boundary_markers
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
_MIN_NORM = 1e-12
_ENTRY = np.dtype([("a", "<u4"), ("b", "<u4"), ("cos", "<f4")])
_CHUNK = 128  # pairs per cosine batch: small, so the gathered rows do not raise peak memory


class SimilarityCache:
    """Cosine scorer over word ids with an optional precomputed pair table.

    Keys are unordered id pairs stored (smaller, larger).  hits and misses
    count every query, so they always sum to the total number of lookups.
    """

    def __init__(self, embeddings: np.ndarray, table: dict[tuple[int, int], float] | None = None):
        norms = np.linalg.norm(embeddings, axis=1)
        if (norms < _MIN_NORM).any():
            raise ValueError("zero vector in embedding table")
        self._unit = embeddings / norms[:, None]
        # row views: rows[a].dot(rows[b]) is np.dot's BLAS dot without its
        # per-call indexing and dispatch
        self._rows = list(self._unit)
        self.table: dict[tuple[int, int], float] = table if table is not None else {}
        self.hits = 0
        self.misses = 0

    @property
    def vocab_size(self) -> int:
        return int(self._unit.shape[0])

    def similarity(self, a: int, b: int) -> float:
        """Cosine of two word ids, symmetric in its arguments."""
        if a == b:
            self.hits += 1
            return 1.0
        key = (a, b) if a < b else (b, a)
        val = self.table.get(key)
        if val is not None:
            self.hits += 1
            return val
        self.misses += 1
        return float(np.float32(self._rows[a].dot(self._rows[b])))

    def hit_rate(self) -> float:
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
    cache = SimilarityCache(embeddings)
    pairs: set[tuple[int, int]] = set()
    for sent in sentences:
        ids = [lexicon.id_of(t) for t in add_boundary_markers(sent)]
        for i, a in enumerate(ids):
            for b in ids[i + 1:i + 1 + window]:
                if a != b:
                    pairs.add((a, b) if a < b else (b, a))
    keys = list(pairs)  # the table reuses these tuples
    del pairs
    ab, order = _sorted_ids(keys, len(keys))
    # A stacked vector-vector matmul runs each pair through the same BLAS
    # dot as the miss path, so a hit is bit-identical to a miss.
    unit = cache._unit
    for lo in range(0, len(keys), _CHUNK):
        idx = order[lo:lo + _CHUNK]
        cos = np.matmul(unit[ab[idx, 0], None, :], unit[ab[idx, 1], :, None])
        cache.table.update(zip(map(keys.__getitem__, idx.tolist()),
                               cos.reshape(-1).astype(np.float32).tolist()))
    return cache


def _sorted_ids(keys: Iterable[tuple[int, int]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n id pairs as an (n, 2) array and the order that sorts them;
    sorting ids in numpy is several times faster than sorting the tuples."""
    ab = np.fromiter(itertools.chain.from_iterable(keys), dtype=np.uint32,
                     count=2 * n).reshape(-1, 2)
    return ab, np.lexsort((ab[:, 1], ab[:, 0]))


def _unit_digest(unit: np.ndarray) -> bytes:
    """Digest of the unit-row table that every cached cosine was computed
    from; a cache file is valid only against embeddings with this digest."""
    return hashlib.blake2b(np.ascontiguousarray(unit), digest_size=_DIGEST_SIZE).digest()


def save_cache(path: str, cache: SimilarityCache) -> None:
    """Binary layout: magic 'WCSC', version byte, vocab size (u32 LE), entry
    count (u64 LE), blake2b digest of the unit-row table (32 bytes), then
    (id_a u32, id_b u32, cos f32) triples with id_a < id_b, sorted."""
    table = cache.table
    n = len(table)
    ab, order = _sorted_ids(table, n)
    rec = np.empty(n, dtype=_ENTRY)
    rec["a"] = ab[order, 0]
    rec["b"] = ab[order, 1]
    rec["cos"] = np.fromiter(table.values(), dtype=np.float32, count=n)[order]
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes([_VERSION]))
        fh.write(_HEADER.pack(cache.vocab_size, n, _unit_digest(cache._unit)))
        rec.tofile(fh)


def load_cache(path: str, embeddings: np.ndarray) -> SimilarityCache:
    """Read a cache file back.  It must have been built from `embeddings`:
    the vocabulary size and the digest of the unit-row table must match.
    Every record must hold ids a < b < V and a finite cosine, and no bytes
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
    for bad, what in (
        (rec["a"] >= rec["b"], "ids not in (smaller, larger) order"),
        (rec["b"] >= vocab_size, f"word id not below vocabulary size {vocab_size}"),
        (~np.isfinite(rec["cos"]), "non-finite cosine"),
    ):
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            a, b, c = rec[i].tolist()
            raise ValueError(f"{path}: record {i} ({a}, {b}, {c!r}): {what}")
    table = dict(zip(zip(rec["a"].tolist(), rec["b"].tolist()), rec["cos"].tolist()))
    del rec
    # the unit rows come after the table is built and the records freed,
    # so they do not add to the load's peak memory
    cache = SimilarityCache(embeddings, table)
    if digest != _unit_digest(cache._unit):
        raise ValueError(f"{path}: cache built from different embeddings; re-run train")
    return cache

