"""Precomputing the similarity cache.

The cosines of word pairs that co-occur within a window in training are
computed once, stored in a compact binary file, and looked up during
decoding.  The decoder also compares lattice alternatives that never
co-occurred; those lookups fall through to a direct computation that
rounds identically, keeping cached and uncached decoding bit-for-bit
interchangeable.  The table saves time only where the decoder's pairs
co-occur in training.  In memory it is one row per word id, mapping each
larger id to its cosine; a pair costs a dict slot and a float, since the
ids themselves are shared int objects.
"""
import os
import tempfile

import numpy as np

from embseg import (
    Lexicon,
    SimilarityCache,
    TrainerConfig,
    build_cache,
    corrupt,
    default_language,
    generate_corpus,
    load_cache,
    save_cache,
    train,
)


def main() -> None:
    lang = default_language()
    gold = generate_corpus(lang, 2000, np.random.default_rng(1))
    base = corrupt(lang, gold)
    lex = Lexicon.from_sentences(base)
    emb = train(base, lex, TrainerConfig(dim=64, seed=1))

    cache = build_cache(base, lex, emb)
    print(f"cache holds {cache.entries} of {len(lex) * (len(lex) - 1) // 2} "
          f"possible pairs")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sim.bin")
        save_cache(path, cache)
        print(f"file size {os.path.getsize(path)} bytes")
        loaded = load_cache(path, emb)

    bare = SimilarityCache(emb)
    worst = max(
        abs(val - bare.similarity(a, b)) for (a, b), val in loaded.pairs().items()
    )
    print(f"worst cached-vs-direct deviation: {worst:.2e}")

    rng = np.random.default_rng(2)
    for _ in range(5000):
        a, b = rng.integers(len(lex), size=2)
        loaded.similarity(int(a), int(b))
    print(f"hit rate on random lookups: {loaded.hit_rate():.3f}")


if __name__ == "__main__":
    main()
