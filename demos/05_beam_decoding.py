"""Beam decoding, the retry over the completable lattice, and the
baseline fallback.

The decoder walks a fragment character by character, keeping the best
partial segmentations ranked by the running mean of each word's cosine
against its recent predecessors.  When no hypothesis survives, the
fragment is searched once more, at the same beam size and with no
word-length bound, over the words that lie on some tiling of it; that
search cannot die.  Only a fragment that no dictionary words tile keeps
its baseline tokens verbatim.
"""
import numpy as np

from embseg import BeamParams, Lexicon, SimilarityCache, beam_search, segment_sentence
from embseg.corpus import BOS, EOS


def main() -> None:
    words = ["黑", "天", "鹅", "天鹅", "黑天鹅", "湖", "上", "湖上"]
    lex = Lexicon((BOS, EOS, *words), (1,) * (len(words) + 2))

    # hand-tuned embeddings: 黑天鹅 coheres with 湖上, single characters do not
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(len(lex), 8))
    emb[lex.id_of("黑天鹅")] = emb[lex.id_of("湖上")] + 0.05 * rng.normal(size=8)
    cache = SimilarityCache(emb)

    result = beam_search("湖上黑天鹅", lex, cache, BeamParams())
    segmentation, mean = result
    print(f"beam result: {' '.join(segmentation)}  (mean score {mean:+.3f})")

    # a 6-character word is out of reach at the stock bounds; the retry
    # over the words that tile the fragment brings it in
    lex6 = Lexicon((BOS, EOS, "一二三四五六"), (1, 1, 1))
    cache6 = SimilarityCache(np.random.default_rng(1).normal(size=(3, 8)))
    print("stock bounds:", beam_search("一二三四五六", lex6, cache6, BeamParams()))
    print("after retry: ", segment_sentence("一二三四五六", lex6, cache6, BeamParams()))

    # nothing in the dictionary covers this line: baseline tokens survive
    out = segment_sentence("平安无事", lex6, cache6, BeamParams(),
                           baseline_tokens=["平安", "无事"])
    print("fallback:    ", out)


if __name__ == "__main__":
    main()
