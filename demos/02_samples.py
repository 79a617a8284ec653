"""What one target occurrence contributes to training.

A single position in a segmented sentence yields positive pairs from the
context window and negative pairs from three channels: in-dictionary
substrings of the flanking character streams, ordered substring pairs
inside the target word itself, and random noise words.  The class weight
keeps the two sides balanced.
"""
import numpy as np

from embseg import BOS, EOS, Lexicon, add_boundary_markers, build_occurrence_batch
from embseg.sampler import POSITIVE

SENTENCES = [
    ["今天", "天气", "很", "好"],
    ["天天", "都", "很", "好"],
    ["好天气", "不", "多"],
]


def main() -> None:
    lex = Lexicon.from_sentences(SENTENCES)
    rng = np.random.default_rng(0)
    ids = [lex.id_of(w) for w in add_boundary_markers(SENTENCES[0])]

    for i, wid in enumerate(ids):
        batch = build_occurrence_batch(ids, i, lex, rng)
        word = lex.word_of(wid)
        if word in (BOS, EOS):
            continue
        n_pos = sum(s.label == POSITIVE for s in batch)
        print(f"target {word!r}: {n_pos} positives, {len(batch) - n_pos} negatives")
        for s in batch:
            pair = f"({lex.word_of(s.target)}, {lex.word_of(s.other)})"
            print(f"  {s.label:8s} {s.source:10s} {pair:24s} weight {s.weight:.3f}")
        print()


if __name__ == "__main__":
    main()
