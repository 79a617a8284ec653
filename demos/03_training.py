"""Training embeddings on the built-in toy corpus.

Trains for one epoch on a synthetic corpus whose baseline segmentation
systematically splits five two-character words, then lists the nearest
neighbors of a few words by cosine.  Words that belong together in text
end up close in the embedding space even though the baseline almost
never segments them as units.
"""
import numpy as np

from embseg import Lexicon, TrainerConfig, corrupt, default_language, generate_corpus, train


def nearest(lex: Lexicon, emb: np.ndarray, word: str, k: int = 5) -> list[tuple[str, float]]:
    unit = emb / np.linalg.norm(emb, axis=1)[:, None]
    sims = unit @ unit[lex.id_of(word)]
    order = np.argsort(-sims)
    out = []
    for wid in order:
        if lex.word_of(int(wid)) != word:
            out.append((lex.word_of(int(wid)), float(sims[wid])))
        if len(out) == k:
            break
    return out


def main() -> None:
    lang = default_language()
    gold = generate_corpus(lang, 3000, np.random.default_rng(0))
    base = corrupt(lang, gold)
    lex = Lexicon.from_sentences(base)
    emb = train(base, lex, TrainerConfig(dim=64, seed=0))
    print(f"trained {len(lex)} x {emb.shape[1]} embeddings "
          f"on {sum(len(s) for s in base)} baseline tokens\n")

    for probe in [*lang.split_targets[:3], lang.domain_compounds[0]]:
        print(f"nearest to {probe!r}:")
        for word, sim in nearest(lex, emb, probe):
            print(f"  {sim:+.3f}  {word}")
        print()


if __name__ == "__main__":
    main()
