"""The full pipeline: corrupt baseline in, better segmentation out.

Generates the toy corpus, corrupts its segmentation the way a stale
baseline segmenter would (five words split apart, three bigrams glued
together), trains embeddings on that corrupted text, re-segments, and
scores both systems against the gold standard.
"""
import numpy as np

from embseg import (
    Lexicon,
    TrainerConfig,
    build_cache,
    corrupt,
    default_language,
    generate_corpus,
    score,
    segment_sentence,
    train,
    word_improvement_report,
)


def main() -> None:
    lang = default_language()
    gold = generate_corpus(lang, 8000, np.random.default_rng(1))
    base = corrupt(lang, gold)

    lex = Lexicon.from_sentences(base)
    emb = train(base, lex, TrainerConfig(seed=1))
    cache = build_cache(base, lex, emb)

    n_eval = 1000
    pred = [
        segment_sentence("".join(gold[i]), lex, cache, baseline_tokens=base[i]).split()
        for i in range(n_eval)
    ]

    s_base = score(gold[:n_eval], base[:n_eval])
    s_new = score(gold[:n_eval], pred)
    print("            P       R       F")
    print(f"baseline  {s_base.precision:.4f}  {s_base.recall:.4f}  {s_base.f_measure:.4f}")
    print(f"re-seg    {s_new.precision:.4f}  {s_new.recall:.4f}  {s_new.f_measure:.4f}")
    print()

    rows = word_improvement_report(gold[:n_eval], base[:n_eval], pred, min_count=10)
    targets = set(lang.split_targets)
    print("word        n   base_P  new_P   delta")
    for r in rows:
        if r.word in targets:
            print(f"{r.word:6s} {r.gold_count:6d}  {r.precision_baseline:.4f}  "
                  f"{r.precision_new:.4f}  {r.delta:+.4f}")


if __name__ == "__main__":
    main()
