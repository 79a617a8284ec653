"""Embedding-guided word segmentation toolkit.

Adapts a baseline Chinese word segmenter to a new domain without labeled
data: word embeddings are trained on the baseline's own output with
segmentation-aware positive and negative sampling, and text is then
re-segmented by a beam decoder that ranks dictionary-constrained
hypotheses by embedding coherence.
"""
from .corpus import (
    BOS,
    EOS,
    Piece,
    add_boundary_markers,
    fragment_texts,
    is_word_char,
    read_segmented_corpus,
    reassemble,
    split_fragments,
)
from .decoder import BeamParams, Hypothesis, beam_search, segment_sentence
from .evaluate import AlignmentError, EvalReport, WordImprovementRow, score, word_improvement_report, word_spans
from .lexicon import Lexicon, SubsampleTable
from .sampler import (
    TrainingSample,
    build_occurrence_batch,
    class_weights,
    context_negatives,
    inword_negatives,
    noise_negatives,
    positives,
)
from .simcache import SimilarityCache, build_cache, load_cache, save_cache
from .synth import (
    ToyLanguage,
    corrupt,
    default_language,
    generate_corpus,
    make_mixed_lines,
)
from .trainer import (
    TrainerConfig,
    init_embeddings,
    load_embeddings,
    pair_score,
    sample_loss,
    save_embeddings,
    train,
    train_step,
)

__version__ = "0.1.0"

__all__ = [
    "BOS",
    "EOS",
    "Piece",
    "add_boundary_markers",
    "fragment_texts",
    "is_word_char",
    "read_segmented_corpus",
    "reassemble",
    "split_fragments",
    "BeamParams",
    "Hypothesis",
    "beam_search",
    "segment_sentence",
    "AlignmentError",
    "EvalReport",
    "WordImprovementRow",
    "score",
    "word_improvement_report",
    "word_spans",
    "Lexicon",
    "SubsampleTable",
    "TrainingSample",
    "build_occurrence_batch",
    "class_weights",
    "context_negatives",
    "inword_negatives",
    "noise_negatives",
    "positives",
    "SimilarityCache",
    "build_cache",
    "load_cache",
    "save_cache",
    "ToyLanguage",
    "corrupt",
    "default_language",
    "generate_corpus",
    "make_mixed_lines",
    "TrainerConfig",
    "init_embeddings",
    "load_embeddings",
    "pair_score",
    "sample_loss",
    "save_embeddings",
    "train",
    "train_step",
    "__version__",
]
