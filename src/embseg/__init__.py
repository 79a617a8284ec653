"""Embedding-guided word segmentation toolkit.

Adapts a baseline Chinese word segmenter to a new domain without labeled
data: word embeddings are trained on the baseline's own output with
segmentation-aware positive and negative sampling, and text is then
re-segmented by a beam decoder that ranks dictionary-constrained
hypotheses by embedding coherence.

The names exported here are the calls that the command line, the demos,
the bench or the README's library example make, and the types those
calls return.  Everything else in the modules is internal.
"""
from .corpus import (
    BOS,
    EOS,
    add_boundary_markers,
    fragment_texts,
    is_word_char,
    read_segmented_corpus,
    reassemble,
    split_fragments,
)
from .decoder import BeamParams, beam_search, segment_sentence
from .evaluate import AlignmentError, EvalReport, WordImprovementRow, score, word_improvement_report
from .lexicon import Lexicon, SubsampleTable
from .sampler import TrainingSample, build_occurrence_batch
from .simcache import SimilarityCache, build_cache, load_cache, save_cache
from .synth import ToyLanguage, corrupt, default_language, generate_corpus
from .trainer import TrainerConfig, load_embeddings, save_embeddings, train

__version__ = "0.1.0"

__all__ = [
    "BOS",
    "EOS",
    "add_boundary_markers",
    "fragment_texts",
    "is_word_char",
    "read_segmented_corpus",
    "reassemble",
    "split_fragments",
    "BeamParams",
    "beam_search",
    "segment_sentence",
    "AlignmentError",
    "EvalReport",
    "WordImprovementRow",
    "score",
    "word_improvement_report",
    "Lexicon",
    "SubsampleTable",
    "TrainingSample",
    "build_occurrence_batch",
    "SimilarityCache",
    "build_cache",
    "load_cache",
    "save_cache",
    "ToyLanguage",
    "corrupt",
    "default_language",
    "generate_corpus",
    "TrainerConfig",
    "load_embeddings",
    "save_embeddings",
    "train",
    "__version__",
]
