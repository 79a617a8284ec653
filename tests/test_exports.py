"""The public surface: what each module exports, and nothing more.

A name is public when the command line, a demo, the bench or the
README's library example calls it, or when such a call returns it.
References that only tests read live in `tests/oracles.py`.
"""
import importlib
import inspect
import pkgutil

import pytest

import embseg
from embseg.lexicon import SubsampleTable

# __main__ runs the command line on import and exports nothing
MODULES = ["embseg"] + [
    f"embseg.{m.name}" for m in pkgutil.iter_modules(embseg.__path__) if m.name != "__main__"
]

PUBLIC = [
    "AlignmentError", "BOS", "BeamParams", "EOS", "EvalReport", "Lexicon",
    "SimilarityCache", "SubsampleTable", "ToyLanguage", "TrainerConfig", "TrainingSample",
    "WordImprovementRow", "__version__", "add_boundary_markers", "beam_search",
    "build_cache", "build_occurrence_batch", "corrupt", "default_language", "fragment_texts",
    "generate_corpus", "is_word_char", "load_cache", "load_embeddings", "read_segmented_corpus",
    "reassemble", "save_cache", "save_embeddings", "score", "segment_sentence",
    "split_fragments", "train", "word_improvement_report",
]

# internal: the library still calls them, but no user of the package does
UNEXPORTED = [
    "Hypothesis", "word_spans", "context_negatives", "inword_negatives",
    "noise_negatives", "class_weights", "init_embeddings",
]
# test oracles, now in tests/oracles.py
MOVED = {
    "embseg.corpus": ["unescape_token"],
    "embseg.trainer": ["pair_score", "_log_sigmoid", "sample_loss", "train_step"],
    "embseg.decoder": ["recompute_mean_logp"],
    "embseg.synth": [
        "make_mixed_lines", "_MIXED_CJK", "_MIXED_ASCII", "_MIXED_DIGITS", "_MIXED_DELIMS",
    ],
}
DROPPED = UNEXPORTED + ["make_mixed_lines", "pair_score", "sample_loss", "train_step"]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_exactly_the_public_surface():
    assert len(PUBLIC) == 33 and len(DROPPED) == 11
    assert sorted(embseg.__all__) == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_no_module_exports_a_dropped_name(name):
    exported = getattr(importlib.import_module(name), "__all__", [])
    assert [n for n in DROPPED if n in exported] == []


def test_dropped_names_are_not_package_attributes():
    assert [n for n in DROPPED if hasattr(embseg, n)] == []


@pytest.mark.parametrize("name", sorted(MOVED))
def test_oracles_are_gone_from_the_library(name):
    module = importlib.import_module(name)
    assert [n for n in MOVED[name] if hasattr(module, n)] == []


def test_subsample_table_has_no_per_word_lookups():
    # tests read p_sub and keep_override at lexicon.id_of(word)
    assert not hasattr(SubsampleTable, "subsample_prob")
    assert not hasattr(SubsampleTable, "multichar_keep")
    # nothing reads the lexicon or mu after construction, so it keeps neither
    table = SubsampleTable(embseg.Lexicon(("ab", "a", "b"), (1, 2, 3)))
    assert sorted(vars(table)) == ["keep_override", "p_sub"]


def _has_docstring(obj) -> bool:
    doc = inspect.getdoc(obj)
    # a dataclass without a docstring gets its signature as one
    return bool(doc) and not doc.startswith(f"{getattr(obj, '__name__', '')}(")


def test_every_public_callable_and_method_has_a_docstring():
    missing = []
    for name in embseg.__all__:
        obj = getattr(embseg, name)
        if callable(obj) and not _has_docstring(obj):
            missing.append(name)
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                func = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
                if not attr.startswith("_") and inspect.isfunction(func) and not _has_docstring(func):
                    missing.append(f"{name}.{attr}")
    assert missing == []
