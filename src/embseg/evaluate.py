"""Word-level scoring of predicted segmentations against a gold standard."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "AlignmentError",
    "EvalReport",
    "WordImprovementRow",
    "check_aligned",
    "score",
    "word_improvement_report",
]


class AlignmentError(ValueError):
    """Gold and predicted corpora do not cover the same character stream.

    `line` is the first 1-based line whose characters differ, or None when
    the line counts do.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class EvalReport:
    """What `score` returns: word precision, recall and F, and their counts."""

    precision: float
    recall: float
    f_measure: float
    n_gold: int
    n_pred: int
    n_correct: int


@dataclass(frozen=True)
class WordImprovementRow:
    """One gold word's row of `word_improvement_report`."""

    word: str
    gold_count: int
    precision_baseline: float
    precision_new: float
    delta: float


def word_spans(tokens: Sequence[str]) -> set[tuple[int, int]]:
    """Half-open character intervals, one per token, tiling the sentence."""
    spans: set[tuple[int, int]] = set()
    pos = 0
    for tok in tokens:
        spans.add((pos, pos + len(tok)))
        pos += len(tok)
    return spans


def check_aligned(
    gold: Sequence[Sequence[str]], pred: Sequence[Sequence[str]], what: str = "predicted"
) -> None:
    """Raise AlignmentError unless both corpora tile the same lines."""
    if len(gold) != len(pred):
        raise AlignmentError(
            f"sentence count mismatch: {len(gold)} gold vs {len(pred)} {what}"
        )
    for lineno, (g, p) in enumerate(zip(gold, pred), start=1):
        if "".join(g) != "".join(p):
            raise AlignmentError(f"line {lineno}: character streams differ ({what})", lineno)


def score(gold: Sequence[Sequence[str]], pred: Sequence[Sequence[str]]) -> EvalReport:
    """Word precision/recall/F over aligned corpora of token lists.

    A predicted word is correct iff its exact character span appears in the
    gold segmentation of the same sentence.  F is 0 when P + R is 0.
    """
    check_aligned(gold, pred, "predicted")
    n_gold = n_pred = n_correct = 0
    for g, p in zip(gold, pred):
        gs = word_spans(g)
        ps = word_spans(p)
        n_gold += len(gs)
        n_pred += len(ps)
        n_correct += len(gs & ps)
    precision = n_correct / n_pred if n_pred else 0.0
    recall = n_correct / n_gold if n_gold else 0.0
    denom = precision + recall
    f = 2.0 * precision * recall / denom if denom > 0 else 0.0
    return EvalReport(precision, recall, f, n_gold, n_pred, n_correct)


def word_improvement_report(
    gold: Sequence[Sequence[str]],
    pred_baseline: Sequence[Sequence[str]],
    pred_new: Sequence[Sequence[str]],
    min_count: int = 10,
) -> list[WordImprovementRow]:
    """Per-word recall of two systems against gold, sorted by improvement.

    For each gold word type with at least min_count gold occurrences,
    `precision_baseline` and `precision_new` hold the share of those
    occurrences whose exact span appears in the system's output: that
    word's recall, not its precision.  The names stay for now, because
    the bench reads `precision_new` and the `report` TSV header, a
    user-facing format, prints them.  Rows are sorted by delta
    descending, ties by word string.
    """
    check_aligned(gold, pred_baseline, "baseline")
    check_aligned(gold, pred_new, "new")
    stats: dict[str, list[int]] = {}
    for g, pb, pn in zip(gold, pred_baseline, pred_new):
        base_spans = word_spans(pb)
        new_spans = word_spans(pn)
        pos = 0
        for tok in g:
            span = (pos, pos + len(tok))
            pos = span[1]
            rec = stats.setdefault(tok, [0, 0, 0])
            rec[0] += 1
            rec[1] += span in base_spans
            rec[2] += span in new_spans
    rows = [
        WordImprovementRow(word, n, hit_b / n, hit_n / n, (hit_n - hit_b) / n)
        for word, (n, hit_b, hit_n) in stats.items()
        if n >= min_count
    ]
    rows.sort(key=lambda r: (-r.delta, r.word))
    return rows
