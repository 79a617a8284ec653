"""Dictionary-constrained beam decoding scored by embedding coherence.

A hypothesis carries the words flushed so far plus an open buffer of raw
characters.  Each incoming character either extends the buffer (while it
stays within its reach, below) or closes it as a dictionary word and
starts a fresh buffer.  Hypotheses are ranked by the mean, over flushed
words, of the mean cosine between each word and up to `window` of its
predecessors; the begin marker contributes nothing, the end marker is
scored like a word.  A hypothesis's rank is computed once, when it
flushes a word, and carried unchanged while its buffer grows; _finals
gives the layout of the beam entries that carry it.  Each search first
indexes the fragment's lattice: the id of every word fragment[s:e] it
may flush, from `Lexicon.spans`, and reach[s], the furthest end a buffer
opened at s may grow to.  It keeps each buffer as a start offset, so its
inner loop builds no strings and looks up no text.  Each flushed word
costs one `mean_similarity` call, so the cache counts one lookup per
scored (word, predecessor) pair.
beam_search takes the beam size, word-length bound and window from one
frozen BeamParams and returns (words, score), or None when the beam dies.
It searches every dictionary word, with reach[s] = s + max_word_len.

A fragment holding a character that no dictionary word holds has no
tiling, so it falls back before any search, to its baseline tokens or to
single characters; one character-class scan of the fragment tells it.
beam_search runs once per fragment whose characters the dictionary holds.
A fragment whose beam dies is searched once more, at the same beam size,
over its completable lattice: one backward pass over `Lexicon.spans`
keeps a word fragment[s:e] only when the dictionary tiles fragment[e:],
and sets reach[s] to the furthest end kept.  Every entry of that beam
can be completed, so it cannot die; no word-length bound applies, and
words are limited by the longest dictionary word.  A fragment with no
tiling (reach[0] is -1) is not searched again: it falls back.  So a
fragment costs at most two searches.

segment_sentence checks once per line, before any search, that the
baseline tokens spell the line's fragments.  It cuts the baseline along
the fragment boundaries only on a line where some fragment fell back,
once for the whole line, and fills only the fragments that fell back.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from numbers import Integral
from typing import NamedTuple, Sequence

from .corpus import BOS, EOS, fragment_texts, reassemble, split_fragments, strip_delimiters
from .lexicon import Lexicon
from .simcache import SimilarityCache

__all__ = [
    "BeamParams",
    "beam_search",
    "segment_sentence",
]

# scores closer than 1e-9 are ties and fall through to the structural keys
_SCORE_QUANTUM = 1e9


@dataclass(frozen=True)
class BeamParams:
    """The `segment` decoding flags: --beam, --max-word-len and --window."""

    beam_size: int = 10
    max_word_len: int = 5
    window: int = 4  # predecessors each word is scored against

    def __post_init__(self) -> None:
        for name in ("beam_size", "max_word_len", "window"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


class Hypothesis(NamedTuple):
    """A closed segmentation, as _finals lists them: the four rank fields
    of the beam entry it closes, then its score."""

    q: int
    word_count: int
    lens: tuple[int, ...]
    seg: tuple[int, ...]  # word ids, begin and end markers included
    score: float          # mean of the per-word scores after the begin marker


def _finals(
    fragment: str,
    lexicon: Lexicon,
    cache: SimilarityCache,
    params: BeamParams,
    lattice: tuple[list[dict[int, int]], list[int]] | None = None,
) -> list[Hypothesis]:
    """The closed hypotheses that survive the beam over `fragment`; empty
    when the whole beam dies.

    `lattice` is (ends, reach): ends[e] maps each start s to the id of the
    word fragment[s:e], and a buffer opened at s takes characters up to
    reach[s].  Without it the search runs over every dictionary word with
    reach[s] = s + max_word_len; _completable gives the lattice of the
    retry.  Each character either extends a hypothesis's buffer (while the
    buffer stays within its reach) or flushes the buffer as a word of the
    lattice and opens a fresh one.  A beam entry is one flat tuple

        (-round(score * 1e9), word_count, negated word lengths, seg, start, total)

    whose first four fields are the rank: its buffer is fragment[start:p]
    at position p, and total sums the flushed words' scores.  Smaller ranks
    come first: the score, quantized so that differences under 1e-9 tie,
    then fewer words, then longer early words, then the word ids.  The rank
    depends on the flushed words only, so it is computed when a word is
    flushed and carried while the buffer grows; at one position the flushed
    words also fix the buffer, so no two entries share a rank, and sorting
    the entries never compares start or total.  The rank fields lead the
    entry itself, not a nested tuple, so the per-position sort compares
    the quantized score, an int below 2**30 in magnitude, on list.sort's
    small-int fast path.  A Hypothesis leads with the same four fields,
    taken at the close, and ends with the score, so the smallest
    Hypothesis is the best one and comparing two never reaches the score.
    A word is scored against the last `window` ids of seg, which starts
    with the begin marker.
    """
    if not fragment:
        raise ValueError("cannot decode an empty fragment")
    beam_size, window = params.beam_size, params.window
    score_word = cache.mean_similarity
    eos = lexicon.id_of(EOS)
    n = len(fragment)
    if lattice is None:
        ends: list[dict[int, int]] = [{} for _ in range(n + 1)]
        for start, end, wid in lexicon.spans(fragment):
            ends[end][start] = wid
        reach = list(range(params.max_word_len, n + params.max_word_len))
    else:
        ends, reach = lattice
    beam = [(0, 1, (), (lexicon.id_of(BOS),), 0, 0.0)]
    for p in range(n):
        flushable = ends[p]
        cands = []
        for entry in beam:
            _, count, lens, seg, start, total = entry
            if p < reach[start]:  # the buffer takes one more character
                cands.append(entry)
            wid = flushable.get(start)
            if wid is not None:
                total += score_word(wid, seg[-window:])
                cands.append((
                    -round(total / count * _SCORE_QUANTUM), count + 1, lens + (start - p,), seg + (wid,),
                    p, total,
                ))
        if not cands:
            return []
        cands.sort()  # ranks are unique, so this sorts by the four rank fields alone
        del cands[beam_size:]
        beam = cands
    # Past the last character the buffer must close as a word, and the end
    # marker joins the segmentation as a scored word of its own.
    finals: list[Hypothesis] = []
    flushable = ends[n]
    for _, count, lens, seg, start, total in beam:
        wid = flushable.get(start)
        if wid is None:
            continue
        total += score_word(wid, seg[-window:])
        seg += (wid,)
        total += score_word(eos, seg[-window:])
        seg += (eos,)
        count += 2
        score = total / (count - 1)
        finals.append(Hypothesis(-round(score * _SCORE_QUANTUM), count, lens + (start - n,), seg, score))
    return finals


def _best(finals: list[Hypothesis], lexicon: Lexicon) -> tuple[list[str], float] | None:
    if not finals:
        return None
    best = min(finals)
    return [lexicon.word_of(i) for i in best.seg[1:-1]], best.score


def beam_search(
    fragment: str,
    lexicon: Lexicon,
    cache: SimilarityCache,
    params: BeamParams = BeamParams(),
) -> tuple[list[str], float] | None:
    """Best segmentation of a delimiter-free fragment, or None if no
    hypothesis survives at this beam size and word-length bound.

    Returns (words, score); the word list never includes the boundary
    markers, while the score does include the end marker's term.
    """
    return _best(_finals(fragment, lexicon, cache, params), lexicon)


def _completable(fragment: str, lexicon: Lexicon) -> tuple[list[dict[int, int]], list[int]]:
    """The lattice of the words that lie on some tiling of `fragment`.

    Returns (ends, reach) for _finals: ends[e] maps s to the id of the word
    fragment[s:e], kept only when the dictionary tiles fragment[e:], and
    reach[s] is the furthest end of a kept word from s, or -1 if there is
    none; reach[n] = n stands for the empty tail.  The spans come in order
    of start, so walked backwards, every reach[e] is final when it is read.
    """
    n = len(fragment)
    ends: list[dict[int, int]] = [{} for _ in range(n + 1)]
    reach = [-1] * n + [n]
    for s, e, wid in reversed(lexicon.spans(fragment)):
        if reach[e] >= 0:
            ends[e][s] = wid
            reach[s] = max(reach[s], e)
    return ends, reach


def _carve_baseline(tokens: Sequence[str], frags: Sequence[str]) -> list[list[str]]:
    """Split baseline tokens along fragment boundaries.

    Baseline output may keep punctuation as tokens, so each token's
    delimiter characters are dropped; segment_sentence has checked that
    what remains spells the concatenated fragment text.
    """
    text = "".join(frags)
    ends = list(accumulate(filter(None, map(len, map(strip_delimiters, tokens)))))  # offsets into text
    out: list[list[str]] = []
    start = 0
    for frag in frags:
        stop = start + len(frag)
        cuts = [start, *ends[bisect_right(ends, start):bisect_left(ends, stop)], stop]
        out.append([text[i:j] for i, j in zip(cuts, cuts[1:])])
        start = stop
    return out


def segment_sentence(
    line: str,
    lexicon: Lexicon,
    cache: SimilarityCache,
    params: BeamParams = BeamParams(),
    *,
    baseline_tokens: Sequence[str] | None = None,
    counters: dict | None = None,
) -> str:
    """Segment one raw line; fragments the decoder gives up on fall back to
    the baseline tokens (when given) or to single characters.

    The output interleaves segmented fragments with the original delimiter
    runs, single-space separated; line count and delimiter bytes are
    preserved exactly.  The baseline must spell the line's fragments,
    delimiters aside; that is checked before any search, and the baseline
    is cut only on a line with a fallback.  A fragment holding a character
    that no dictionary word holds falls back before any search.
    `counters`, when passed, accumulates "fragments", "fallbacks" and
    "retries" tallies; a retry is a fragment searched again over its
    completable lattice.
    """
    pieces = split_fragments(line)
    frags = fragment_texts(pieces)
    if baseline_tokens is not None and strip_delimiters("".join(baseline_tokens)) != "".join(frags):
        raise ValueError("baseline tokens do not cover the line's fragments")
    segmented: list[list[str] | None] = []
    retries = 0
    foreign = lexicon._foreign
    for frag in frags:
        if foreign(frag):  # a character that no word holds: no tiling, so no search
            segmented.append(None)
            continue
        res = beam_search(frag, lexicon, cache, params)
        if res is None:
            ends, reach = _completable(frag, lexicon)
            if reach[0] >= 0:  # some tiling exists, so this beam cannot die
                retries += 1
                res = _best(_finals(frag, lexicon, cache, params, (ends, reach)), lexicon)
        segmented.append(None if res is None else res[0])
    failed = [i for i, words in enumerate(segmented) if words is None]
    if failed:
        base = _carve_baseline(baseline_tokens, frags) if baseline_tokens is not None else None
        for i in failed:
            segmented[i] = base[i] if base is not None else list(frags[i])
    if counters is not None:
        counters["fragments"] = counters.get("fragments", 0) + len(frags)
        counters["fallbacks"] = counters.get("fallbacks", 0) + len(failed)
        counters["retries"] = counters.get("retries", 0) + retries
    return reassemble(segmented, pieces)
