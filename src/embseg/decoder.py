"""Dictionary-constrained beam decoding scored by embedding coherence.

A hypothesis carries the words flushed so far plus an open buffer of raw
characters.  Each incoming character either extends the buffer (while it
still fits the word-length bound) or closes it as a dictionary word and
starts a fresh buffer.  Hypotheses are ranked by the mean, over flushed
words, of the mean cosine between each word and up to `window` of its
predecessors; the begin marker contributes nothing, the end marker is
scored like a word.  A hypothesis's rank is computed once, when it
flushes a word, and carried unchanged while its buffer grows.

When the whole beam dies the search restarts with a larger beam and
word-length bound, so every input eventually gets some segmentation (its
baseline tokens, or single characters, in the worst case).  The growth
schedule is fixed by BeamParams; after the first failure one pass over
the fragment's dictionary lattice finds the smallest word-length bound
at which any tiling exists.  Rounds below that bound cannot succeed, so
they are counted and advance the schedule without running the search,
and a fragment with no tiling at all gives up at once.  Every round that
is run runs at the same beam size and bound as it would if none were
skipped, so the output is the same.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple, Sequence

from .corpus import BOS, EOS, FRAGMENT, Piece, fragment_texts, is_word_char, reassemble, split_fragments
from .lexicon import Lexicon
from .simcache import SimilarityCache

__all__ = [
    "BeamParams",
    "Hypothesis",
    "word_logp",
    "recompute_mean_logp",
    "extend",
    "beam_search",
    "segment_sentence",
]

# scores closer than 1e-9 are ties and fall through to the structural keys
_SCORE_QUANTUM = 1e9


@dataclass
class BeamParams:
    """Decoder knobs, including the growth schedule for dead beams."""

    beam_size: int = 10
    max_word_len: int = 5
    beam_step: int = 10
    len_step: int = 1
    retry_cap: int | None = None  # None: grow until max_word_len covers the fragment, then 3 more rounds

    def __post_init__(self) -> None:
        if self.beam_size < 1 or self.max_word_len < 1:
            raise ValueError("beam_size and max_word_len must be >= 1")
        if self.beam_step < 1 or self.len_step < 1:
            raise ValueError("beam_step and len_step must be >= 1")
        if self.retry_cap is not None and self.retry_cap < 0:
            raise ValueError("retry_cap must be >= 0")


class Hypothesis(NamedTuple):
    seg: tuple[int, ...]        # flushed word ids, begin marker first
    buf: str                    # open character buffer
    word_count: int             # len(seg)
    sum_logp: float             # sum of per-word log probabilities
    recent: tuple[int, ...]     # last min(window, word_count) ids, oldest first
    lens: tuple[int, ...]       # real-word lengths, for deterministic tie-breaks
    rank: tuple = ()            # sort key, see _rank_key; () until first extended

    def mean_logp(self) -> float:
        """Current score: mean log probability over scored words."""
        return self.sum_logp / (self.word_count - 1) if self.word_count > 1 else 0.0


def _rank_key(h: Hypothesis) -> tuple:
    """Sort key of a hypothesis, computed from scratch; smaller ranks first.

    Primary: score, quantized so that differences under 1e-9 tie.  Ties
    prefer fewer words, then longer early words, then the word ids.  The
    key depends on the flushed words only: at one character position the
    flushed words also fix the buffer, so no two candidates share a key.
    """
    neg_lens = tuple(-x for x in h.lens)
    return (-round(h.mean_logp() * _SCORE_QUANTUM), h.word_count, neg_lens, h.seg)


def _flushed_rank(sum_logp: float, word_count: int, neg_lens: tuple[int, ...], seg: tuple[int, ...]) -> tuple:
    # _rank_key of a hypothesis that has just flushed a word (word_count >= 2)
    return (-round(sum_logp / (word_count - 1) * _SCORE_QUANTUM), word_count, neg_lens, seg)


_carried_rank = attrgetter("rank")


def word_logp(word: int, recent: Sequence[int], cache: SimilarityCache, window: int) -> float:
    """Mean cosine between `word` and up to `window` most recent predecessors.

    With no predecessors (the begin marker itself) the contribution is 0.
    """
    preds = recent[-window:]
    if not preds:
        return 0.0
    return sum(cache.similarity(word, p) for p in preds) / len(preds)


def recompute_mean_logp(seg: Sequence[int], cache: SimilarityCache, window: int) -> float:
    """Reference scorer: evaluate a full segmentation from scratch.

    Used to verify that the incremental score kept by the beam matches a
    batch recomputation.
    """
    if len(seg) < 2:
        return 0.0
    total = 0.0
    for i in range(1, len(seg)):
        preds = seg[max(0, i - window):i]
        total += sum(cache.similarity(seg[i], p) for p in preds) / len(preds)
    return total / (len(seg) - 1)


def extend(
    h: Hypothesis,
    ch: str,
    lexicon: Lexicon,
    max_word_len: int,
    cache: SimilarityCache,
    window: int,
) -> list[Hypothesis]:
    """Successor hypotheses for one more character.

    Candidate A appends the character to the buffer while the buffer stays
    within max_word_len and keeps the rank; candidate B flushes the buffer
    as a word (only if it is in the dictionary), opens a fresh buffer with
    the character and extends the rank by the new word.
    """
    out: list[Hypothesis] = []
    rank = h.rank or _rank_key(h)
    if len(h.buf) + 1 <= max_word_len:
        out.append(Hypothesis(h.seg, h.buf + ch, h.word_count, h.sum_logp, h.recent, h.lens, rank))
    if h.buf and h.buf in lexicon:
        wid = lexicon.id_of(h.buf)
        seg = h.seg + (wid,)
        count = h.word_count + 1
        total = h.sum_logp + word_logp(wid, h.recent, cache, window)
        out.append(Hypothesis(
            seg, ch, count, total, (h.recent + (wid,))[-window:], h.lens + (len(h.buf),),
            _flushed_rank(total, count, rank[2] + (-len(h.buf),), seg),
        ))
    return out


def beam_search(
    fragment: str,
    lexicon: Lexicon,
    cache: SimilarityCache,
    *,
    beam_size: int = 10,
    max_word_len: int = 5,
    window: int = 4,
    return_finals: bool = False,
):
    """Best segmentation of a delimiter-free fragment, or None if no
    hypothesis survives at this beam size and word-length bound.

    Returns (words, mean_logp); the word list never includes the boundary
    markers, while the score does include the end marker's term.  With
    return_finals=True the full list of surviving final hypotheses is
    returned as a second value (verification hook).
    """
    if not fragment:
        raise ValueError("cannot decode an empty fragment")
    bos = lexicon.id_of(BOS)
    eos = lexicon.id_of(EOS)
    beam = [Hypothesis((bos,), "", 1, 0.0, (bos,), ())]
    for ch in fragment:
        cands: list[Hypothesis] = []
        for h in beam:
            cands.extend(extend(h, ch, lexicon, max_word_len, cache, window))
        if not cands:
            return (None, []) if return_finals else None
        cands.sort(key=_carried_rank)
        beam = cands[:beam_size]
    # Past the last character the buffer must close as a word, and the end
    # marker joins the segmentation as a scored word of its own.
    finals: list[Hypothesis] = []
    for h in beam:
        if h.buf not in lexicon:
            continue
        wid = lexicon.id_of(h.buf)
        logp_w = word_logp(wid, h.recent, cache, window)
        recent = (h.recent + (wid,))[-window:]
        logp_e = word_logp(eos, recent, cache, window)
        seg = h.seg + (wid, eos)
        count = h.word_count + 2
        total = h.sum_logp + logp_w + logp_e
        finals.append(Hypothesis(
            seg, "", count, total, (recent + (eos,))[-window:], h.lens + (len(h.buf),),
            _flushed_rank(total, count, h.rank[2] + (-len(h.buf),), seg),
        ))
    if not finals:
        return (None, finals) if return_finals else None
    best = min(finals, key=_carried_rank)
    words = [lexicon.word_of(i) for i in best.seg[1:-1]]
    result = (words, best.mean_logp())
    return (result, finals) if return_finals else result


def _min_tiling_len(fragment: str, lexicon: Lexicon) -> int | None:
    """Smallest word-length bound at which the dictionary tiles `fragment`,
    or None if no tiling exists at any bound.

    need[j] is the smallest possible longest word over the tilings of
    fragment[:j]; a word ending at j is at most lexicon.longest long.
    """
    n = len(fragment)
    never = n + 1
    need = [0] + [never] * n
    for j in range(1, n + 1):
        best = never
        for i in range(max(0, j - lexicon.longest), j):
            if need[i] < best and j - i < best and fragment[i:j] in lexicon:
                best = max(need[i], j - i)
        need[j] = best
    return need[n] if need[n] < never else None


def _decode_with_growth(
    fragment: str,
    lexicon: Lexicon,
    cache: SimilarityCache,
    params: BeamParams,
    window: int,
) -> list[str] | None:
    k = params.beam_size
    m = params.max_word_len
    rounds = 0
    covered_failures = 0
    need = 0  # beam_search fails below this word-length bound; found on the first failure
    while True:
        if m >= need:
            res = beam_search(
                fragment, lexicon, cache,
                beam_size=k, max_word_len=m, window=window,
            )
            if res is not None:
                return res[0]
            if rounds == 0:
                need = _min_tiling_len(fragment, lexicon)
                if need is None:
                    return None  # every round of the schedule would fail
        rounds += 1
        if params.retry_cap is not None:
            if rounds > params.retry_cap:
                return None
        elif m >= len(fragment):
            # the length bound already covers the whole fragment; allow a
            # few beam-only growth rounds before giving up
            covered_failures += 1
            if covered_failures >= 4:
                return None
        k += params.beam_step
        m += params.len_step


def _carve_baseline(tokens: Sequence[str], frags: Sequence[str]) -> list[list[str]]:
    """Split baseline tokens along fragment boundaries.

    Baseline output may keep punctuation as tokens, so delimiter characters
    are dropped first; the remaining character stream must equal the
    concatenated fragment text.
    """
    clean: list[str] = []
    for tok in tokens:
        kept = "".join(ch for ch in tok if is_word_char(ch))
        if kept:
            clean.append(kept)
    if "".join(clean) != "".join(frags):
        raise ValueError("baseline tokens do not cover the line's fragments")
    out: list[list[str]] = []
    ti = 0
    offset = 0
    for frag in frags:
        need = len(frag)
        words: list[str] = []
        while need > 0:
            tok = clean[ti]
            take = min(need, len(tok) - offset)
            words.append(tok[offset:offset + take])
            need -= take
            offset += take
            if offset == len(tok):
                ti += 1
                offset = 0
        out.append(words)
    return out


def segment_sentence(
    line: str,
    lexicon: Lexicon,
    cache: SimilarityCache,
    params: BeamParams | None = None,
    *,
    window: int = 4,
    baseline_tokens: Sequence[str] | None = None,
    counters: dict | None = None,
) -> str:
    """Segment one raw line; fragments the decoder gives up on fall back to
    the baseline tokens (when given) or to single characters.

    The output interleaves segmented fragments with the original delimiter
    runs, single-space separated; line count and delimiter bytes are
    preserved exactly.  `counters`, when passed, accumulates "fragments"
    and "fallbacks" tallies.
    """
    params = params if params is not None else BeamParams()
    pieces = split_fragments(line)
    frags = fragment_texts(pieces)
    base = _carve_baseline(baseline_tokens, frags) if baseline_tokens is not None else None
    if counters is not None:
        counters.setdefault("fragments", 0)
        counters.setdefault("fallbacks", 0)
    segmented: list[list[str]] = []
    for idx, frag in enumerate(frags):
        words = _decode_with_growth(frag, lexicon, cache, params, window)
        if words is None:
            if counters is not None:
                counters["fallbacks"] += 1
            words = base[idx] if base is not None and base[idx] else list(frag)
        segmented.append(words)
    if counters is not None:
        counters["fragments"] += len(frags)
    return reassemble(segmented, pieces)
