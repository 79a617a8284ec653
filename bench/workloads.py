"""Input generation for the three benchmark workloads.

Every input is a pure function of the workload seed.  The program under
test only ever sees the files written from a Workload: the baseline
training corpus, the raw lines to decode and their baseline tokens.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
from embseg import ToyLanguage, corrupt, default_language, generate_corpus

DELIMITER = "，"
OOV_SEED = 12345
HELD_OUT_SEED = 54321
ASCII_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass
class Workload:
    name: str
    train: list[list[str]]        # baseline-segmented training corpus
    gold: list[list[str]]         # gold tokens of the decoded lines
    baseline: list[list[str]]     # baseline tokens of the decoded lines
    split_targets: tuple[str, ...]
    check_lines: list[int]        # line indices decoded again without the cache
    passes: int = 1               # decoding passes per round of the run

    @property
    def raw(self) -> list[str]:
        return ["".join(toks) for toks in self.gold]


def make(name: str, seed: int) -> Workload:
    if name == "toy-decode":
        return _toy_decode(seed)
    if name == "scaled-train":
        return _scaled_train(seed)
    if name == "web-oov":
        return _web_oov(seed)
    raise ValueError(f"unknown workload {name!r}")


def _toy_corpus(seed: int) -> tuple[ToyLanguage, list[list[str]], list[list[str]]]:
    lang = default_language()
    gold = generate_corpus(lang, 8000, np.random.default_rng(seed))
    return lang, gold, corrupt(lang, gold)


def _toy_decode(seed: int) -> Workload:
    lang, gold, base = _toy_corpus(seed)
    return Workload("toy-decode", base, gold[:4000], base[:4000],
                    lang.split_targets, list(range(300)))


def _scaled_train(seed: int) -> Workload:
    lang = scaled_language()
    gold = generate_corpus(lang, 10_000, np.random.default_rng(seed))
    # The held-out lines are the same at every seed, as web-oov's OOV lines
    # are: drawn per seed, the ten slowest of them set a p99 that changed by
    # 1.3x from seed to seed, while a repeat of one seed moved it by 2%.
    held_gold = generate_corpus(lang, 1000, np.random.default_rng([HELD_OUT_SEED, 2]))
    # a train takes about seven times as long as a pass over the 1,000 lines
    return Workload("scaled-train", corrupt(lang, gold), held_gold, corrupt(lang, held_gold),
                    lang.split_targets, list(range(200)), passes=5)


def scaled_language() -> ToyLanguage:
    """A 2,480-word ToyLanguage with the same topic structure as the default.

    Characters are taken in order from the CJK block, so every filler, cue
    and background single is built from characters of its own; the domain
    halves and compounds reuse 40 domain characters, as in the default
    language.  The structure is fixed: it does not depend on the seed.
    """
    next_cp = 0x4E00

    def take(n: int) -> list[str]:
        nonlocal next_cp
        out = [chr(next_cp + i) for i in range(n)]
        next_cp += n
        return out

    singles_a, singles_b = take(120), take(120)
    fillers_a = ["".join(take(2)) for _ in range(600)]
    fillers_b = ["".join(take(2)) for _ in range(600)]
    domain_chars = take(40)
    rng = np.random.default_rng(0)
    char_pairs = [(i, j) for i in range(40) for j in range(40) if i != j]
    halves = [domain_chars[i] + domain_chars[j]
              for i, j in (char_pairs[k] for k in sorted(rng.choice(len(char_pairs), 300, replace=False)))]
    half_pairs = [(i, j) for i in range(300) for j in range(300) if i != j]
    compounds = [halves[i] + halves[j]
                 for i, j in (half_pairs[k] for k in sorted(rng.choice(len(half_pairs), 400, replace=False)))]
    cue_starts = ["".join(take(2)) for _ in range(100)]
    cue_ends = ["".join(take(2)) for _ in range(100)]
    # a background character from each topic, every fifth target a third one
    targets = [singles_a[k] + singles_b[k] + (singles_a[k + 1] if k % 5 == 4 else "")
               for k in range(100)]
    # merge pairs from the 20 singles per topic that belong to no target
    merges = tuple((s[100 + 2 * j], s[101 + 2 * j]) for s in (singles_a, singles_b) for j in range(5))
    return ToyLanguage(
        singles_a=tuple(singles_a), singles_b=tuple(singles_b),
        fillers_a=tuple(fillers_a), fillers_b=tuple(fillers_b),
        domain_chars=tuple(domain_chars), domain_halves=tuple(halves),
        domain_compounds=tuple(compounds), cue_starts=tuple(cue_starts),
        cue_ends=tuple(cue_ends), split_targets=tuple(targets), merge_pairs=merges,
    )


def _boundaries(tokens: list[str]) -> set[int]:
    out, pos = {0}, 0
    for tok in tokens:
        pos += len(tok)
        out.add(pos)
    return out


def _cut(tokens: list[str], offsets: list[int]) -> list[list[str]]:
    """Split a token list at ascending character offsets that are token
    boundaries; an offset at either end yields an empty part."""
    parts: list[list[str]] = [[] for _ in range(len(offsets) + 1)]
    pos = k = 0
    for tok in tokens:
        while k < len(offsets) and pos >= offsets[k]:
            k += 1
        parts[k].append(tok)
        pos += len(tok)
    return parts


def _context(shared: list[int], length: int) -> tuple[int, int, int]:
    """Boundaries (left, at, right) with right - left as close to `length`
    as the shared boundaries allow and `at` nearest the middle."""
    best = None
    for i, left in enumerate(shared):
        for right in shared[i + 2:]:
            mid = bisect.bisect_left(shared, (left + right) / 2, i + 1)
            for at in (shared[mid - 1], shared[mid]):
                if left < at < right:
                    key = (abs(right - left - length), abs(2 * at - left - right), left)
                    if best is None or key < best[0]:
                        best = (key, (left, at, right))
    return best[1]


def _web_oov(seed: int) -> Workload:
    """2,000 toy lines; 100 of them carry an ASCII run that no dictionary holds.

    The run is glued to CJK context on both sides and the resulting
    fragment is cut out of its line by delimiters.  Fragment lengths are
    spread evenly over 10..40 characters and run lengths over 3..12.  The
    100 OOV lines themselves are the same at every seed (built from a
    corpus of fixed seed OOV_SEED); the seed picks the training corpus, the
    other 1,900 lines and where the OOV lines go.  Decode time of such a
    line grows with the segmentation ambiguity of its context, so with
    seed-drawn contexts the slow tail changed by 1.6x from seed to seed.
    Gold and baseline both keep the run as one token.
    """
    lang, gold, base = _toy_corpus(seed)
    n_lines, n_oov = 2000, 100
    oov_lines = sorted(int(i) for i in np.random.default_rng([seed, 3]).choice(
        n_lines, n_oov, replace=False))
    rng = np.random.default_rng(OOV_SEED)
    host_gold = generate_corpus(lang, 1000, rng)
    host_base = corrupt(lang, host_gold)
    hosts = iter(range(len(host_gold)))
    frag_lens = rng.permutation([10 + (30 * i) // (n_oov - 1) for i in range(n_oov)])
    out_gold = [list(g) for g in gold[:n_lines]]
    out_base = [list(b) for b in base[:n_lines]]
    for k, line in enumerate(oov_lines):
        frag_len = int(frag_lens[k])
        run_len = min(3 + (7 * k) % 10, frag_len - 4)
        run = "".join(ASCII_LETTERS[int(c)] for c in rng.integers(len(ASCII_LETTERS), size=run_len))
        g, b = [], []
        while sum(map(len, g)) < frag_len + 4:
            host = next(hosts)
            g += host_gold[host]
            b += host_base[host]
        shared = sorted(_boundaries(g) & _boundaries(b))
        n_chars = shared[-1]
        left, at, right = _context(shared, frag_len - run_len)
        gl, gm, gr, ge = _cut(g, [left, at, right])
        bl, bm, br, be = _cut(b, [left, at, right])
        head = [DELIMITER] if left else []
        tail = [DELIMITER] if right < n_chars else []
        out_gold[line] = gl + head + gm + [run] + gr + tail + ge
        out_base[line] = bl + head + bm + [run] + br + tail + be
    oov = set(oov_lines)
    plain = [i for i in range(n_lines) if i not in oov]
    return Workload("web-oov", base, out_gold, out_base, lang.split_targets, plain[:300])
