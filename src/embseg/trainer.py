"""Stochastic gradient training of the embedding table.

The objective is a weighted sum of log-sigmoid scores over sampled pairs:
positives push the cosine of their two vectors up, negatives push it down.
Scoring pairs by cosine rather than raw dot product keeps the training
geometry identical to the metric the decoder ranks hypotheses with.

`train` runs in two roles.  The calling process samples: it holds the
rng, draws the subsampling keeps, builds each occurrence batch, sets the
learning rate, feeds `sample_sink`, runs the repair sweeps and logs
them.  A worker steps: where `os.fork` exists it is a child process that
applies the samples, sent to it in chunks of packed records over a pipe,
to a table in an anonymous shared mapping; elsewhere the caller applies
the same chunks itself, through the same function.  At every sweep and
at the end the caller waits until the worker has applied every sample
sent, then repairs the table itself, so the updates and the rng draws
keep their one-process order.  The worker ignores SIGINT, exits when
its pipe closes, and is reaped before `train` returns or raises; an
exception it raises comes out of `train` with its type and message.

Each role spends its time in numpy's per-call work rather than in Python
calls per token and per pair: `Lexicon.encode` maps the corpus to ids
once, the sampler builds its samples in C, and the step reads row views
made once per training run.  The result is bit for bit that of one
`_stepper(table)` step per sample in turn, each indexing the table per
call, in one process.

`emb.txt`, the text that `save_embeddings` writes, is the format of
record.  `embseg train` also writes a binary copy of the table beside
it, `<emb>.bin` (`_save_binary_copy`), stamped with the SHA-256 of the
text's bytes.  `load_embeddings` reads the copy in place of parsing the
floats only when the stamp matches the text it was given, and every
other field checks out; otherwise it parses the text.  Either way it
returns the same words and bits, or raises the same error.
"""
from __future__ import annotations

import hashlib
import logging
import math
import mmap
import os
import signal
import stat
import struct
import sys
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from numbers import Integral
from typing import TYPE_CHECKING, Callable, Iterator, NoReturn, Sequence

import numpy as np

from .corpus import read_lines
from .lexicon import Lexicon, SubsampleTable
from .sampler import CTX_NEG, CTX_POS, INWORD_NEG, NOISE_NEG, TrainingSample, build_occurrence_batch
from .simcache import _MIN_NORM

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = [
    "TrainerConfig",
    "train",
    "save_embeddings",
    "load_embeddings",
]

log = logging.getLogger(__name__)

_SWEEP_EVERY = 1000  # occurrence batches between finiteness sweeps
_LR_START = 0.025    # learning rate at the first token position
_LR_END = 1e-4       # learning rate approached at the last one
_CHUNK = 1024        # records per chunk the caller sends to the worker
# after a meet the worker idles until the caller sends again: the first
# chunk holds this many records, and each next one twice as many, up to
# _CHUNK, so the worker restarts at once and then keeps ahead of the caller
_FIRST_CHUNK = 16

# one sample and its learning rate: target, other, channel code, weight, lr
_RECORD = struct.Struct("<iiBdd")
_CHANNELS = (CTX_POS, CTX_NEG, INWORD_NEG, NOISE_NEG)  # by channel code
_CODE = {source: code for code, source in enumerate(_CHANNELS)}

# the binary copy of an embedding text: magic, format version, V, d, the
# byte length of the words and the SHA-256 of the text's bytes; then the
# V x d table as little-endian float64, then the words in UTF-8 joined by "\n"
_COPY_HEAD = struct.Struct("<4sB3xQQQ32s")
_COPY_MAGIC = b"EMBB"
_COPY_VERSION = 1
_HASH_CHUNK = 1 << 20  # bytes of the text read per digest update


@dataclass(frozen=True)
class TrainerConfig:
    """Sampling, objective, and schedule hyperparameters: the `train` flags."""

    epsilon: float = 1e-5        # subsampling threshold
    mu: float = 0.5              # multi-character keep threshold
    n_noise: int = 1             # noise negatives per target occurrence
    dim: int = 100               # embedding dimension
    eta: float = 0.2             # class-weight smoothing
    window: int = 4              # context window
    epochs: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_noise", "dim", "window", "epochs", "seed"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("epsilon", "mu", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epsilon <= 0 or self.mu <= 0:
            raise ValueError("epsilon and mu must be positive")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.dim < 1 or self.window < 1 or self.epochs < 1:
            raise ValueError("dim, window, and epochs must be >= 1")
        if self.n_noise < 0:
            raise ValueError("n_noise must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def init_embeddings(vocab_size: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform init in [-0.5/dim, +0.5/dim]; every row is non-zero."""
    if vocab_size < 1 or dim < 1:
        raise ValueError("vocab_size and dim must be >= 1")
    bound = 0.5 / dim
    table = rng.uniform(-bound, bound, size=(vocab_size, dim))
    # an all-zero row has probability zero but would break the cosine
    while True:
        bad = np.linalg.norm(table, axis=1) < _MIN_NORM
        if not bad.any():
            return table
        table[bad] = rng.uniform(-bound, bound, size=(int(bad.sum()), dim))


def _stepper(rows: Sequence[np.ndarray]) -> Callable[[TrainingSample, float], None]:
    """A train step on `rows[id]` that owns four 0-d float64 cells for its
    scalars.

    One step is a gradient-ascent update on the two rows a sample
    touches: d/dcos of weight*log(sigmoid(s*cos)) is
    weight*s*sigmoid(-s*cos), and dcos/du = v/(|u||v|) - cos*u/|u|^2
    (symmetrically for v).  Both deltas are computed from the pre-step
    rows, then applied in place through the row views (when target ==
    other both land on the same row, in the same order).

    `rows` is the table itself, indexed per call, or `list(table)`, its row
    views made once: both are views of the same memory.  numpy scales a
    vector by a 0-d float64 array faster than by a Python float, which it
    converts on every call; the IEEE products are the same.  So the step
    writes its scalars into the cells and scales through them.  Each
    closure has cells of its own: two trainings, or a training and a
    step made for another table, never write each other's.
    """
    inv_c = np.empty(())   # 1 / (|u| |v|)
    cu_c = np.empty(())    # cos / |u|^2
    cv_c = np.empty(())    # cos / |v|^2
    coef_c = np.empty(())  # lr * weight * dloss/dcos
    exp = math.exp

    def step(sample: TrainingSample, lr: float) -> None:
        target, other, source, weight = sample
        u = rows[target]
        v = rows[other]
        # exactly np.linalg.norm of a 1-D float64 vector, without its overhead
        nu = math.sqrt(u.dot(u))
        nv = math.sqrt(v.dot(v))
        if nu < _MIN_NORM or nv < _MIN_NORM:
            raise ValueError("cosine undefined for a zero vector")
        inv = 1.0 / (nu * nv)
        cos = float(u.dot(v)) * inv
        sign = 1.0 if source == CTX_POS else -1.0
        # sigmoid(x) at x = -sign * cos, in the form that is stable for its sign
        x = -sign * cos
        if x >= 0:
            sig = 1.0 / (1.0 + exp(-x))
        else:
            z = exp(x)
            sig = z / (1.0 + z)
        inv_c[()] = inv
        cu_c[()] = cos / (nu * nu)
        cv_c[()] = cos / (nv * nv)
        coef_c[()] = lr * weight * sign * sig
        # du = coef * (v*inv - u*cos/|u|^2), dv symmetrically, both from
        # the pre-step rows; IEEE products commute, so *= coef is exact
        du = v * inv_c
        du -= u * cu_c
        du *= coef_c
        dv = u * inv_c
        dv -= v * cv_c
        dv *= coef_c
        u += du
        v += dv

    return step


def _repair_rows(emb: np.ndarray, rng: np.random.Generator, where: str) -> None:
    """Re-randomize rows whose norm collapsed; training never divides by ~0."""
    norms = np.linalg.norm(emb, axis=1)
    bad = ~np.isfinite(norms) | (norms < _MIN_NORM)
    if bad.any():
        ids = np.flatnonzero(bad)
        log.warning("re-randomizing %d degenerate embedding rows (%s): %s",
                    len(ids), where, ids[:16].tolist())
        bound = 0.5 / emb.shape[1]
        emb[bad] = rng.uniform(-bound, bound, size=(len(ids), emb.shape[1]))


def _shared_table(emb: np.ndarray) -> np.ndarray:
    """`emb` copied into an anonymous shared mapping: a forked child writes
    the same pages that the caller reads, and returns, without a copy."""
    table = np.frombuffer(mmap.mmap(-1, emb.nbytes), dtype=emb.dtype).reshape(emb.shape)
    table[...] = emb
    return table


def _apply(step: Callable[[TrainingSample, float], None], chunk: bytes) -> None:
    """Run `step` on each record of a chunk, in order: the worker's work."""
    channels = _CHANNELS
    for target, other, code, weight, lr in _RECORD.iter_unpack(chunk):
        step((target, other, channels[code], weight), lr)


def _serve(step: Callable[[TrainingSample, float], None], chunks: Connection,
           reports: Connection) -> None:
    """The forked worker's loop: apply each chunk read from `chunks` in
    order, and answer each meet (an empty chunk) with None on `reports`
    once every chunk before it is applied.  Returns when the caller closes
    its end, or after sending it the first exception a step raises."""
    while True:
        try:
            chunk = chunks.recv_bytes()
        except EOFError:
            return
        if not chunk:
            reports.send(None)
            continue
        try:
            _apply(step, chunk)
        except Exception as exc:  # the caller raises it
            reports.send(exc)
            return


def _run_worker(step: Callable[[TrainingSample, float], None], chunks: Connection,
                reports: Connection, mask: set[signal.Signals]) -> NoReturn:
    """The forked child, born with SIGINT blocked: ignore SIGINT, restore
    the signal `mask`, serve, then exit without the parent's clean-up."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        # keep only its own two ends: a pipe end of another training in this
        # process, forked in here, would keep that training's worker from EOF
        low, high = sorted((chunks.fileno(), reports.fileno()))
        os.closerange(3, low)
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        _serve(step, chunks, reports)
        status = 0
    finally:
        os._exit(status)


class _Worker:
    """The stepping role of `train`: applies samples to the table in the
    order `add` is given them.

    `add` packs a batch's samples, each with the batch's learning rate,
    into records, and hands them on in chunks of up to about _CHUNK records:
    through a pipe to a forked child where `os.fork` exists, else to
    `_apply` in this process.  `meet` returns once every sample added so
    far is applied, and raises what a step raised.  `close` closes the
    pipe, which ends the child, and reaps it.
    """

    def __init__(self, step: Callable[[TrainingSample, float], None]) -> None:
        self._step = step
        self._records: list[bytes] = []
        self._limit = _FIRST_CHUNK               # records that make the next chunk
        self._chunks: Connection | None = None   # the caller's pipe ends; None in-process
        self._reports: Connection | None = None
        self._pid = 0                            # the child to reap
        fork = getattr(os, "fork", None)
        if fork is None:
            return
        # imported here, where a training forks: the import costs every
        # other command about 15 ms of start-up
        from multiprocessing import Pipe

        ends = Pipe(duplex=False) + Pipe(duplex=False)
        chunks_r, chunks_w, reports_r, reports_w = ends
        # blocked across the fork, so an interrupt cannot reach the child
        # before it ignores interrupts
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            pid = fork()
            if pid == 0:
                _run_worker(step, chunks_r, reports_w, mask)
        except BaseException:
            for end in ends:
                end.close()
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        chunks_r.close()
        reports_w.close()
        self._chunks, self._reports, self._pid = chunks_w, reports_r, pid

    def add(self, batch: Sequence[TrainingSample], lr: float) -> None:
        pack, code = _RECORD.pack, _CODE
        self._records += [pack(t, o, code[s], w, lr) for t, o, s, w in batch]
        if len(self._records) >= self._limit:
            self._send()

    def meet(self) -> None:
        if self._records:
            self._send()
        self._limit = _FIRST_CHUNK
        if self._chunks is not None:
            try:
                self._chunks.send_bytes(b"")
            except BrokenPipeError:  # the worker has stopped: its report says why
                pass
            self._report()

    def close(self) -> None:
        if self._chunks is not None:
            self._chunks.close()
            self._reports.close()
        if self._pid:
            self._reap()

    def _send(self) -> None:
        chunk = b"".join(self._records)
        self._records.clear()
        self._limit = min(2 * self._limit, _CHUNK)
        if self._chunks is None:
            _apply(self._step, chunk)
            return
        try:
            self._chunks.send_bytes(chunk)
        except BrokenPipeError:  # the worker has stopped: its report says why
            self._report()

    def _report(self) -> None:
        """Wait for the worker's answer to a meet, or for the exception
        that stopped it, and raise the latter."""
        try:
            report = self._reports.recv()
        except EOFError:  # it ended without one: killed, say
            raise RuntimeError(
                f"the training worker ended with exit code {self._reap()} and no report"
            ) from None
        if report is not None:
            raise report

    def _reap(self) -> int:
        """Wait for the child once; its exit code, or minus the signal that ended it."""
        pid, self._pid = self._pid, 0
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def train(
    sentences: Sequence[list[str]],
    lexicon: Lexicon,
    config: TrainerConfig,
    *,
    sample_sink: Callable[[TrainingSample], None] | None = None,
) -> np.ndarray:
    """Train the embedding table over the corpus.

    `sentences` are token lists without boundary markers; markers are added
    here and must already be counted in the lexicon.  Tokens missing from
    the lexicon are an error.  The learning rate decays linearly from
    0.025 towards 1e-4 over all token positions of all epochs.  The result
    is a deterministic function of the corpus, lexicon, and config.
    Returns the V x dim table, held in an anonymous shared mapping.
    Raises ValueError when subsampling keeps no target occurrence, so that
    no sample is drawn and the table would be its untrained initial state.

    sample_sink, when given, receives every generated TrainingSample in
    order, in the calling process; used for audit dumps.
    """
    rng = np.random.default_rng(config.seed)
    emb = _shared_table(init_embeddings(len(lexicon), config.dim, rng))
    table = SubsampleTable(lexicon, config.epsilon, config.mu)

    wrapped = list(map(lexicon.encode, sentences))

    total_positions = sum(map(len, wrapped)) * config.epochs
    p_sub = table.p_sub.tolist()
    keep = table.keep_override.tolist()
    lr_span = _LR_START - _LR_END
    processed = 0  # token positions before the current sentence
    batches = 0
    # row views made once: _repair_rows writes the table in place, so they
    # stay views of the rows being trained
    with closing(_Worker(_stepper(list(emb)))) as worker:
        for _ in range(config.epochs):
            for ids in wrapped:
                draws = rng.random(len(ids)).tolist()
                for i, wid in enumerate(ids):
                    if not (keep[wid] or draws[i] < p_sub[wid]):
                        continue
                    # a wrapped sentence holds both markers, so every position has context
                    batch = build_occurrence_batch(
                        ids, i, lexicon, rng,
                        window=config.window, n_noise=config.n_noise, eta=config.eta,
                    )
                    lr = _LR_START - lr_span * ((processed + i) / total_positions)
                    if sample_sink is not None:
                        for sample in batch:
                            sample_sink(sample)
                    worker.add(batch, lr)
                    batches += 1
                    if batches % _SWEEP_EVERY == 0:
                        worker.meet()
                        _repair_rows(emb, rng, f"sweep at batch {batches}")
                        if not np.isfinite(emb).all():
                            raise FloatingPointError("non-finite embedding entries")
                processed += len(ids)
        worker.meet()
    if not batches:
        raise ValueError(
            "subsampling kept no target occurrence, so no sample was drawn; "
            "a larger corpus or a larger epsilon keeps more"
        )

    _repair_rows(emb, rng, "final sweep")
    if not np.isfinite(emb).all():
        raise FloatingPointError("non-finite embedding entries after training")
    return emb


def save_embeddings(path: str, lexicon: Lexicon, emb: np.ndarray) -> None:
    """Text format: header 'V d', then one 'word v1 .. vd' line per id.

    Floats are written with full round-trip precision.
    """
    V, d = emb.shape
    if V != len(lexicon):
        raise ValueError("embedding table and lexicon disagree on vocabulary size")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{V} {d}\n")
        for wid in range(V):
            vec = " ".join(map(repr, emb[wid].tolist()))  # tolist: exact Python floats
            fh.write(f"{lexicon.word_of(wid)} {vec}\n")


def _binary_copy_path(path: str) -> str:
    """Where the binary copy of the embedding text at `path` lives: beside
    the file `path` resolves to."""
    return os.path.realpath(path) + ".bin"


def _text_digest(path: str) -> bytes:
    """SHA-256 of a file's bytes, read in fixed-size chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(partial(fh.read, _HASH_CHUNK), b""):
            digest.update(chunk)
    return digest.digest()


def _save_binary_copy(path: str, text_path: str, lexicon: Lexicon, emb: np.ndarray) -> None:
    """Write to `path` the binary copy of the table that `save_embeddings`
    wrote to `text_path` from the same lexicon and table, stamped with the
    SHA-256 of that file's bytes."""
    V, d = emb.shape
    words = "\n".join(lexicon.words).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_COPY_HEAD.pack(_COPY_MAGIC, _COPY_VERSION, V, d, len(words),
                                 _text_digest(text_path)))
        fh.write(np.ascontiguousarray(emb, dtype="<f8").data)
        fh.write(words)


def _load_binary_copy(path: str, emb: np.ndarray) -> list[str] | None:
    """Fill `emb`, shaped by the text's header, from the binary copy of the
    embedding text at `path` and return the copy's words.

    Returns None, and leaves `emb` to be overwritten, when there is no
    copy, a read fails, or anything disagrees: the magic, the version,
    the shape, the copy's length, the digest of the text, the word count,
    and finite values.  A word holding a space is one the text cannot
    hold as written, so it disagrees too.
    """
    copy = _binary_copy_path(path)
    if not os.path.isfile(copy):  # a pipe there would block the open
        return None
    V, d = emb.shape
    try:
        with open(copy, "rb") as fh:
            head = fh.read(_COPY_HEAD.size)
            if len(head) != _COPY_HEAD.size:
                return None
            magic, version, rows, cols, n_bytes, digest = _COPY_HEAD.unpack(head)
            if ((magic, version, rows, cols) != (_COPY_MAGIC, _COPY_VERSION, V, d)
                    or os.fstat(fh.fileno()).st_size != _COPY_HEAD.size + emb.nbytes + n_bytes
                    or digest != _text_digest(path)
                    or fh.readinto(memoryview(emb).cast("B")) != emb.nbytes):
                return None
            blob = fh.read(n_bytes)
    except OSError:
        return None
    if sys.byteorder == "big":
        emb.byteswap(inplace=True)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        return None
    words = text.split("\n")
    if len(blob) != n_bytes or len(words) != V or " " in text or not np.isfinite(emb).all():
        return None
    return words


def _float_columns(lines: Iterator[str], V: int, words: list[str]) -> Iterator[str]:
    r"""Yield the float columns of each body row for `np.loadtxt`, and
    append the row's word to `words`.

    Raises ValueError on a row that numpy might read otherwise than
    `float()`: numpy ends a row at "\r", strips \x1c-\x1f around a value
    (`float()` rejects them) and skips an empty row.  Also on a row past
    V and at the end on fewer than V rows; numpy itself raises on a row
    whose column count is not the first row's.
    """
    for line in lines:
        word, _, floats = line.partition(" ")
        if (len(words) == V or not floats or "\r" in line
                or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line):
            raise ValueError("a row for the per-row loop")
        words.append(word)
        yield floats
    if len(words) != V:
        raise ValueError("fewer rows than the header announces")


def _parse_rows(path: str, lines: Iterator[str], emb: np.ndarray) -> list[str]:
    """Fill `emb` from the body rows, one `float()` per value, and return
    the words; raises the first `path:line:` error in line order."""
    V, d = emb.shape
    words: list[str] = []
    row = 0
    for lineno, line in enumerate(lines, start=2):
        parts = line.split(" ")
        if len(parts) != d + 1:
            raise ValueError(f"{path}:{lineno}: expected a word and {d} floats")
        if row >= V:
            raise ValueError(f"{path}:{lineno}: more rows than the header announces")
        words.append(parts[0])
        try:
            emb[row] = list(map(float, parts[1:]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        row += 1
    if row != V:
        raise ValueError(f"{path}: header announces {V} rows, found {row}")
    return words


def load_embeddings(path: str) -> tuple[list[str], np.ndarray]:
    """Inverse of save_embeddings; validates the header against the body
    and rejects non-finite values.

    A regular file is read from its binary copy, the file `embseg train`
    writes beside the file `path` resolves to, plus ".bin", when the
    SHA-256 the copy carries is that of the file's bytes and every other
    field checks out (`_load_binary_copy`).  Otherwise, as when there is
    no copy, its rows are read in one pass: the word is split off
    each row in Python and the float columns stream to numpy's C text
    reader, which parses each value to the bits `float()` gives.  A
    pipe or a device, and any file that pass rejects, is read by the
    per-row loop (`_parse_rows`, one `float()` per value), which names
    the first bad line.  All three give the same words and values.
    """
    lines = read_lines(path)
    header = next(lines, "").split()
    try:
        V, d = map(int, header)
    except ValueError:
        V = d = 0
    if V < 1 or d < 1:
        raise ValueError(f"{path}:1: malformed header, expected 'V d' with V, d >= 1")
    # a row is a word, d space-led floats and a newline: at least 2d + 2
    # bytes, so a header the file cannot hold fails before the allocation
    st = os.stat(path)
    regular = stat.S_ISREG(st.st_mode)
    if regular and V * (2 * d + 2) > st.st_size:
        raise ValueError(
            f"{path}:1: header announces {V} rows of {d} floats, "
            f"more than the file's {st.st_size} bytes can hold"
        )
    try:  # the only check of a header that a pipe or a device announces
        emb = np.empty((V, d), dtype=np.float64)
    except (MemoryError, ValueError):  # numpy's too-big array is a ValueError
        raise ValueError(
            f"{path}:1: header announces {V} rows of {d} floats, more than can be allocated"
        ) from None
    table = None
    if regular:  # a pipe or a device cannot be read twice
        words = _load_binary_copy(path, emb)
        if words is not None:
            lines.close()
            return words, emb
        words = []
        try:
            table = np.loadtxt(_float_columns(lines, V, words), dtype=np.float64,
                               delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            pass
        if table is None or table.shape != (V, d):  # numpy held every row to the first's columns
            table = None
            lines.close()
            lines = read_lines(path)
            next(lines)  # the header, read above
    if table is None:
        words = _parse_rows(path, lines, emb)
    else:
        emb = table
    bad = np.flatnonzero(~np.isfinite(emb).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}:{int(bad[0]) + 2}: non-finite value")
    return words, emb
