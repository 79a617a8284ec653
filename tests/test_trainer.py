"""Objective terms, gradients, and the training loop."""
import dataclasses
import itertools
import math
import os
import re
import signal
import struct
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embseg.corpus import BOS, EOS, add_boundary_markers
from embseg.lexicon import Lexicon, SubsampleTable
from embseg.sampler import (
    CTX_NEG,
    CTX_POS,
    NEGATIVE,
    POSITIVE,
    TrainingSample,
    build_occurrence_batch,
)
from embseg import trainer
from embseg.synth import corrupt, default_language, generate_corpus
from embseg.trainer import (
    TrainerConfig,
    init_embeddings,
    load_embeddings,
    save_embeddings,
    train,
)
from oracles import pair_score, sample_loss, train_step


def _toy_corpus():
    sentences = [["ab", "a", "b"], ["b", "ab", "a"], ["a", "b", "ab"]] * 5
    return sentences, Lexicon.from_sentences(sentences)


def test_init_embeddings_bounds_and_determinism():
    emb = init_embeddings(50, 10, np.random.default_rng(3))
    assert emb.shape == (50, 10)
    assert np.abs(emb).max() <= 0.05
    assert (np.linalg.norm(emb, axis=1) > 0).all()
    assert np.array_equal(emb, init_embeddings(50, 10, np.random.default_rng(3)))
    assert not np.array_equal(emb, init_embeddings(50, 10, np.random.default_rng(4)))
    with pytest.raises(ValueError):
        init_embeddings(0, 10, np.random.default_rng(0))


def test_pair_score_cosine_and_zero_vector():
    u = np.array([3.0, 4.0])
    v = np.array([4.0, -3.0])
    assert pair_score(u, v) == 0.0
    assert pair_score(u, u) == 1.0
    assert pair_score(u, -u) == -1.0
    with pytest.raises(ValueError, match="zero vector"):
        pair_score(np.zeros(2), v)


def test_sample_loss_frozen_values():
    emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, math.sqrt(3) / 2]])
    pos_same = TrainingSample(0, 1, CTX_POS, 1.0)  # cos 1
    assert sample_loss(pos_same, emb) == pytest.approx(-0.31326168751822286, rel=1e-12)
    pos_orth = TrainingSample(0, 2, CTX_POS, 1.0)  # cos 0
    assert sample_loss(pos_orth, emb) == pytest.approx(-math.log(2), rel=1e-12)
    neg_half = TrainingSample(0, 3, CTX_NEG, 0.375)  # cos 1/2
    assert sample_loss(neg_half, emb) == pytest.approx(-0.36527886906754004, rel=1e-12)


def _numeric_grad(sample, emb, h=1e-5):
    grad = np.zeros_like(emb)
    for row in {sample.target, sample.other}:
        for k in range(emb.shape[1]):
            up = emb.copy()
            up[row, k] += h
            dn = emb.copy()
            dn[row, k] -= h
            grad[row, k] = (sample_loss(sample, up) - sample_loss(sample, dn)) / (2 * h)
    return grad


def test_train_step_matches_numeric_gradient():
    rng = np.random.default_rng(11)
    emb0 = rng.normal(size=(5, 7))
    cases = [
        (0, 1, CTX_POS, 1.0),
        (2, 3, CTX_NEG, 0.375),
        (1, 4, CTX_NEG, 3.5),
        (3, 0, CTX_POS, 1.0),
        (2, 2, CTX_POS, 1.0),  # degenerate self pair still has a gradient
    ]
    for case in cases:
        sample = TrainingSample(*case)
        stepped = emb0.copy()
        train_step(sample, stepped, lr=1.0)
        analytic = stepped - emb0
        numeric = _numeric_grad(sample, emb0)
        err = np.abs(analytic - numeric)
        # the floor absorbs finite-difference noise where the true gradient
        # vanishes (the self pair has a constant loss)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        assert (err / scale).max() < 1e-4


def _reference_train_step(sample, emb, lr):
    """train_step written plainly: np.linalg.norm, np.dot, indexed updates."""
    u = emb[sample.target]
    v = emb[sample.other]
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    inv = 1.0 / (nu * nv)
    cos = float(np.dot(u, v)) * inv
    sign = 1.0 if sample.label == POSITIVE else -1.0
    x = -sign * cos
    sig = 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))
    coef = lr * sample.weight * sign * sig
    du = coef * (v * inv - u * (cos / (nu * nu)))
    dv = coef * (u * inv - v * (cos / (nv * nv)))
    emb[sample.target] += du
    emb[sample.other] += dv


@pytest.mark.parametrize("dim", [1, 7, 100])
def test_train_step_bitwise_equals_reference(dim):
    rng = np.random.default_rng(dim)
    emb = rng.normal(size=(6, dim))
    ref = emb.copy()
    n_self = 0
    for _ in range(2000):
        target = int(rng.integers(6))
        # target == other touches one row twice
        same = rng.random() < 0.2
        n_self += same
        o = target if same else int(rng.integers(6))
        positive = rng.random() < 0.5
        sample = TrainingSample(target, o, CTX_POS if positive else CTX_NEG, float(rng.uniform(0.1, 3.0)))
        lr = float(rng.uniform(1e-4, 0.05))
        train_step(sample, emb, lr)
        _reference_train_step(sample, ref, lr)
    assert n_self > 0
    assert emb.tobytes() == ref.tobytes()


def _reference_train(sentences, lexicon, config, step=_reference_train_step, sweep_every=1000):
    """The training loop written plainly around `step`, in one process,
    with id_of over add_boundary_markers, the same rate schedule (0.025
    decaying to 1e-4) and the same repair sweeps, every `sweep_every`
    batches.  Returns the table and the batch count."""
    rng = np.random.default_rng(config.seed)
    emb = init_embeddings(len(lexicon), config.dim, rng)
    table = SubsampleTable(lexicon, config.epsilon, config.mu)
    wrapped = [[lexicon.id_of(t) for t in add_boundary_markers(s)] for s in sentences]
    total = sum(len(ids) for ids in wrapped) * config.epochs
    processed = 0
    batches = 0
    for _ in range(config.epochs):
        for ids in wrapped:
            draws = rng.random(len(ids))
            for i, wid in enumerate(ids):
                lr = 0.025 - (0.025 - 1e-4) * (processed / total)
                processed += 1
                if not (table.keep_override[wid] or draws[i] < table.p_sub[wid]):
                    continue
                for sample in build_occurrence_batch(
                    ids, i, lexicon, rng,
                    window=config.window, n_noise=config.n_noise, eta=config.eta,
                ):
                    step(sample, emb, lr)
                batches += 1
                if batches % sweep_every == 0:
                    trainer._repair_rows(emb, rng, "sweep")
    trainer._repair_rows(emb, rng, "final sweep")
    return emb, batches


def _counting_forks(patch):
    """Wrap os.fork through the MonkeyPatch `patch`; returns the list of
    the pids it forks."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    patch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def forked(monkeypatch):
    """The pids of the workers train forks."""
    if not hasattr(os, "fork"):
        pytest.skip("no worker process without os.fork")
    return _counting_forks(monkeypatch)


@pytest.fixture(params=["forked", "in-process"])
def stepping(request, monkeypatch):
    """Where train's steps run: in a forked worker, or in the calling
    process, as where os has no fork.  Yields the pids train forked."""
    if request.param == "in-process":
        monkeypatch.delattr(os, "fork", raising=False)
        pids = []
    else:
        pids = request.getfixturevalue("forked")
    yield pids
    assert bool(pids) == (request.param == "forked")


def _trained_both_ways(monkeypatch, *args):
    """train's table bytes with its steps in a forked worker, then in the
    calling process, as where os has no fork."""
    with monkeypatch.context() as m:
        forks = _counting_forks(m) if hasattr(os, "fork") else []
        forked = train(*args).tobytes()
        m.delattr(os, "fork", raising=False)
        in_process = train(*args).tobytes()
    assert len(forks) == hasattr(os, "fork")
    return forked, in_process


def _no_child_left():
    # raises only when this process has no child at all, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


@pytest.mark.parametrize("epsilon, epochs", [(1.0, 1), (2e-3, 2)])
def test_train_bitwise_equals_reference_loop(epsilon, epochs, monkeypatch):
    lang = default_language()
    rng = np.random.default_rng(3)
    sentences = corrupt(lang, generate_corpus(lang, 150, rng))
    lex = Lexicon.from_sentences(sentences)
    config = TrainerConfig(dim=12, seed=9, epsilon=epsilon, epochs=epochs)
    want = _reference_train(sentences, lex, config)[0].tobytes()
    assert _trained_both_ways(monkeypatch, sentences, lex, config) == (want, want)


def test_train_bitwise_equals_public_reference_loop(monkeypatch):
    # the loop around the oracle train_step, which runs train's own step; a
    # pinned hash of the table would not do, since BLAS dot kernels differ by
    # CPU, so the same code writes different bits on different machines
    lang = default_language()
    sentences = corrupt(lang, generate_corpus(lang, 120, np.random.default_rng(4)))
    # a token spelling a marker and one carrying the escape prefix
    sentences[5] = [sentences[5][0], BOS, "⟨⟨" + sentences[5][-1], *sentences[5][1:]]
    lex = Lexicon.from_sentences(sentences)
    config = TrainerConfig(dim=12, seed=11, epsilon=1.0, epochs=2)
    want, batches = _reference_train(sentences, lex, config, step=train_step)
    assert batches > 2 * trainer._SWEEP_EVERY
    assert _trained_both_ways(monkeypatch, sentences, lex, config) == (want.tobytes(),) * 2
    _no_child_left()


def test_every_meet_hands_the_reference_table_to_the_repair(stepping, monkeypatch):
    # at each sweep the caller waits until the worker has applied every
    # sample sent, then repairs the table: the repair sees the reference
    # loop's bytes, and the rows it redraws are the rows the worker steps on
    lang = default_language()
    sentences = corrupt(lang, generate_corpus(lang, 40, np.random.default_rng(6)))
    lex = Lexicon.from_sentences(sentences)
    config = TrainerConfig(dim=12, seed=2, epsilon=1.0, epochs=2)
    seen = []
    repair = trainer._repair_rows

    def redrawing(emb, rng, where):
        seen.append(emb.tobytes())
        repair(emb, rng, where)
        # a repair that always redraws a row, from the same generator
        emb[len(seen) % len(emb)] = rng.uniform(-0.5, 0.5, size=emb.shape[1])

    monkeypatch.setattr(trainer, "_repair_rows", redrawing)
    monkeypatch.setattr(trainer, "_SWEEP_EVERY", 7)
    want, batches = _reference_train(sentences, lex, config, sweep_every=7)
    want_seen = seen[:]
    seen.clear()
    assert train(sentences, lex, config).tobytes() == want.tobytes()
    assert len(want_seen) == batches // 7 + 1 > 10
    assert seen == want_seen


class StepFailed(Exception):
    """Raised by a patched step; module level, so that pickle can carry it."""


def test_a_step_error_comes_out_of_train_and_no_worker_is_left(stepping, monkeypatch):
    sentences, lex = _toy_corpus()
    stepper = trainer._stepper

    def failing_stepper(rows):
        step = stepper(rows)
        calls = itertools.count()

        def failing(target, other, rate):
            if next(calls) == 100:
                raise StepFailed(f"no step on {(target, other, rate)}")
            step(target, other, rate)

        return failing

    monkeypatch.setattr(trainer, "_stepper", failing_stepper)
    fds = _open_fds()
    with pytest.raises(StepFailed) as raised:
        train(sentences, lex, TrainerConfig(dim=8, seed=3, epsilon=1.0))
    assert re.fullmatch(r"no step on \(\d+, \d+, -?\d+\.\d+(e-\d+)?\)", str(raised.value))
    _no_child_left()
    assert _open_fds() == fds


def test_a_non_finite_row_fails_training(stepping, monkeypatch):
    # a NaN spreads to every row its row meets; the repair sweep must not
    # redraw those rows and hand back a finite table
    sentences, lex = _toy_corpus()
    stepper = trainer._stepper

    def poisoning_stepper(rows):
        step = stepper(rows)
        calls = itertools.count()

        def poisoning(target, other, rate):
            if next(calls) == 4:
                rows[target][0] = np.nan
            step(target, other, rate)

        return poisoning

    monkeypatch.setattr(trainer, "_stepper", poisoning_stepper)
    fds = _open_fds()
    with pytest.raises(FloatingPointError, match=r"^non-finite embedding entries \(final sweep\)$"):
        train(sentences, lex, TrainerConfig(dim=8, seed=1, epsilon=1.0))
    _no_child_left()
    assert _open_fds() == fds


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300], ids=["nan", "inf", "overflowing-norm"])
def test_a_repair_raises_on_a_non_finite_norm(value):
    emb = np.ones((3, 4))
    emb[1, 2] = value
    before = emb.tobytes()
    with pytest.raises(FloatingPointError, match=r"^non-finite embedding entries \(here\)$"):
        trainer._repair_rows(emb, np.random.default_rng(0), "here")
    assert emb.tobytes() == before


def test_a_repair_redraws_only_collapsed_rows():
    emb = np.ones((3, 4))
    emb[1] = 0.0
    trainer._repair_rows(emb, np.random.default_rng(0), "here")
    assert (emb[[0, 2]] == 1.0).all()
    assert 0 < np.abs(emb[1]).max() <= 0.5 / 4


@pytest.mark.parametrize("error", [RuntimeError("sink failed"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_a_caller_error_comes_out_of_train_and_no_worker_is_left(stepping, error):
    sentences, lex = _toy_corpus()
    calls = itertools.count()

    def failing_sink(sample):
        if next(calls) == 100:
            raise error

    fds = _open_fds()
    with pytest.raises(type(error)) as raised:
        train(sentences, lex, TrainerConfig(dim=8, seed=3, epsilon=1.0), sample_sink=failing_sink)
    assert raised.value is error
    _no_child_left()
    assert _open_fds() == fds


def test_a_killed_worker_is_named_and_reaped(forked):
    sentences, lex = _toy_corpus()
    calls = itertools.count()

    def killing(sample):
        if next(calls) == 20:
            os.kill(forked[-1], signal.SIGKILL)

    with pytest.raises(RuntimeError, match=f"^the training worker ended with exit code "
                                           f"{-signal.SIGKILL} and no report$"):
        train(sentences, lex, TrainerConfig(dim=8, seed=3, epsilon=1.0, epochs=20),
              sample_sink=killing)
    _no_child_left()


def test_the_worker_ignores_an_interrupt(forked):
    # Ctrl-C reaches the whole process group; the caller alone handles it
    sentences, lex = _toy_corpus()
    config = TrainerConfig(dim=8, seed=3, epsilon=1.0)
    calls = itertools.count()

    def interrupting(sample):
        if next(calls) == 20:
            os.kill(forked[-1], signal.SIGINT)

    assert train(sentences, lex, config, sample_sink=interrupting).tobytes() == \
        train(sentences, lex, config).tobytes()
    _no_child_left()


def test_trainings_in_threads_keep_their_bytes(forked):
    # more trainings than CPUs at once, each forking while the others' pipes
    # are open: a worker that held another training's pipe end would keep
    # that training from ever reaping its worker
    sentences, lex = _toy_corpus()
    configs = [TrainerConfig(dim=8, seed=seed, epsilon=1.0, epochs=20) for seed in range(4)]
    want = [train(sentences, lex, config).tobytes() for config in configs]
    got = [None] * len(configs)

    def run(k):
        got[k] = train(sentences, lex, configs[k]).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert len(forked) == 2 * len(configs)
    _no_child_left()


# trains for seconds, and says "ready" on its first sample
_INTERRUPTED_TRAIN = """
import numpy as np
from embseg import Lexicon, TrainerConfig, corrupt, default_language, generate_corpus, train
lang = default_language()
sentences = corrupt(lang, generate_corpus(lang, 20000, np.random.default_rng(1)))
samples = 0
def ready(sample):
    global samples
    samples += 1
    if samples == 1:
        print("ready", flush=True)
train(sentences, Lexicon.from_sentences(sentences), TrainerConfig(seed=1), sample_sink=ready)
print("finished", flush=True)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker process without os.fork")
def test_an_interrupt_to_the_process_group_leaves_no_process():
    # what Ctrl-C does in a terminal: SIGINT to the caller and its worker
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen([sys.executable, "-c", _INTERRUPTED_TRAIN], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        assert proc.stdout.readline() == "ready\n"
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert proc.returncode == -signal.SIGINT, err
    assert "KeyboardInterrupt" in err and "finished" not in out
    with pytest.raises(ProcessLookupError):  # the group is empty: the worker was reaped too
        os.killpg(proc.pid, 0)


def test_train_step_zero_lr_is_a_no_op():
    emb = np.random.default_rng(1).normal(size=(3, 4))
    before = emb.copy()
    train_step(TrainingSample(0, 1, CTX_POS, 1.0), emb, lr=0.0)
    assert np.array_equal(emb, before)


def test_train_step_moves_cosine_in_the_right_direction():
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(2, 4))
    pos = TrainingSample(0, 1, CTX_POS, 1.0)
    before = pair_score(emb[0], emb[1])
    trace = [before]
    for _ in range(200):
        train_step(pos, emb, lr=0.2)
        trace.append(pair_score(emb[0], emb[1]))
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
    assert trace[-1] > max(before, 0.9)

    emb = rng.normal(size=(2, 4))
    neg = TrainingSample(0, 1, CTX_NEG, 1.0)
    before = pair_score(emb[0], emb[1])
    for _ in range(200):
        train_step(neg, emb, lr=0.2)
    assert pair_score(emb[0], emb[1]) < min(before, -0.9)


def test_train_single_thread_deterministic():
    sentences, lex = _toy_corpus()
    config = TrainerConfig(dim=16, seed=42, epsilon=1.0)
    a = train(sentences, lex, config)
    b = train(sentences, lex, config)
    assert np.array_equal(a, b)
    c = train(sentences, lex, TrainerConfig(dim=16, seed=43, epsilon=1.0))
    assert not np.array_equal(a, c)


def test_sample_sink_sees_every_sample():
    sentences, lex = _toy_corpus()
    seen = []
    pids = set()

    def sink(sample):
        seen.append(sample)
        pids.add(os.getpid())

    train(sentences, lex, TrainerConfig(dim=8, seed=3, epsilon=1.0), sample_sink=sink)
    assert seen and pids == {os.getpid()}  # the sink runs in the calling process
    assert {s.label for s in seen} == {POSITIVE, NEGATIVE}
    assert all(isinstance(s, TrainingSample) for s in seen)


def test_train_step_calls_between_samples_leave_train_undisturbed():
    # train_step runs train's own step with cells of its own; a call on
    # another table, of another width, between two samples changes nothing
    sentences, lex = _toy_corpus()
    config = TrainerConfig(dim=16, seed=5, epsilon=1.0)
    other = np.random.default_rng(0).normal(size=(3, 7))
    calls = 0

    def disturb(sample):
        nonlocal calls
        calls += 1
        train_step(TrainingSample(calls % 3, 2, CTX_NEG, 2.5), other, 0.7)

    disturbed = train(sentences, lex, config, sample_sink=disturb)
    assert calls > 0
    assert disturbed.tobytes() == train(sentences, lex, config).tobytes()


def test_each_step_closure_owns_its_scalar_cells():
    # train's step runs no Python function between writing its cells and
    # reading them; a train_step that another thread runs meanwhile stays
    # off them only because every closure owns its four cells
    def cells(step):
        return {id(c.cell_contents) for c in step.__closure__
                if isinstance(c.cell_contents, np.ndarray) and c.cell_contents.shape == ()}

    emb = np.ones((2, 3))
    first, second = trainer._stepper(emb), trainer._stepper(list(emb))
    assert len(cells(first)) == len(cells(second)) == 4
    assert not cells(first) & cells(second)


@pytest.mark.parametrize("sentences", [[["的", "的"], ["的"]], []], ids=["frequent-words", "empty"])
def test_train_without_a_sample_raises(sentences):
    # returned the untrained initial table: subsampling keeps no occurrence
    # of a word this frequent, and an empty corpus has none to keep
    lex = Lexicon.from_sentences([["的", "的"], ["的"]])
    with pytest.raises(ValueError, match="no sample was drawn"):
        train(sentences, lex, TrainerConfig(seed=1))


def test_trainer_config_cannot_be_changed_after_validation():
    # assigning epochs = 0 after construction skipped the check, and train
    # returned the untrained table
    config = TrainerConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.epochs = 0
    with pytest.raises(ValueError, match="epochs"):
        dataclasses.replace(config, epochs=0)
    assert config == TrainerConfig()


def test_train_rejects_tokens_missing_from_lexicon():
    sentences, lex = _toy_corpus()
    with pytest.raises(KeyError) as raised:
        train(sentences + [["zz"]], lex, TrainerConfig(dim=8))
    assert raised.value.args == ("unknown word 'zz'; was the lexicon built from this corpus?",)


def test_embeddings_save_load_round_trip(tmp_path):
    sentences, lex = _toy_corpus()
    emb = train(sentences, lex, TrainerConfig(dim=8, seed=4, epsilon=1.0))
    path = str(tmp_path / "emb.txt")
    save_embeddings(path, lex, emb)
    words, back = load_embeddings(path)
    assert words == list(lex.words)
    assert np.array_equal(back, emb)


def test_save_embeddings_size_mismatch(tmp_path):
    _, lex = _toy_corpus()
    with pytest.raises(ValueError):
        save_embeddings(str(tmp_path / "e.txt"), lex, np.ones((2, 3)))


def test_load_embeddings_validation(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("nonsense\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_embeddings(str(p))
    p.write_text("2 2\nw 0.5 0.25\n", encoding="utf-8")
    with pytest.raises(ValueError, match="announces 2 rows"):
        load_embeddings(str(p))
    p.write_text("1 2\nw 0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected a word and 2 floats"):
        load_embeddings(str(p))
    p.write_text("1 1\nw 0.5\nv 0.25\n", encoding="utf-8")
    with pytest.raises(ValueError, match="more rows"):
        load_embeddings(str(p))


@pytest.mark.parametrize("text,line", [
    ("2 3\nu 0.5 0.25 1\nw 0.5 abc 1\n", 3),
    ("2 x\n", 1),
    ("0 3\n", 1),
], ids=["bad-float", "bad-header", "no-rows"])
def test_load_embeddings_errors_name_file_and_line(tmp_path, text, line):
    p = tmp_path / "emb.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:{line}: "):
        load_embeddings(str(p))


@pytest.mark.parametrize("rows", ["1000000000000", "1000000000000000000000"])
def test_load_embeddings_names_a_header_it_cannot_allocate(tmp_path, rows):
    # a pipe has no size to check the header against, so the allocation
    # is the check: 10**12 rows of 1,000 floats is far past 2**48 bytes
    # (numpy's MemoryError), and 10**21 rows past any array (its ValueError)
    pipe = tmp_path / "emb.pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_text(f"{rows} 1000\n"), daemon=True)
    writer.start()
    with pytest.raises(ValueError, match=f"^{re.escape(str(pipe))}:1: header announces {rows} rows"):
        load_embeddings(str(pipe))
    writer.join(10)
    assert not writer.is_alive()


def _loaded(path):
    """load_embeddings' words, shape and array bytes, or its error message."""
    try:
        words, emb = load_embeddings(path)
    except ValueError as exc:
        return str(exc)
    return words, emb.shape, emb.tobytes()


# words as save_embeddings writes them: no space or newline, valid UTF-8
_EMB_WORD = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=" \n"),
                    max_size=4)


def _loaded_from_copy(path):
    """`_loaded` with the text reader failing, so only the binary copy can
    give a table."""
    def fail(*args, **kwargs):
        raise AssertionError("parsed the text")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "_parse_rows", fail)
        return _loaded(path)


# words as a lexicon may hold them: the markers, escaped tokens, and words
# with a space or a newline, which the text cannot hold as written
_COPY_WORD = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
    st.sampled_from([BOS, EOS, "⟨⟨" + BOS, "⟨⟨⟨⟨x", "a b", " ", "a\nb"]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.tuples(_COPY_WORD, st.lists(st.floats(width=64), min_size=d, max_size=d)),
    min_size=1, max_size=5, unique_by=lambda row: row[0])))
def test_saved_tables_load_alike_with_and_without_the_binary_copy(tmp_path_factory, rows):
    words = [w for w, _ in rows]
    emb = np.array([vec for _, vec in rows], dtype=np.float64)
    lexicon = Lexicon(words, [1] * len(words))
    path = str(tmp_path_factory.mktemp("emb") / "emb.txt")
    save_embeddings(path, lexicon, emb)
    without = _loaded(path)
    trainer._save_binary_copy(path + ".bin", path, lexicon, emb)
    assert _loaded(path) == without
    if np.isfinite(emb).all() and not any(" " in w or "\n" in w for w in words):
        assert _loaded_from_copy(path) == without == (words, emb.shape, emb.tobytes())


# each damages one field of a binary copy's bytes `b`, whose header is
# `head` bytes and whose table is `n` bytes long
_DAMAGE = {
    "magic": lambda b, head, n: b"XMBB" + b[4:],
    "version": lambda b, head, n: b[:4] + b"\x02" + b[5:],
    "truncated": lambda b, head, n: b[:-1],
    "trailing-byte": lambda b, head, n: b + b"\0",
    "one-word-fewer": lambda b, head, n: b[:head + n] + b[head + n:].replace(b"\n", b"_", 1),
    "non-finite": lambda b, head, n: b[:head] + struct.pack("<d", math.nan) + b[head + 8:],
}


def _one_digit_changed(text):
    """`text` with the leading digit of line 3's first value changed."""
    lines = text.split(b"\n")
    word, value, rest = lines[2].split(b" ", 2)
    value = re.sub(rb"[1-9]", lambda m: b"2" if m.group() == b"1" else b"1", value, count=1)
    lines[2] = b" ".join([word, value, rest])
    return b"\n".join(lines)


@pytest.mark.parametrize("damage", [
    "stale", "more-rows", "more-columns", *_DAMAGE,
])
def test_a_binary_copy_that_disagrees_is_ignored(tmp_path, monkeypatch, damage):
    path, words, emb = _saved_table(tmp_path)
    lex = Lexicon(words, [1] * len(words))
    copy = tmp_path / "emb.txt.bin"
    trainer._save_binary_copy(str(copy), str(path), lex, emb)
    assert _loaded_from_copy(str(path)) == (words, emb.shape, emb.tobytes())
    if damage == "stale":  # the text changed after the copy was written
        path.write_bytes(_one_digit_changed(path.read_bytes()))
    elif damage == "more-rows":  # stamped with this text's digest, but shaped otherwise
        more = Lexicon([*words, "extra"], [1] * (len(words) + 1))
        trainer._save_binary_copy(str(copy), str(path), more, np.vstack([emb, emb[:1]]))
    elif damage == "more-columns":
        trainer._save_binary_copy(str(copy), str(path), lex, np.hstack([emb, emb[:, :1]]))
    else:
        copy.write_bytes(_DAMAGE[damage](copy.read_bytes(), trainer._COPY_HEAD.size, emb.nbytes))
    aside = copy.rename(tmp_path / "aside.bin")
    want = _loaded(str(path))  # the text alone
    aside.rename(copy)
    parsed = []
    parse_rows = trainer._parse_rows
    monkeypatch.setattr(trainer, "_parse_rows", lambda *a: parsed.append(a) or parse_rows(*a))
    assert _loaded(str(path)) == want
    assert len(parsed) == 1  # the text was parsed, not the copy read
    assert (want == (words, emb.shape, emb.tobytes())) == (damage != "stale")


# spellings of a value, and bytes around it, that `float()` reads or rejects
_VALUE = st.one_of(
    st.floats(width=64).map(repr),
    st.floats(width=64).map(lambda x: f"{x:.17g}"),
    st.floats(width=64).map(lambda x: f"{x:e}"),
    st.floats(width=64).map(lambda x: f"{x:+E}"),
    st.sampled_from(["-0.0", "+0", ".5", "5.", "1e", "1_0", "١", "٣.٥", "0x1p3", "",
                     "inf", "-inf", "nan", "Infinity", "1e400", "4.9e-324"]),
)
_AROUND = st.sampled_from(["", "", "", "\t", "\xa0", "\x1c", "\x1f", "\r", "\x0b", " "])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.lists(st.tuples(_EMB_WORD, st.lists(st.tuples(_AROUND, _VALUE, _AROUND), min_size=1,
                                            max_size=4),
                       st.sampled_from(["", "", "\r", " "])),
             min_size=1, max_size=4),
    st.integers(-1, 1),
    st.booleans(),
)
def test_hand_made_rows_load_as_float_reads_them_or_fail_naming_the_file(
        tmp_path_factory, d, rows, v_off, blank):
    body = "".join(
        w + "".join(" " + pre + val + post for pre, val, post in cells) + end + "\n"
        for w, cells, end in rows
    ) + ("\n" if blank else "")
    path = tmp_path_factory.mktemp("emb") / "emb.txt"
    V = max(len(rows) + v_off, 1)
    path.write_bytes((f"{V} {d}\n" + body).encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _loaded(str(path))
    assert caught == []
    if isinstance(got, str):
        assert got.startswith(f"{path}:")
        return
    # loaded: the body is V rows of a word and d columns, each value the
    # bits `float()` gives its column
    lines = body.split("\n")[:-1]
    assert len(lines) == V
    columns = [line.split(" ") for line in lines]
    assert all(len(row) == d + 1 for row in columns)
    want = np.array([list(map(float, row[1:])) for row in columns], dtype=np.float64)
    assert np.isfinite(want).all()
    assert got == ([row[0] for row in columns], (V, d), want.tobytes())


@pytest.mark.parametrize("text, where, message", [
    ("1 2\nw 0.5 0.25\n\n", ":3", "expected a word and 2 floats"),
    ("1 1\n", "", "header announces 1 rows, found 0"),
    ("2 2\nw 0.5 abc\nv 0.5\n", ":2", "could not convert string to float: 'abc'"),
    ("1 2\nw 0.5 0.25 \n", ":2", "expected a word and 2 floats"),
    ("1 1\nw \n", ":2", "could not convert string to float: ''"),
    ("2 2\nw 0.5 0.25\n", "", "header announces 2 rows, found 1"),
    ("1 1\nw 0.5\nv 0.25\n", ":3", "more rows than the header announces"),
    ("2 2\nw 0.5\nv 0.25\n", ":2", "expected a word and 2 floats"),
    ("1 1\nw 0.5\x1c\n", ":2", "could not convert string to float: '0.5\\x1c'"),
], ids=["blank-line-after-last-row", "empty-body", "bad-float-before-short-row", "trailing-space",
        "trailing-space-only-column", "one-row-short", "one-row-too-many", "every-row-short",
        "x1c-after-value"])
def test_load_embeddings_reports_the_first_bad_line(tmp_path, text, where, message):
    # a fast path that trusted numpy's reader gets each of these wrong: numpy
    # skips a blank row, warns "input contained no data" on an empty body,
    # words its own errors, and strips \x1c around a value
    p = tmp_path / "emb.txt"
    p.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as raised:
            load_embeddings(str(p))
    assert str(raised.value) == f"{p}{where}: {message}"


def _saved_table(tmp_path):
    _, lex = _toy_corpus()
    emb = init_embeddings(len(lex), 6, np.random.default_rng(8))
    emb[0, :4] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
    path = tmp_path / "emb.txt"
    save_embeddings(str(path), lex, emb)
    return path, list(lex.words), emb


def test_crlf_and_pipe_bodies_load_through_the_per_row_loop(tmp_path, monkeypatch):
    path, words, emb = _saved_table(tmp_path)
    loops = []
    parse_rows = trainer._parse_rows

    def counted(path, lines, table):
        loops.append(path)
        return parse_rows(path, lines, table)

    monkeypatch.setattr(trainer, "_parse_rows", counted)
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    got_words, got = load_embeddings(str(crlf))
    assert loops == [str(crlf)]
    assert got_words == words and got.tobytes() == emb.tobytes()

    pipe = tmp_path / "emb.pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    got_words, got = load_embeddings(str(pipe))
    writer.join(10)
    assert not writer.is_alive()
    assert loops == [str(crlf), str(pipe)]
    assert got_words == words and got.tobytes() == emb.tobytes()


def test_rows_of_empty_words_load_alike_from_a_file_and_a_pipe(tmp_path):
    # the smallest row a file can hold: an empty word, one-digit floats and
    # the newline, 2d + 1 bytes; a size check of 2d + 2 bytes a row would
    # refuse the file that a pipe with the same bytes loads
    data = ("1000 1\n" + " 5\n" * 1000).encode()
    path = tmp_path / "emb.txt"
    path.write_bytes(data)
    pipe = tmp_path / "emb.pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(data), daemon=True)
    writer.start()
    through_pipe = _loaded(str(pipe))
    writer.join(10)
    assert not writer.is_alive()
    want = ([""] * 1000, (1000, 1), np.full((1000, 1), 5.0).tobytes())
    assert _loaded(str(path)) == through_pipe == want
    # a header that not even such rows can fill still fails before the allocation
    path.write_bytes(data[:7 + 3 * 997])
    assert _loaded(str(path)) == (
        f"{path}:1: header announces 1000 rows of 1 floats, more than the file's 2998 bytes can hold"
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"mu": 0.0},
        {"eta": -0.1},
        {"dim": 0},
        {"window": 0},
        {"epochs": 0},
        {"n_noise": -1},
        {"epsilon": math.nan},
        {"epsilon": math.inf},
        {"mu": math.nan},
        {"mu": math.inf},
        {"eta": math.nan},
        {"eta": math.inf},
    ],
)
def test_trainer_config_validation(kwargs):
    with pytest.raises(ValueError):
        TrainerConfig(**kwargs)



@pytest.mark.parametrize(
    "field, value",
    [(field, 2.5) for field in ("n_noise", "dim", "window", "epochs", "seed")]
    + [("dim", 4.0), ("epochs", True)],
)
def test_trainer_config_rejects_non_integer_counts(field, value):
    # a fractional count used to pass here and fail only mid-train with a TypeError
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        TrainerConfig(**{field: value})
