"""Objective terms, gradients, and the training loop."""
import math
import os
import re
import threading

import numpy as np
import pytest

from embseg.corpus import BOS, add_boundary_markers
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
    pair_score,
    sample_loss,
    save_embeddings,
    train,
    train_step,
)


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


def _reference_train(sentences, lexicon, config, step=_reference_train_step):
    """The training loop written plainly around `step`, with id_of over
    add_boundary_markers, the same rate schedule (0.025 decaying to 1e-4)
    and the same repair sweeps.  Returns the table and the batch count."""
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
                if batches % 1000 == 0:
                    trainer._repair_rows(emb, rng, "sweep")
    trainer._repair_rows(emb, rng, "final sweep")
    return emb, batches


@pytest.mark.parametrize("epsilon, epochs", [(1.0, 1), (2e-3, 2)])
def test_train_bitwise_equals_reference_loop(epsilon, epochs):
    lang = default_language()
    rng = np.random.default_rng(3)
    sentences = corrupt(lang, generate_corpus(lang, 150, rng))
    lex = Lexicon.from_sentences(sentences)
    config = TrainerConfig(dim=12, seed=9, epsilon=epsilon, epochs=epochs)
    got = train(sentences, lex, config)
    assert got.tobytes() == _reference_train(sentences, lex, config)[0].tobytes()


def test_train_bitwise_equals_public_reference_loop():
    # the loop around the public train_step; a pinned hash of the table
    # would not do, since BLAS dot kernels differ by CPU, so the same code
    # writes different bits on different machines
    lang = default_language()
    sentences = corrupt(lang, generate_corpus(lang, 120, np.random.default_rng(4)))
    # a token spelling a marker and one carrying the escape prefix
    sentences[5] = [sentences[5][0], BOS, "⟨⟨" + sentences[5][-1], *sentences[5][1:]]
    lex = Lexicon.from_sentences(sentences)
    config = TrainerConfig(dim=12, seed=11, epsilon=1.0, epochs=2)
    want, batches = _reference_train(sentences, lex, config, step=train_step)
    assert batches > 2 * trainer._SWEEP_EVERY
    assert train(sentences, lex, config).tobytes() == want.tobytes()


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
    train(
        sentences, lex, TrainerConfig(dim=8, seed=3, epsilon=1.0),
        sample_sink=seen.append,
    )
    assert seen
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
