"""End-to-end checks of the command-line pipeline."""
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import signal
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from embseg import cli, trainer
from embseg.cli import main
from embseg.corpus import BOS
from embseg.decoder import BeamParams
from embseg.lexicon import Lexicon
from embseg.synth import corrupt, default_language, generate_corpus
from embseg.trainer import TrainerConfig, load_embeddings, save_embeddings


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    lang = default_language()
    gold = generate_corpus(lang, 300, np.random.default_rng(123))
    base = corrupt(lang, gold)
    (root / "gold.txt").write_text(
        "".join(" ".join(s) + "\n" for s in gold), encoding="utf-8"
    )
    (root / "base.txt").write_text(
        "".join(" ".join(s) + "\n" for s in base), encoding="utf-8"
    )
    (root / "raw.txt").write_text(
        "".join("".join(s) + "\n" for s in gold), encoding="utf-8"
    )
    return root


@pytest.fixture(scope="module")
def trained(workdir):
    rc, out, err = _run([
        "train",
        "--corpus", str(workdir / "base.txt"),
        "--dict", str(workdir / "dict.tsv"),
        "--emb", str(workdir / "emb.txt"),
        "--cache", str(workdir / "sim.bin"),
        "--dim", "32",
        "--seed", "7",
    ])
    assert rc == 0, err
    return workdir, json.loads(out)


def test_train_summary_fields(trained):
    workdir, summary = trained
    assert summary["sentences"] == 300
    assert summary["seed"] == 7
    assert summary["vocab_size"] > 50
    assert summary["samples"] > 0
    assert summary["cache_entries"] > 0
    assert summary["total_tokens"] > 300 * 8
    assert summary["wall_time_s"] >= 0
    stages = summary["stage_s"]
    assert list(stages) == ["read", "lexicon", "train", "save", "cache"]
    assert all(seconds >= 0 for seconds in stages.values())
    # each stage is rounded down to the millisecond, and the wall time to the nearest
    assert round(sum(stages.values()), 3) <= summary["wall_time_s"]
    assert (workdir / "dict.tsv").exists()
    assert (workdir / "emb.txt").exists()
    assert (workdir / "emb.txt.bin").exists()
    assert (workdir / "sim.bin").exists()


def test_segment_eval_report_chain(trained):
    workdir, _ = trained
    rc, _, err = _run([
        "segment",
        "--input", str(workdir / "raw.txt"),
        "--dict", str(workdir / "dict.tsv"),
        "--emb", str(workdir / "emb.txt"),
        "--cache", str(workdir / "sim.bin"),
        "--baseline", str(workdir / "base.txt"),
        "--out", str(workdir / "out.txt"),
    ])
    assert rc == 0, err
    raw_lines = (workdir / "raw.txt").read_text(encoding="utf-8").splitlines()
    out_lines = (workdir / "out.txt").read_text(encoding="utf-8").splitlines()
    assert len(out_lines) == len(raw_lines)
    for raw, out in zip(raw_lines, out_lines):
        assert out.replace(" ", "") == raw

    rc, out, _ = _run([
        "eval",
        "--gold", str(workdir / "gold.txt"),
        "--input", str(workdir / "out.txt"),
    ])
    assert rc == 0
    scores, tallies = out.strip().splitlines()
    p, r, f = (float(x) for x in scores.split("\t"))
    n_gold, n_pred, n_correct = (int(x) for x in tallies.split("\t"))
    assert 0 < p <= 1 and 0 < r <= 1 and 0 < f <= 1
    assert n_correct <= min(n_gold, n_pred)

    rc, out, _ = _run([
        "report",
        "--gold", str(workdir / "gold.txt"),
        "--baseline", str(workdir / "base.txt"),
        "--input", str(workdir / "out.txt"),
        "--min-count", "1",
        "--out", str(workdir / "report.tsv"),
    ])
    assert rc == 0
    lines = (workdir / "report.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "word\tgold_count\tprecision_baseline\tprecision_new\tdelta"
    assert len(lines) > 1
    for line in lines[1:]:
        fields = line.split("\t")
        assert len(fields) == 5
        int(fields[1])
        for x in fields[2:]:
            float(x)


def test_report_to_stdout(trained):
    workdir, _ = trained
    rc, out, _ = _run([
        "report",
        "--gold", str(workdir / "gold.txt"),
        "--baseline", str(workdir / "base.txt"),
        "--input", str(workdir / "out.txt"),
    ])
    assert rc == 0
    assert out.startswith("word\tgold_count\t")


def test_segment_without_cache_is_identical(trained):
    workdir, _ = trained
    args = [
        "segment",
        "--input", str(workdir / "raw.txt"),
        "--dict", str(workdir / "dict.tsv"),
        "--emb", str(workdir / "emb.txt"),
        "--baseline", str(workdir / "base.txt"),
    ]
    rc, _, _ = _run(args + ["--out", str(workdir / "nocache.txt")])
    assert rc == 0
    assert (workdir / "nocache.txt").read_bytes() == (workdir / "out.txt").read_bytes()


def test_train_requires_cache_decision(workdir):
    rc, _, err = _run([
        "train",
        "--corpus", str(workdir / "base.txt"),
        "--dict", str(workdir / "d2.tsv"),
        "--emb", str(workdir / "e2.txt"),
    ])
    assert rc == 1
    assert err.startswith("error:")
    assert "--no-cache" in err


def test_train_no_cache_and_time_seed(workdir):
    rc, out, _ = _run([
        "train",
        "--corpus", str(workdir / "base.txt"),
        "--dict", str(workdir / "d3.tsv"),
        "--emb", str(workdir / "e3.txt"),
        "--no-cache",
        "--dim", "16",
    ])
    assert rc == 0
    summary = json.loads(out)
    assert summary["cache_entries"] is None
    assert summary["stage_s"]["cache"] is None
    assert isinstance(summary["seed"], int)  # time-seeded but echoed


@pytest.mark.parametrize("flags, want", [
    (["--epsilon", "0.002", "--mu", "0.25", "--neg", "3", "--dim", "7", "--eta", "0.5", "--window", "2",
      "--epochs", "2"],
     TrainerConfig(epsilon=0.002, mu=0.25, n_noise=3, dim=7, eta=0.5, window=2, epochs=2, seed=11)),
    ([], TrainerConfig(seed=11)),  # every other default is its field's
], ids=["every-flag", "no-flag"])
def test_every_trainer_config_field_is_a_train_flag(workdir, tmp_path, monkeypatch, flags, want):
    seen = []

    def capture(sentences, lexicon, config, **kwargs):
        seen.append(config)
        raise ValueError("captured")

    monkeypatch.setattr(cli, "train", capture)
    rc, _, _ = _run([
        "train", "--corpus", str(workdir / "base.txt"),
        "--dict", str(tmp_path / "d.tsv"), "--emb", str(tmp_path / "e.txt"), "--no-cache",
        *flags, "--seed", "11",
    ])
    assert rc == 1
    assert seen == [want]
    default = TrainerConfig()
    # with every flag given, a field no flag sets would keep its default
    assert not flags or all(getattr(want, f.name) != getattr(default, f.name)
                            for f in dataclasses.fields(TrainerConfig))


# sha256 of the dump below: it reads no value from the embedding table, so
# its bytes depend only on the corpus, the seed and --dim (the draws that
# initialise the table come first from the same generator)
_DUMP_SHA256 = "a19ac15ff71fa3a7cb47c5317d142959088f8a4cabb9712876fd55e2727efe05"


def test_dump_samples_tsv(workdir):
    dump = workdir / "samples.tsv"
    rc, out, _ = _run([
        "train",
        "--corpus", str(workdir / "base.txt"),
        "--dict", str(workdir / "d4.tsv"),
        "--emb", str(workdir / "e4.txt"),
        "--no-cache",
        "--dim", "16",
        "--seed", "3",
        "--dump-samples", str(dump),
    ])
    assert rc == 0
    summary = json.loads(out)
    lines = dump.read_text(encoding="utf-8").splitlines()
    assert len(lines) == summary["samples"] > 0
    sources = collections.Counter()
    for line in lines:
        target, other, label, source, weight = line.split("\t")
        assert label == ("positive" if source == "ctx_pos" else "negative")
        sources[source] += 1
        float(weight)
    # the summary's per-channel counts are the dump's, and sum to its samples
    assert summary["samples_by_channel"] == dict(sources)
    assert set(sources) == {"ctx_pos", "ctx_neg", "inword_neg", "noise_neg"}
    assert sum(summary["samples_by_channel"].values()) == summary["samples"]
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == _DUMP_SHA256


@pytest.mark.parametrize("first, second, spelling", [
    ("--dict", "--emb", "same"),
    ("--emb", "--cache", "same"),
    ("--cache", "--dump-samples", "same"),
    ("--dict", "--dump-samples", "same"),
    ("--dict", "--cache", "dotdot"),
    ("--emb", "--dump-samples", "symlink"),
])
def test_two_train_outputs_on_one_path_fail_before_the_corpus_is_read(
        workdir, tmp_path, monkeypatch, first, second, spelling):
    # accepted, --dict X --emb X failed on the temporary file the two shared,
    # with an error naming neither flag
    monkeypatch.setattr(cli, "read_segmented_corpus", _refuse("read the corpus"))
    monkeypatch.setattr(cli, "train", _refuse("trained"))
    out = tmp_path / "out"
    out.mkdir()
    argv = _train_argv(workdir, out)
    path = Path(argv[argv.index(first) + 1])
    if spelling == "dotdot":
        other = out / "sub" / ".." / path.name
    elif spelling == "symlink":
        other = tmp_path / "link"
        other.symlink_to(path)
    else:
        other = path
    argv[argv.index(second) + 1] = str(other)
    rc, stdout, err = _run(argv)
    assert (rc, stdout) == (1, "")
    assert err == f"error: {first} and {second} name the same file: {other}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flag", ["--dict", "--emb", "--cache", "--dump-samples"])
def test_train_output_on_the_corpus_path_fails_before_any_output(tmp_path, flag):
    # accepted, the output replaced the corpus when training succeeded
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes("天 地\n地 天\n".encode("utf-8"))
    out = tmp_path / "out"
    out.mkdir()
    argv = _train_argv(tmp_path, out)
    argv[argv.index("--corpus") + 1] = str(corpus)
    argv[argv.index(flag) + 1] = str(corpus)
    rc, stdout, err = _run(argv)
    assert (rc, stdout) == (1, "")
    assert err == f"error: --corpus and {flag} name the same file: {corpus}\n"
    assert corpus.read_bytes() == "天 地\n地 天\n".encode("utf-8")
    assert sorted(tmp_path.rglob("*")) == [corpus, out]


@pytest.mark.parametrize("flag, spelling", [
    ("--dict", "same"), ("--emb", "same"), ("--cache", "same"), ("--baseline", "same"),
    ("--emb", "symlink"), ("--emb", "binary-copy"),
])
def test_segment_out_on_an_input_fails_before_any_file_is_read(trained, tmp_path, monkeypatch, flag, spelling):
    # accepted, --emb e.txt --out e.txt replaced the embeddings with the decoded text
    workdir, _ = trained
    monkeypatch.setattr(cli, "_load_artifacts", _refuse("loaded the artifacts"))
    monkeypatch.setattr(cli, "_lines_in_step", _refuse("read the input"))
    for name in ("dict.tsv", "emb.txt", "sim.bin"):
        (tmp_path / name).write_bytes((workdir / name).read_bytes())
    raw, base = _two_lines(tmp_path)
    argv = _segment_argv(tmp_path, raw, base, "")
    path = Path(argv[argv.index(flag) + 1])
    out = path
    if spelling == "symlink":
        out = tmp_path / "link"
        out.symlink_to(path)
    elif spelling == "binary-copy":  # what train writes beside --emb, and load_embeddings reads
        out = Path(f"{path}.bin")
        flag = "--emb's .bin copy"
    argv[argv.index("--out") + 1] = str(out)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    rc, stdout, err = _run(argv)
    assert (rc, stdout) == (1, "")
    assert err == f"error: {flag} and --out name the same file: {out}\n"
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("flag", ["--gold", "--baseline", "--input"])
def test_report_out_on_an_input_fails_before_any_file_is_read(workdir, tmp_path, monkeypatch, flag):
    # accepted, --gold g.txt --out g.txt replaced the gold file with the report
    monkeypatch.setattr(cli, "read_token_lines", _refuse("read an input"))
    paths = {"--gold": tmp_path / "gold.txt", "--baseline": tmp_path / "base.txt",
             "--input": tmp_path / "new.txt"}
    for path in paths.values():
        path.write_bytes((workdir / "gold.txt").read_bytes())
    argv = ["report", "--min-count", "1", "--out", str(paths[flag])]
    for name, path in paths.items():
        argv += [name, str(path)]
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    rc, stdout, err = _run(argv)
    assert (rc, stdout) == (1, "")
    assert err == f"error: {flag} and --out name the same file: {paths[flag]}\n"
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_train_without_a_sample_fails_and_writes_nothing(tmp_path):
    # accepted, printed "samples": 0 and saved the untrained initial table;
    # subsampling keeps no occurrence of words as frequent as these
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b c\nb a\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    argv = _train_argv(tmp_path, out)
    argv[argv.index("--corpus") + 1] = str(corpus)
    rc, stdout, err = _run(argv)
    assert (rc, stdout) == (1, "")
    assert err.startswith(f"error: {corpus}: ") and "no sample was drawn" in err
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_segment_artifact_mismatch(workdir, trained, tmp_path):
    mini = tmp_path / "mini.txt"
    mini.write_text("天 地\n地 天\n", encoding="utf-8")
    rc, _, _ = _run([
        "train",
        "--corpus", str(mini),
        "--dict", str(tmp_path / "mini_dict.tsv"),
        "--emb", str(tmp_path / "mini_emb.txt"),
        "--no-cache",
        "--dim", "8",
        "--epsilon", "1",  # keeps every occurrence of so short a corpus
        "--seed", "1",
    ])
    assert rc == 0
    rc, _, err = _run([
        "segment",
        "--input", str(workdir / "raw.txt"),
        "--dict", str(workdir / "dict.tsv"),
        "--emb", str(tmp_path / "mini_emb.txt"),
        "--out", str(tmp_path / "never.txt"),
    ])
    assert rc == 1
    assert "re-run train" in err


def test_segment_baseline_length_mismatch(trained, tmp_path):
    workdir, _ = trained
    short = tmp_path / "short_base.txt"
    lines = (workdir / "base.txt").read_text(encoding="utf-8").splitlines()[:-1]
    short.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    rc, _, err = _run([
        "segment",
        "--input", str(workdir / "raw.txt"),
        "--dict", str(workdir / "dict.tsv"),
        "--emb", str(workdir / "emb.txt"),
        "--cache", str(workdir / "sim.bin"),
        "--baseline", str(short),
        "--out", str(tmp_path / "never.txt"),
    ])
    assert rc == 1
    assert "lines" in err


@pytest.mark.parametrize("base_lines, n_base", [(["大 人"], 1), (["大 人", "天 地", "天 地"], 3)],
                         ids=["shorter", "longer"])
def test_segment_line_count_mismatch_names_both_counts(trained, tmp_path, base_lines, n_base):
    workdir, _ = trained
    raw, base = _two_lines(tmp_path)
    base.write_text("".join(line + "\n" for line in base_lines), encoding="utf-8")
    out = tmp_path / "out.txt"
    rc, _, err = _run(_segment_argv(workdir, raw, base, out))
    assert (rc, err) == (1, f"error: {base} has {n_base} lines, {raw} has 2\n")
    assert not out.exists()


def test_segment_input_may_be_its_own_out(trained, tmp_path):
    workdir, _ = trained
    raw, base = _two_lines(tmp_path)
    separate = tmp_path / "separate.txt"
    assert _run(_segment_argv(workdir, raw, base, separate))[0] == 0
    rc, _, err = _run(_segment_argv(workdir, raw, base, raw))
    assert rc == 0, err
    assert raw.read_bytes() == separate.read_bytes()


def test_segment_preserves_blank_lines(trained, tmp_path):
    workdir, _ = trained
    raw = tmp_path / "raw2.txt"
    raw.write_text("大人\n\n天地\n", encoding="utf-8")
    base = tmp_path / "base2.txt"
    base.write_text("大 人\n\n天 地\n", encoding="utf-8")
    out = tmp_path / "out2.txt"
    rc, _, err = _run([
        "segment",
        "--input", str(raw),
        "--dict", str(workdir / "dict.tsv"),
        "--emb", str(workdir / "emb.txt"),
        "--cache", str(workdir / "sim.bin"),
        "--baseline", str(base),
        "--out", str(out),
    ])
    assert rc == 0, err
    lines = out.read_text(encoding="utf-8").split("\n")
    assert len(lines) == 4
    assert lines[1] == ""
    assert lines[3] == ""
    assert lines[0].replace(" ", "") == "大人"


def test_eval_misaligned_inputs(workdir, tmp_path):
    bad = tmp_path / "bad.txt"
    lines = (workdir / "gold.txt").read_text(encoding="utf-8").splitlines()[:-1]
    bad.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    rc, _, err = _run([
        "eval",
        "--gold", str(workdir / "gold.txt"),
        "--input", str(bad),
    ])
    assert rc == 1
    assert err.startswith("error:")


def test_missing_file_is_a_clean_error(tmp_path):
    rc, _, err = _run([
        "eval",
        "--gold", str(tmp_path / "nope.txt"),
        "--input", str(tmp_path / "nope2.txt"),
    ])
    assert rc == 1
    assert err.startswith("error:")


def test_segment_names_the_baseline_line_that_does_not_cover(trained, tmp_path):
    workdir, _ = trained
    raw = tmp_path / "raw3.txt"
    raw.write_text("大人\n天地\n", encoding="utf-8")
    base = tmp_path / "base3.txt"
    base.write_text("大 人\n天 人\n", encoding="utf-8")
    rc, _, err = _run([
        "segment",
        "--input", str(raw),
        "--dict", str(workdir / "dict.tsv"),
        "--emb", str(workdir / "emb.txt"),
        "--cache", str(workdir / "sim.bin"),
        "--baseline", str(base),
        "--out", str(tmp_path / "never.txt"),
    ])
    assert rc == 1
    assert err == f"error: {base}:2: baseline tokens do not cover the line's fragments\n"
    assert not (tmp_path / "never.txt").exists()


def test_segment_reports_load_errors_with_file_and_line(trained, tmp_path):
    workdir, _ = trained
    lines = (workdir / "emb.txt").read_text(encoding="utf-8").splitlines()
    row = lines[3].split(" ")
    lines[3] = " ".join(row[:2] + ["abc"] + row[3:])
    emb = tmp_path / "emb_bad.txt"
    emb.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    rc, _, err = _run([
        "segment",
        "--input", str(workdir / "raw.txt"),
        "--dict", str(workdir / "dict.tsv"),
        "--emb", str(emb),
        "--out", str(tmp_path / "never.txt"),
    ])
    assert rc == 1
    assert err.startswith(f"error: {emb}:4: could not convert string to float")


def test_output_path_that_is_a_directory_is_a_clean_error(trained, tmp_path):
    workdir, _ = trained
    rc, _, err = _run([
        "segment",
        "--input", str(workdir / "raw.txt"),
        "--dict", str(workdir / "dict.tsv"),
        "--emb", str(workdir / "emb.txt"),
        "--cache", str(workdir / "sim.bin"),
        "--out", str(tmp_path),
    ])
    assert rc == 1
    assert err.startswith("error: ") and "Is a directory" in err


def _segment_argv(workdir, raw, base, out):
    return [
        "segment",
        "--input", str(raw),
        "--dict", str(workdir / "dict.tsv"),
        "--emb", str(workdir / "emb.txt"),
        "--cache", str(workdir / "sim.bin"),
        "--baseline", str(base),
        "--out", str(out),
    ]


def _two_lines(tmp_path, second_base="天 地"):
    raw = tmp_path / "raw.txt"
    raw.write_text("大人\n天地\n", encoding="utf-8")
    base = tmp_path / "base.txt"
    base.write_text(f"大 人\n{second_base}\n", encoding="utf-8")
    return raw, base


@pytest.mark.parametrize("where,message", [
    ("dir", "Is a directory"),
    ("missing/out.txt", "No such file or directory"),
])
def test_unwritable_out_fails_before_decoding(trained, tmp_path, monkeypatch, where, message):
    workdir, _ = trained
    raw, base = _two_lines(tmp_path)
    (tmp_path / "dir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    calls = []

    def decode(*args, **kwargs):
        calls.append(args)
        raise AssertionError("decoded a line before --out was checked")

    monkeypatch.setattr(cli, "segment_sentence", decode)
    rc, _, err = _run(_segment_argv(workdir, raw, base, tmp_path / where))
    assert (rc, calls) == (1, [])
    assert err == f"error: [Errno {21 if where == 'dir' else 2}] {message}: '{tmp_path / where}'\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("existing", [False, True])
def test_failed_segment_leaves_no_files(trained, tmp_path, existing):
    workdir, _ = trained
    raw, base = _two_lines(tmp_path, second_base="天 人")  # line 2 does not cover its input
    out = tmp_path / "out.txt"
    if existing:
        out.write_text("old\n", encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    rc, _, err = _run(_segment_argv(workdir, raw, base, out))
    assert rc == 1 and err.startswith(f"error: {base}:2: ")
    assert sorted(tmp_path.iterdir()) == before
    if existing:
        assert out.read_text(encoding="utf-8") == "old\n"


def test_segment_out_mode_is_that_of_a_plain_open(trained, tmp_path):
    workdir, _ = trained
    raw, base = _two_lines(tmp_path)
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8"):
        pass
    out = tmp_path / "out.txt"
    assert _run(_segment_argv(workdir, raw, base, out))[0] == 0
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    # a file that is replaced keeps its mode, as when opened in place
    out.chmod(0o640)
    assert _run(_segment_argv(workdir, raw, base, out))[0] == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_segment_out_through_a_symlink_and_a_pipe(trained, tmp_path):
    workdir, _ = trained
    raw, base = _two_lines(tmp_path)
    out = tmp_path / "out.txt"
    assert _run(_segment_argv(workdir, raw, base, out))[0] == 0
    want = out.read_text(encoding="utf-8")

    target = tmp_path / "target.txt"
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert _run(_segment_argv(workdir, raw, base, link))[0] == 0
    assert link.is_symlink() and target.read_text(encoding="utf-8") == want

    # not a regular file: written through, never replaced
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text(encoding="utf-8")), daemon=True)
    reader.start()
    assert _run(_segment_argv(workdir, raw, base, pipe))[0] == 0
    reader.join(10)
    assert stat.S_ISFIFO(pipe.lstat().st_mode) and got == [want]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "base.txt", "link.txt", "out.txt", "pipe", "raw.txt", "target.txt",
    ]


@pytest.mark.parametrize("with_baseline", [False, True])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_segment_names_the_embedding_line_with_a_non_finite_value(trained, tmp_path, value,
                                                                 with_baseline):
    # a non-finite vector once reached the decoder, which blamed the baseline
    workdir, _ = trained
    lines = (workdir / "emb.txt").read_text(encoding="utf-8").splitlines()
    row = lines[3].split(" ")
    lines[3] = " ".join(row[:2] + [value] + row[3:])
    emb = tmp_path / "emb_bad.txt"
    emb.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    argv = [
        "segment",
        "--input", str(workdir / "raw.txt"),
        "--dict", str(workdir / "dict.tsv"),
        "--emb", str(emb),
        "--out", str(tmp_path / "never.txt"),
    ]
    if with_baseline:
        argv += ["--baseline", str(workdir / "base.txt")]
    rc, _, err = _run(argv)
    assert rc == 1
    assert err == f"error: {emb}:4: non-finite value\n"
    assert not (tmp_path / "never.txt").exists()


@pytest.mark.parametrize("header", ["100000000000 100", "3 1000000"])
def test_segment_rejects_an_embedding_header_the_file_cannot_hold(trained, tmp_path, header):
    # the table was allocated from the header first: 10^11 rows died in
    # numpy's allocator with a traceback and no error line
    workdir, _ = trained
    lines = (workdir / "emb.txt").read_text(encoding="utf-8").splitlines()
    emb = tmp_path / "emb_huge.txt"
    emb.write_text("".join(l + "\n" for l in [header, *lines[1:]]), encoding="utf-8")
    out = tmp_path / "never.txt"
    rc, _, err = _run([
        "segment",
        "--input", str(workdir / "raw.txt"),
        "--dict", str(workdir / "dict.tsv"),
        "--emb", str(emb),
        "--out", str(out),
    ])
    assert rc == 1
    assert err.startswith(f"error: {emb}:1: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def _with_bad_byte_on_line_2(src, dst):
    lines = src.read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    dst.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("command,flag", [
    ("train", "--corpus"),
    ("segment", "--input"),
    ("segment", "--baseline"),
    ("segment", "--dict"),
    ("segment", "--emb"),
    ("eval", "--gold"),
    ("eval", "--input"),
])
def test_invalid_utf8_names_file_and_line(trained, tmp_path, command, flag):
    w, _ = trained
    argv = {
        "train": ["train", "--corpus", w / "base.txt", "--dict", tmp_path / "d.tsv",
                  "--emb", tmp_path / "e.txt", "--no-cache"],
        "segment": ["segment", "--input", w / "raw.txt", "--dict", w / "dict.tsv",
                    "--emb", w / "emb.txt", "--baseline", w / "base.txt", "--out", tmp_path / "never.txt"],
        "eval": ["eval", "--gold", w / "gold.txt", "--input", w / "base.txt"],
    }[command]
    i = argv.index(flag) + 1
    bad = tmp_path / "bad"
    _with_bad_byte_on_line_2(argv[i], bad)
    argv[i] = bad
    rc, _, err = _run([str(a) for a in argv])
    assert rc == 1
    assert err.startswith(f"error: {bad}:2: invalid UTF-8: ")
    assert [p.name for p in tmp_path.iterdir()] == ["bad"]


def test_crlf_artifacts_load_like_lf(trained, tmp_path):
    workdir, _ = trained
    for name in ("dict.tsv", "emb.txt"):
        (tmp_path / name).write_bytes((workdir / name).read_bytes().replace(b"\n", b"\r\n"))
    lf = Lexicon.load(str(workdir / "dict.tsv"))
    crlf = Lexicon.load(str(tmp_path / "dict.tsv"))
    assert crlf.words == lf.words and crlf.counts.tolist() == lf.counts.tolist()
    lf_words, lf_emb = load_embeddings(str(workdir / "emb.txt"))
    crlf_words, crlf_emb = load_embeddings(str(tmp_path / "emb.txt"))
    assert crlf_words == lf_words and np.array_equal(crlf_emb, lf_emb)


def _train_argv(workdir, out):
    return [
        "train", "--corpus", str(workdir / "base.txt"),
        "--dict", str(out / "dict.tsv"), "--emb", str(out / "emb.txt"),
        "--cache", str(out / "sim.bin"), "--dump-samples", str(out / "samples.tsv"),
        "--dim", "8", "--seed", "1",
    ]


@pytest.mark.parametrize("flag", ["--dict", "--emb", "--cache", "--dump-samples"])
def test_unwritable_train_output_fails_before_training(workdir, tmp_path, monkeypatch, flag):
    def train(*args, **kwargs):
        raise AssertionError("trained before every output was checked")

    monkeypatch.setattr(cli, "train", train)
    argv = _train_argv(workdir, tmp_path)
    bad = tmp_path / "missing" / "out"
    argv[argv.index(flag) + 1] = str(bad)
    rc, out, err = _run(argv)
    assert (rc, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{bad}'\n"
    assert list(tmp_path.iterdir()) == []


def test_train_reports_a_failed_allocation_in_one_line(tmp_path):
    # 10**15 floats per row is far past 2**48 bytes: no machine maps it
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b\nb a c\n", encoding="utf-8")
    rc, out, err = _run([
        "train", "--corpus", str(corpus), "--dict", str(tmp_path / "d.tsv"),
        "--emb", str(tmp_path / "e.txt"), "--no-cache", "--dim", "1000000000000000",
    ])
    assert (rc, out) == (1, "")
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]


@pytest.mark.parametrize("stage", ["train", "_save_binary_copy", "build_cache"])
def test_failed_train_leaves_no_new_artifact(workdir, tmp_path, monkeypatch, stage):
    def fail(*args, **kwargs):
        raise ValueError(f"{stage} failed")

    monkeypatch.setattr(cli, stage, fail)
    (tmp_path / "emb.txt").write_text("old\n", encoding="utf-8")
    rc, out, err = _run(_train_argv(workdir, tmp_path))
    # a training error is about the corpus, so it names the corpus file
    where = f"{workdir / 'base.txt'}: " if stage == "train" else ""
    assert (rc, out, err) == (1, "", f"error: {where}{stage} failed\n")
    assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]
    assert (tmp_path / "emb.txt").read_text(encoding="utf-8") == "old\n"


@pytest.mark.parametrize("error", [
    RuntimeError(f"the training worker ended with exit code {-signal.SIGKILL} and no report"),
    FloatingPointError("non-finite embedding entries after training"),
], ids=["dead-worker", "non-finite-table"])
def test_a_training_failure_is_one_error_line(workdir, tmp_path, monkeypatch, error):
    # accepted, both came out of main as a traceback
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "train", fail)
    rc, out, err = _run(_train_argv(workdir, tmp_path))
    assert (rc, out, err) == (1, "", f"error: {error}\n")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_binary_copy_fails_before_training(workdir, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "train", _refuse("trained"))
    copy = tmp_path / "emb.txt.bin"
    copy.mkdir()
    rc, out, err = _run(_train_argv(workdir, tmp_path))
    assert (rc, out) == (1, "")
    assert err == f"error: [Errno 21] Is a directory: '{copy}'\n"
    assert list(tmp_path.iterdir()) == [copy]


@pytest.mark.parametrize("flag", ["--corpus", "--dict", "--cache", "--dump-samples"])
def test_train_refuses_a_path_on_the_binary_copy_of_emb(workdir, tmp_path, monkeypatch, flag):
    monkeypatch.setattr(cli, "read_segmented_corpus", _refuse("read the corpus"))
    monkeypatch.setattr(cli, "train", _refuse("trained"))
    argv = _train_argv(workdir, tmp_path)
    copy = tmp_path / "emb.txt.bin"
    argv[argv.index(flag) + 1] = str(copy)
    rc, out, err = _run(argv)
    # the copy is checked right after --emb
    first, second = ((flag, "--emb's .bin copy") if flag in ("--corpus", "--dict")
                     else ("--emb's .bin copy", flag))
    assert (rc, out, err) == (1, "", f"error: {first} and {second} name the same file: {copy}\n")
    assert list(tmp_path.iterdir()) == []


def test_a_pipe_emb_gets_no_binary_copy(workdir, tmp_path):
    argv = _train_argv(workdir, tmp_path)
    assert _run(argv)[0] == 0
    pipe = tmp_path / "pipe" / "emb.txt"
    pipe.parent.mkdir()
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    rc, _, err = _run(_train_argv(workdir, pipe.parent))
    reader.join(10)
    assert rc == 0, err
    assert not reader.is_alive() and got == [(tmp_path / "emb.txt").read_bytes()]
    assert sorted(p.name for p in pipe.parent.iterdir()) == [
        "dict.tsv", "emb.txt", "samples.tsv", "sim.bin",
    ]


def test_segment_reads_the_binary_copy_and_writes_the_same_bytes_without_it(
        trained, tmp_path, monkeypatch):
    workdir, _ = trained
    with_copy = tmp_path / "with_copy.txt"
    argv = _segment_argv(workdir, workdir / "raw.txt", workdir / "base.txt", with_copy)
    def parse(*args, **kwargs):
        raise AssertionError("parsed the embedding text")

    with monkeypatch.context() as mp:  # only the copy can give the table
        mp.setattr(trainer, "_parse_rows", parse)
        assert _run(argv) == (0, "", "")
    plain = tmp_path / "plain"
    plain.mkdir()
    for name in ("dict.tsv", "emb.txt", "sim.bin"):
        (plain / name).write_bytes((workdir / name).read_bytes())
    without = tmp_path / "without_copy.txt"
    assert _run(_segment_argv(plain, workdir / "raw.txt", workdir / "base.txt", without))[0] == 0
    assert with_copy.read_bytes() == without.read_bytes()


def test_failed_report_leaves_out_untouched(trained, tmp_path, monkeypatch):
    workdir, _ = trained
    real = cli.word_improvement_report

    def rows(*args, **kwargs):
        yield from real(*args, **kwargs)[:1]
        raise ValueError("report failed")

    out = tmp_path / "report.tsv"
    out.write_text("old\n", encoding="utf-8")
    monkeypatch.setattr(cli, "word_improvement_report", rows)
    rc, _, err = _run([
        "report", "--gold", str(workdir / "gold.txt"), "--baseline", str(workdir / "base.txt"),
        "--input", str(workdir / "gold.txt"), "--min-count", "1", "--out", str(out),
    ])
    assert (rc, err) == (1, "error: report failed\n")
    assert [p.name for p in tmp_path.iterdir()] == ["report.tsv"]
    assert out.read_text(encoding="utf-8") == "old\n"


@pytest.mark.parametrize("command,flag", [("eval", "--input"), ("report", "--baseline"),
                                          ("report", "--input")])
@pytest.mark.parametrize("fault", ["count", "characters"])
def test_misaligned_file_is_named_with_its_line(workdir, tmp_path, command, flag, fault):
    gold = workdir / "gold.txt"
    lines = gold.read_text(encoding="utf-8").splitlines()
    if fault == "count":
        lines.pop()
    else:
        lines[1] = "X" + lines[1]
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    argv = [command, "--gold", str(gold), "--input", str(gold)]
    if command == "report":
        argv += ["--baseline", str(gold)]
    argv[argv.index(flag) + 1] = str(bad)
    rc, out, err = _run(argv)
    assert (rc, out) == (1, "")
    if fault == "count":
        assert err == f"error: {bad} has 299 lines, {gold} has 300\n"
    else:
        assert err == f"error: {bad}:2: character streams differ from {gold}\n"


def _refuse(what):
    def call(*args, **kwargs):
        raise AssertionError(f"{what} before the bad argument was rejected")
    return call


@pytest.mark.parametrize("flag", ["--dict", "--emb", "--cache", "--dump-samples"])
def test_empty_train_output_path_fails_before_the_corpus_is_read(workdir, tmp_path, monkeypatch, flag):
    monkeypatch.setattr(cli, "read_segmented_corpus", _refuse("read the corpus"))
    monkeypatch.setattr(cli, "train", _refuse("trained"))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)  # "" resolves to the working directory: nothing may appear beside it
    argv = _train_argv(workdir, cwd)
    argv[argv.index(flag) + 1] = ""
    rc, out, err = _run(argv)
    assert (rc, out) == (1, "")
    want = "pass --cache PATH or --no-cache" if flag == "--cache" else "empty output path"
    assert err.startswith("error: ") and want in err
    assert list(tmp_path.rglob("*")) == [cwd]


@pytest.mark.parametrize("flag, value", [
    ("--eta", "nan"), ("--eta", "inf"), ("--epsilon", "nan"), ("--mu", "inf"),
])
def test_non_finite_hyperparameter_fails_before_any_output(workdir, tmp_path, monkeypatch, flag, value):
    # accepted, eta=nan turned every row into NaN and the final sweep
    # re-randomized them all: a random table written without an error
    monkeypatch.setattr(cli, "read_segmented_corpus", _refuse("read the corpus"))
    monkeypatch.setattr(cli, "train", _refuse("trained"))
    rc, out, err = _run([*_train_argv(workdir, tmp_path), flag, value])
    assert (rc, out) == (1, "")
    assert err == f"error: {flag[2:]} must be finite, got {float(value)}\n"
    assert list(tmp_path.iterdir()) == []


def test_negative_seed_fails_before_the_corpus_is_read(workdir, tmp_path, monkeypatch):
    # accepted, numpy's default_rng raised inside train, after the corpus
    # was read, with a message that named no flag
    monkeypatch.setattr(cli, "read_segmented_corpus", _refuse("read the corpus"))
    monkeypatch.setattr(cli, "train", _refuse("trained"))
    rc, out, err = _run([*_train_argv(workdir, tmp_path), "--seed", "-1"])
    assert (rc, out) == (1, "")
    assert err == "error: seed must be >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


def test_train_rejects_cache_with_no_cache_before_any_output(workdir, tmp_path, monkeypatch):
    # accepted, the pair would train fully and never write the --cache it names
    monkeypatch.setattr(cli, "read_segmented_corpus", _refuse("read the corpus"))
    monkeypatch.setattr(cli, "train", _refuse("trained"))
    rc, out, err = _run([*_train_argv(workdir, tmp_path), "--no-cache"])
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--cache" in err and "--no-cache" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["segment", "report"])
def test_empty_out_path_fails_before_any_input_is_read(trained, tmp_path, monkeypatch, command):
    workdir, _ = trained
    for name in ("read_lines", "_load_artifacts", "segment_sentence", "word_improvement_report"):
        monkeypatch.setattr(cli, name, _refuse(f"called {name}"))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    if command == "segment":
        argv = _segment_argv(workdir, workdir / "raw.txt", workdir / "base.txt", "")
    else:
        argv = ["report", "--gold", str(workdir / "gold.txt"), "--baseline", str(workdir / "base.txt"),
                "--input", str(workdir / "gold.txt"), "--out", ""]
    rc, out, err = _run(argv)
    assert (rc, out, err) == (1, "", "error: empty output path\n")
    assert list(tmp_path.rglob("*")) == [cwd]


@pytest.mark.parametrize("flags", [
    ["--baseline"], ["--cache"], ["--cache", "--baseline"], ["--input"], ["--dict"], ["--emb"],
])
def test_empty_input_path_fails_before_any_input_is_read(trained, tmp_path, monkeypatch, flags):
    # accepted, --baseline "" and --cache "" decoded without a baseline or
    # without the cache and exited 0, as if the flag had not been given
    workdir, _ = trained
    for name in ("read_lines", "_load_artifacts", "segment_sentence"):
        monkeypatch.setattr(cli, name, _refuse(f"called {name}"))
    argv = _segment_argv(workdir, workdir / "raw.txt", workdir / "base.txt", tmp_path / "out.txt")
    for flag in flags:
        argv[argv.index(flag) + 1] = ""
    rc, out, err = _run(argv)
    assert (rc, out, err) == (1, "", f"error: empty input path for {flags[0]}\n")
    assert list(tmp_path.iterdir()) == []


def test_token_line_reader_keeps_blank_lines_and_one_object_per_word(tmp_path):
    path = tmp_path / "gold.txt"
    text = "今天 天气\n\n天气  今天\n \t\n今天\n"
    path.write_text(text, encoding="utf-8")
    lines = list(cli.read_token_lines(str(path)))
    assert lines == [line.split() for line in text.split("\n")[:-1]]
    assert lines[1] == lines[3] == []
    assert lines[0][0] is lines[2][1] is lines[4][0]
    assert lines[0][1] is lines[2][0]


@pytest.mark.parametrize("flags, want", [
    (["--beam", "3", "--max-word-len", "4", "--window", "2"], BeamParams(beam_size=3, max_word_len=4, window=2)),
    ([], BeamParams()),
], ids=["every-flag", "no-flag"])
def test_every_beam_params_field_is_a_segment_flag(trained, tmp_path, monkeypatch, flags, want):
    workdir, _ = trained
    seen = []

    def capture(line, lexicon, cache, params, **kwargs):
        seen.append(params)
        raise ValueError("captured")

    monkeypatch.setattr(cli, "segment_sentence", capture)
    argv = _segment_argv(workdir, workdir / "raw.txt", workdir / "base.txt", tmp_path / "out.txt")
    rc, _, _ = _run([*argv, *flags])
    assert rc == 1
    assert seen == [want]
    default = BeamParams()
    # with every flag given, a field no flag sets would keep its default
    assert not flags or all(getattr(want, f.name) != getattr(default, f.name)
                            for f in dataclasses.fields(BeamParams))


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--window", "0", "window"),
        ("--window", "-1", "window"),
        ("--beam", "0", "beam_size"),
        ("--max-word-len", "0", "max_word_len"),
    ],
)
def test_bad_decode_option_fails_before_any_input_is_read(trained, tmp_path, monkeypatch, flag, value, field):
    workdir, _ = trained
    for name in ("read_lines", "_load_artifacts", "segment_sentence"):
        monkeypatch.setattr(cli, name, _refuse(f"called {name}"))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = _segment_argv(workdir, workdir / "raw.txt", workdir / "base.txt", out_dir / "seg.txt")
    rc, out, err = _run([*argv, flag, value])
    assert (rc, out, err) == (1, "", f"error: {field} must be >= 1, got {value}\n")
    assert list(out_dir.iterdir()) == []  # neither --out nor its temporary file


def test_python_dash_m_reports_a_bad_window(trained, tmp_path):
    workdir, _ = trained
    src = Path(cli.__file__).resolve().parent.parent
    argv = _segment_argv(workdir, workdir / "raw.txt", workdir / "base.txt", tmp_path / "seg.txt")
    proc = subprocess.run(
        [sys.executable, "-m", "embseg", *argv, "--window", "0"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: window must be >= 1, got 0\n")
    assert list(tmp_path.iterdir()) == []


def test_train_is_byte_identical_across_hash_seeds(workdir, tmp_path):
    # string hashing is salted per process; no artifact may depend on it
    src = Path(cli.__file__).resolve().parent.parent
    artifacts = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        out.mkdir()
        argv = _train_argv(workdir, out)
        proc = subprocess.run(
            [sys.executable, "-m", "embseg", *argv],
            cwd=out, env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        artifacts.append([(out / name).read_bytes() for name in ("dict.tsv", "emb.txt", "sim.bin")])
    assert artifacts[0] == artifacts[1]


def test_dictionary_without_boundary_markers_is_named_before_decoding(tmp_path, monkeypatch):
    lex = Lexicon(("a", "b"), (3, 2))
    lex.save(str(tmp_path / "dict.tsv"))
    save_embeddings(str(tmp_path / "emb.txt"), lex, np.array([[0.5, 1.0], [1.0, 0.25]]))
    (tmp_path / "raw.txt").write_text("ab\n", encoding="utf-8")
    monkeypatch.setattr(cli, "segment_sentence", _refuse("decoded a line"))
    rc, out, err = _run([
        "segment", "--input", str(tmp_path / "raw.txt"), "--dict", str(tmp_path / "dict.tsv"),
        "--emb", str(tmp_path / "emb.txt"), "--out", str(tmp_path / "seg.txt"),
    ])
    assert (rc, out, err) == (1, "", f"error: {tmp_path / 'dict.tsv'}: no {BOS} entry; re-run train\n")
    assert not (tmp_path / "seg.txt").exists()
