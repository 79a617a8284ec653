"""End-to-end checks of the command-line pipeline."""
import contextlib
import io
import json

import numpy as np
import pytest

from embseg.cli import main
from embseg.synth import corrupt, default_language, generate_corpus


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
    base = corrupt(lang, gold, keep_every=3)
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
    assert (workdir / "dict.tsv").exists()
    assert (workdir / "emb.txt").exists()
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
    rc, _, _ = _run(args + ["--no-cache", "--out", str(workdir / "nocache.txt")])
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
    assert isinstance(summary["seed"], int)  # time-seeded but echoed


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
    for line in lines[:200]:
        target, other, label, source, weight = line.split("\t")
        assert label in ("positive", "negative")
        assert source in ("ctx_pos", "ctx_neg", "inword_neg", "noise_neg")
        float(weight)


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
        "--seed", "1",
    ])
    assert rc == 0
    rc, _, err = _run([
        "segment",
        "--input", str(workdir / "raw.txt"),
        "--dict", str(workdir / "dict.tsv"),
        "--emb", str(tmp_path / "mini_emb.txt"),
        "--no-cache",
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
        "--no-cache",
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
