"""The traced bench wraps embseg names by attribute lookup, and a name that
is gone only blanks the metrics it feeds.  Installing its probe here turns
such a rename or deletion into a test failure, and a tiny traced `train`
turns a renamed sample field into one too."""
import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np

from embseg.synth import corrupt, default_language, generate_corpus

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_bench_hook_resolves(monkeypatch, tmp_path):
    # importing the bench pins BLAS threads through the environment, puts
    # src/ on sys.path and imports its sibling modules; all is undone below
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    added = {spec.name, "workloads", "spans"} - set(sys.modules)
    sys.modules[spec.name] = run  # its dataclasses look the module up there
    try:
        spec.loader.exec_module(run)
        tracer = run.Tracer()
        probe = run.LayerProbe(tracer, str(tmp_path / "sim.bin"))
        probe.install()
        try:
            assert tracer.missing == []
            assert tracer._patches
            # the probe counts samples by their label and source fields
            lang = default_language()
            corpus = tmp_path / "corpus.txt"
            corpus.write_text("".join(" ".join(s) + "\n" for s in corrupt(
                lang, generate_corpus(lang, 100, np.random.default_rng(4)), keep_every=3)), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = run.embseg.cli.main([
                    "train", "--corpus", str(corpus), "--dict", str(tmp_path / "dict.tsv"),
                    "--emb", str(tmp_path / "emb.txt"), "--no-cache", "--dim", "8", "--seed", "1",
                ])
            assert rc == 0
            summary = json.loads(out.getvalue())
            assert probe.batches > 0
            assert probe.batches == len(tracer.durations("sampler.batch"))
            assert sum(probe.channels.values()) == summary["samples"]
            assert set(probe.channels) == {"ctx_pos", "ctx_neg", "inword_neg", "noise_neg"}
        finally:
            tracer.restore()
    finally:
        for name in added:
            sys.modules.pop(name, None)
