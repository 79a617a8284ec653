"""The traced bench wraps embseg names by attribute lookup, and a name that
is gone only blanks the metrics it feeds.  Installing its probe here turns
such a rename or deletion into a test failure, and a tiny traced `train`
turns a renamed sample field into one too.  The bench's generated inputs
are pinned by digest, so a change to the synthetic generator that the
bench would see fails here."""
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

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
                lang, generate_corpus(lang, 100, np.random.default_rng(4)))), encoding="utf-8")
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


# sha256 of each workload's inputs at seed 1: train, gold, baseline, split
# targets and check lines, as the JSON list below spells them
_INPUT_DIGESTS = {
    "toy-decode": "1d143f45587193bc93900ae17e5289c431f159d23566ae3045ecb021833183ae",
    "scaled-train": "d051868f9687eb774091551b82e2d5f3c32abb534c3bc30586b313fe6a7810d9",
    "web-oov": "6eea7ed16a36210316adee03eda891e8d3b62fbefd57445432b2e1ce741b20a5",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
        mp.setitem(sys.modules, spec.name, module)  # its dataclass looks the module up there
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("name", sorted(_INPUT_DIGESTS))
def test_bench_inputs_are_pinned(workloads, name):
    w = workloads.make(name, 1)
    blob = json.dumps([w.train, w.gold, w.baseline, list(w.split_targets), w.check_lines],
                      ensure_ascii=False)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == _INPUT_DIGESTS[name]
