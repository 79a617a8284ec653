"""The traced bench wraps embseg names by attribute lookup, and a name that
is gone only blanks the metrics it feeds.  Installing its probe here turns
such a rename or deletion into a test failure."""
import importlib.util
import sys
from pathlib import Path

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
        run.LayerProbe(tracer, str(tmp_path / "sim.bin")).install()
        try:
            assert tracer.missing == []
            assert tracer._patches
        finally:
            tracer.restore()
    finally:
        for name in added:
            sys.modules.pop(name, None)
