#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py [--workloads toy-decode,web-oov] [--seeds 1-10] [--trace 0]

Runs bench/run.py once per workload and seed, one run at a time, with the
run_seconds of BENCHMARK.json (all workloads of BENCHMARK.json by
default).  Each run's line shows its metrics, split_precision,
error_rate, the run's median host probe reading and the run's elapsed
time.  For each metric it prints the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, next to the metric's bound.  A spread wider than a third of
its bound is flagged, except for setup_s, which is only compared median
to median.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", help="comma-separated; default: all of BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in names:
        ok &= spread(workload, seed_list(args.seeds), args.trace, spec)
    return 0 if ok else 1


def spread(workload: str, seeds: list[int], trace: int, spec: dict) -> bool:
    metrics = spec["per_layer" if trace else "end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    ok = True
    for seed in seeds:
        cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            ok = False
            continue
        record = json.loads((ROOT / "bench" / "out" /
                             f"{workload}-seed{seed}-trace{trace}.json").read_text())
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = {n: f"{m['value']:.6g} {m['unit']}" for n, m in result["metrics"].items()}
        shown.update({k: f"{v:.6g}" for k, v in record["quality"].items() if k not in shown})
        shown["error_rate"] = f"{record['error_rate']:.6g} ({result['failed']}/{result['attempted']})"
        if "probe_ms_median" in record["info"]:
            shown["probe_ms_median"] = f"{record['info']['probe_ms_median']:.3g}"
        shown["elapsed"] = f"{elapsed:.1f} s"
        print(f"{workload} seed {seed}: " + ", ".join(f"{n}={v}" for n, v in shown.items()),
              flush=True)
    print(f"\n{workload}: {'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for m in metrics:
        vals = values.get(m["name"], [])
        if len(vals) < 2:
            print(f"{workload}: {m['name']:26s} (fewer than two values)")
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread_ = (q3 - q1) / med if med else float("inf")
        bound = m.get("bound")
        flag = ""
        if bound is not None and m["name"] != "setup_s" and spread_ >= bound / 3:
            flag = "  <-- wider than bound/3"
        print(f"{workload}: {m['name']:26s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread_:8.4f} {bound if bound is not None else '':>6}{flag}")
    print(flush=True)
    return ok


if __name__ == "__main__":
    sys.exit(main())
