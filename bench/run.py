"""jointkern benchmark: CLI throughput per workload, checked against a reference.

    python3 bench/run.py --workload deep_chain --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; jointkern is imported from ./src.
With --trace 0 it prints every end-to-end metric of BENCHMARK.json, with
--trace 1 the per-layer metrics of a separate traced run. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every checked output was correct. See
bench/README.md for what each metric means and which layer moves it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile

import numpy
import scipy

import layers
import loops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MODULES = ("rng", "spaces", "kernels", "primitives", "diagrams", "expr",
           "interpret", "causal", "weighted", "model", "cli")


class Jointkern:
    """The package's modules, imported from the checkout's source tree."""

    def __init__(self, root: str):
        src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(src, "jointkern", "__init__.py")):
            raise SystemExit(f"error: no jointkern sources under {src}")
        if src not in sys.path:
            sys.path.insert(0, src)
        self.names = MODULES
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"jointkern.{name}"))


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None, root: str = ROOT):
    """One benchmark run; returns (result dict, human-readable lines)."""
    sizes = sizes or loops.FULL
    jk = Jointkern(root)
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    try:
        runner = loops.Runner(jk, work)
        wl = loops.WORKLOADS[workload](root, runner, sizes, seed)
        if trace:
            metrics = layers.traced_metrics(jk, wl, seconds)
        else:
            metrics = end_to_end(jk, wl, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [f"{workload} machine nproc={os.cpu_count()} python={platform.python_version()} "
             f"numpy={numpy.__version__} scipy={scipy.__version__}"]
    lines += [f"{workload} {k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"{workload} failed_frac {runner.failed / max(runner.attempted, 1):.6g} "
                 f"({runner.failed} of {runner.attempted} checked operations)")
    lines += [f"{workload} note: {k}: {v}" for k, v in runner.notes.items()]
    lines += [f"{workload} FAILED {e}" for e in runner.errors[:20]]
    result = {"correct": runner.failed == 0 and runner.attempted > 0,
              "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    return result, lines


def end_to_end(jk, wl, seconds: float) -> dict:
    runner = wl.runner
    loops.play(wl, seconds=seconds, setup_share=0.05)
    setup = statistics.median(runner.scaled(c) for c in wl.setups)
    calls = runner.calls
    rate = loops.rates(calls, runner.scaled)
    p50, p90, count = loops.latency_quantiles(calls, runner.scaled)
    notes = runner.notes
    notes["invocations timed"] = count
    notes["set-up repetitions"] = len(wl.setups)
    notes["host unit ms (median, count)"] = (
        f"{1e3 * statistics.median(runner.units):.4f}, {len(runner.units)}")
    for k, v in loops.rates(calls, lambda c: c.seconds).items():
        notes[f"unscaled {k} records/s"] = f"{v:.6g}"
    m = {f"{k}_rps": (rate[k], "1/s") for k in ("sample", "logpdf", "abduct", "cf")}
    m["spw_samples_per_s"] = (rate["spw"], "1/s")
    m["invocation_p50_ms"] = (p50, "ms")
    m["invocation_p90_ms"] = (p90, "ms")
    m["setup_s"] = (setup, "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(loops.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    result, lines = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
