"""The traced run: per-layer numbers for one workload.

Three sources, all timed from the benchmark's own files:

* spans: every public function of each jointkern module is wrapped while
  the workload's rounds are replayed, so a call records its time, and its
  self time (time minus the spans it caused), under "<module>.<function>".
  Spans are aggregated in memory as they close; the rounds are first run
  untraced so the tracing overhead can be reported.
* calls into each layer's public functions on the workload's own models,
  timed in batches, median of the batches.
* the chain ladder: per-record sample and logpdf time for chains of N
  boxes, N doubling from 20, past the depth at which the closure-built
  kernel overflows the Python stack. A failing N counts in
  interpret.ladder_failures and caps interpret.max_chain_n.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

import genmodels
import loops
import refcheck

PRIMITIVES = ("bernoulli", "categorical", "normal", "exponential", "uniform", "poisson")

# name -> unit; the per_layer list of BENCHMARK.json
PER_LAYER = {
    "rng.unit_uniform_us": "us",
    "rng.share": "frac",
    "rng.draws_per_record": "count",
    **{f"primitives.{p}.{op}_us": "us"
       for p in PRIMITIVES for op in ("pushforward", "log_density", "abduct")},
    "expr.eval_us": "us",
    "expr.parse_check_us": "us",
    "spaces.check_member_us": "us",
    "diagrams.validate_ms": "ms",
    "interpret.evaluate_ms": "ms",
    "interpret.sample_slope": "slope",
    "interpret.logpdf_slope": "slope",
    "interpret.max_chain_n": "count",
    "interpret.ladder_failures": "count",
    "interpret.wire_values_us": "us",
    "kernels.sample_with_trace_ms": "ms",
    "kernels.joint_log_density_ms": "ms",
    "kernels.replay_with_uniforms_ms": "ms",
    "causal.intervene_ms": "ms",
    "causal.abduct_trace_ms": "ms",
    "causal.counterfactual_ms": "ms",
    "weighted.log_weight_us": "us",
    "weighted.enumeration_ms": "ms",
    "weighted.zero_weight_frac": "frac",
    "model.parse_model_ms": "ms",
    "model.render_json_us": "us",
    "model.value_from_jsonable_us": "us",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "frac",
}


# value packing called inside the kernel closures at every routing step, about
# a million times a run; spans on them would double the traced run's time
UNTRACED = {"spaces.nest_values", "spaces.unnest_values", "spaces.nest_product"}


class Tracer:
    """Span totals, self times and counts, keyed by span name."""

    def __init__(self):
        self.stack: list = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = Counter()
        self.zero_weights = 0

    def wrap(self, name: str, fn):
        stack = self.stack

        def span(*args, **kwargs):
            if stack and stack[-1][0] is name:  # recursion stays inside one span
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                self.count[name] += 1
                if stack:
                    stack[-1][1] += dt

        return span

    def install(self, jk):
        """Wrap every public module function wherever jointkern binds it."""
        originals = {}
        for short in jk.names:
            mod = getattr(jk, short)
            for attr in getattr(mod, "__all__", dir(mod)):
                fn = getattr(mod, attr, None)
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__ and f"{short}.{attr}" not in UNTRACED):
                    originals[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname == "jointkern" or modname.startswith("jointkern."):
                for attr, val in list(vars(mod).items()):
                    if isinstance(val, types.FunctionType) and id(val) in originals:
                        setattr(mod, attr, originals[id(val)][1])
                        patched.append((mod, attr, val))
        wk = jk.weighted.WeightedJointKernel
        log_weight = wk.log_weight
        traced = self.wrap("weighted.log_weight", log_weight)

        def counted(*args):
            lw = traced(*args)
            self.zero_weights += lw == -math.inf
            return lw

        wk.log_weight = counted
        patched.append((wk, "log_weight", log_weight))
        return patched

    @staticmethod
    def uninstall(patched):
        for owner, attr, val in reversed(patched):
            setattr(owner, attr, val)


def per_call(fn, budget: float) -> float:
    """Seconds per call: median over batches sized to the budget."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    n = max(1, int(budget / 5 / max(first, 1e-7)))
    reps = 5 if 5 * first <= 2 * budget else 2
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def traced_metrics(jk, wl, seconds: float) -> dict:
    out = {}
    out.update(_spans(jk, wl, seconds))
    out.update(_calls(jk, wl))
    out.update(_ladder(jk, wl.sizes.ladder, wl.seed, wl.runner))
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    return {k: {"value": float(out[k]), "unit": PER_LAYER[k]} for k in PER_LAYER}


def _spans(jk, wl, seconds: float) -> dict:
    """Replay the untraced rounds with every layer traced."""
    runner = wl.runner
    rounds = loops.play(wl, seconds=seconds / 3)
    plain = sum(runner.scaled(c) for c in runner.calls)
    first_traced = len(runner.calls)
    tracer = Tracer()
    patched = tracer.install(jk)
    try:
        loops.play(wl, rounds=rounds)
    finally:
        Tracer.uninstall(patched)
    calls = runner.calls[first_traced:]
    traced = sum(runner.scaled(c) for c in calls)
    invocations = tracer.total["cli.main"]
    rng_self = sum(v for k, v in tracer.self_time.items() if k.startswith("rng."))
    top = sorted(tracer.self_time.items(), key=lambda kv: -kv[1])[:12]
    for name, s in top:
        runner.notes[f"self time {name}"] = f"{s / invocations:.1%} over {tracer.count[name]} spans"
    return {
        "trace.overhead_frac": traced / plain - 1.0,
        "rng.share": rng_self / invocations,
        "cli.self_ms": 1e3 * tracer.self_time["cli.main"] / tracer.count["cli.main"],
        "weighted.zero_weight_frac":
            tracer.zero_weights / max(tracer.count["weighted.log_weight"], 1),
    }


@dataclasses.dataclass
class _Case:
    """One model of the workload, parsed, with one sampled record."""

    raw: dict
    path: str
    ref: object
    model: object
    z: object
    trace: dict
    output: object
    u: dict
    wires: dict


def _case(jk, path, raw, ref, seed) -> _Case:
    m = jk.model.parse_model(path)
    z = jk.spaces.UNIT_VALUE
    if raw["diagram"]["inputs"]:
        z = jk.model.value_from_jsonable(m.input_space, 1)
    k = jk.interpret.evaluate(m.diagram, m.interpretation)
    t, x = jk.kernels.sample_with_trace(k, z, seed)
    u = jk.causal.abduct_trace(m.diagram, m.interpretation, z, t)
    wires = jk.interpret.wire_values(m.diagram, m.interpretation, z, t)
    return _Case(raw, path, ref, m, z, t, x, u, wires)


def _expressions(jk, case: _Case):
    """(text, slot values, slot spaces, expected space) per expression use."""
    raw, m = case.raw, case.model
    d = raw["diagram"]
    spaces = m.interpretation.wire_spaces
    real = jk.spaces.Real(1)
    seen = set()
    for b, lab in d["boxes"].items():
        entry = raw["interpretation"][lab]
        slots = list(d["dom"][b])
        texts = []
        if "det" in entry:
            det = entry["det"]
            for text, w in zip([det] if isinstance(det, str) else det, d["cod"][b]):
                texts.append((text, spaces[d["wires"][w]]))
        for v in entry.get("params", {}).values():
            for q in v if isinstance(v, list) else [v]:
                if isinstance(q, str):
                    texts.append((q, real))
        for text, expected in texts:
            if text not in seen:
                seen.add(text)
                yield text, [case.wires[w] for w in slots], \
                    [spaces[d["wires"][w]] for w in slots], expected
    for b, text in raw.get("weights", {}).items():
        slots = list(d["dom"][b]) + list(d["cod"][b])
        yield text, [case.wires[w] for w in slots], \
            [spaces[d["wires"][w]] for w in slots], real


def _calls(jk, wl) -> dict:
    seed, budget = wl.seed, wl.sizes.call_budget
    cases = [_case(jk, *wl.models[n], seed) for n in wl.main]
    out = {}
    ms, us = 1e3, 1e6
    K, C, I, M = jk.kernels, jk.causal, jk.interpret, jk.model

    def each(fn, scale):
        return _mean(per_call(lambda c=c: fn(c), budget) * scale for c in cases)

    out["kernels.sample_with_trace_ms"] = each(
        lambda c: K.sample_with_trace(c.model.kernel, c.z, seed + 1), ms)
    out["kernels.joint_log_density_ms"] = each(
        lambda c: K.joint_log_density(c.model.kernel, c.z, c.trace), ms)
    out["kernels.replay_with_uniforms_ms"] = each(
        lambda c: K.replay_with_uniforms(c.model.kernel, c.z, c.u), ms)
    dos = {}
    rng = random.Random(f"layers-{seed}")
    for c in cases:
        box = c.ref.order[0]  # a root, as in the workloads' --set
        value = genmodels.intervention_value(c.raw, box, rng)
        sig = c.raw["diagram"]["boxes"][box]
        space = c.model.interpretation.space_of(c.model.signature.cod[sig])
        dos[c.path] = {sig: M.value_from_jsonable(space, value)}
    out["causal.intervene_ms"] = each(
        lambda c: C.intervene(c.model.diagram, c.model.interpretation, dos[c.path]), ms)
    out["causal.abduct_trace_ms"] = each(
        lambda c: C.abduct_trace(c.model.diagram, c.model.interpretation, c.z, c.trace), ms)
    out["causal.counterfactual_ms"] = each(
        lambda c: C.counterfactual(c.model.diagram, c.model.interpretation, dos[c.path], c.u, c.z), ms)
    out["interpret.evaluate_ms"] = each(
        lambda c: I.evaluate(dataclasses.replace(c.model.diagram), c.model.interpretation), ms)
    out["interpret.wire_values_us"] = each(
        lambda c: I.wire_values(c.model.diagram, c.model.interpretation, c.z, c.trace), us)
    out["diagrams.validate_ms"] = each(
        lambda c: (jk.diagrams.validate_cd(c.model.diagram), jk.diagrams.validate_markov(c.model.diagram)), ms)
    out["model.parse_model_ms"] = each(lambda c: M.parse_model(c.path), ms)

    records = {c.path: {"trace": {b: M.value_to_jsonable(v) for b, v in c.trace.items()},
                        "output": M.value_to_jsonable(c.output),
                        "logpdf": K.joint_log_density(c.model.kernel, c.z, c.trace)}
               for c in cases}
    out["model.render_json_us"] = each(lambda c: M.render_json(records[c.path]), us)
    trace_spaces = {c.path: {b.box_id: b.primitive.cod for b in c.model.kernel.boxes} for c in cases}
    jsonable = {c.path: {b: M.value_to_jsonable(v) for b, v in c.trace.items()} for c in cases}
    out["model.value_from_jsonable_us"] = each(
        lambda c: [M.value_from_jsonable(trace_spaces[c.path][b], j)
                   for b, j in jsonable[c.path].items()], us)
    members = [(trace_spaces[c.path][b], v) for c in cases for b, v in c.trace.items()]
    out["spaces.check_member_us"] = us * per_call(
        lambda: [jk.spaces.check_member(s, v) for s, v in members], budget) / len(members)

    exprs = [e for c in cases for e in _expressions(jk, c)]
    E = jk.expr
    asts = [(E.parse_expression(t), slots) for t, slots, _, _ in exprs]
    out["expr.eval_us"] = us * per_call(
        lambda: [E.evaluate_expression(a, s) for a, s in asts], budget) / len(asts)
    out["expr.parse_check_us"] = us * per_call(
        lambda: [E.check_expression(E.parse_expression(t), sp, ex) for t, _, sp, ex in exprs], budget) / len(exprs)

    out.update(_primitives(jk, wl, cases, budget))
    out.update(_weighted(jk, wl, budget))
    out["rng.unit_uniform_us"] = us * per_call(
        lambda: [jk.rng.unit_uniform(seed, "b1", j) for j in range(100)], budget) / 100
    out["rng.draws_per_record"] = _mean(_draws(jk, c, seed) for c in cases)
    return out


def _draws(jk, case: _Case, seed: int) -> int:
    """Uniforms drawn to sample one record of the case's model."""
    rng = jk.rng
    unit_uniform, drawn = rng.unit_uniform, [0]

    def counted(*args):
        drawn[0] += 1
        return unit_uniform(*args)

    rng.unit_uniform = counted
    try:
        jk.kernels.sample_with_trace(case.model.kernel, case.z, seed)
    finally:
        rng.unit_uniform = unit_uniform
    return drawn[0]


def _primitives(jk, wl, cases, budget) -> dict:
    """Each parametric built-in at the first box that uses it.

    Boxes come from the workload's models; kinds they lack are taken from a
    layered DAG of the same seed, which uses every kind.
    """
    found = {}
    for c in cases:
        _scan(jk, c, found)
    if len(found) < len(PRIMITIVES):
        raw, exprs = genmodels.layered_dag(wl.seed, 0)
        path = genmodels.write_model(raw, wl.runner.work, "layers_dag")
        _scan(jk, _case(jk, path, raw, refcheck.RefModel(raw, exprs), wl.seed), found)
    out = {}
    for kind, (prim, z, m, u) in found.items():
        out[f"primitives.{kind}.pushforward_us"] = 1e6 * per_call(lambda: prim.pushforward(u, z), budget)
        out[f"primitives.{kind}.log_density_us"] = 1e6 * per_call(lambda: prim.log_density(z, m), budget)
        out[f"primitives.{kind}.abduct_us"] = 1e6 * per_call(lambda: prim.abduct(z, m), budget)
    return out


def _scan(jk, case: _Case, found: dict):
    raw, m = case.raw, case.model
    d = raw["diagram"]
    for b in m.kernel.boxes:
        kind = raw["interpretation"][d["boxes"][b.box_id]].get("primitive")
        if kind in found or kind not in PRIMITIVES:
            continue
        z = jk.spaces.nest_values([case.wires[w] for w in d["dom"][b.box_id]])
        found[kind] = (b.primitive, z, case.trace[b.box_id], case.u[b.box_id])


def _weighted(jk, wl, budget) -> dict:
    """log_weight on both weighted fixtures; enumeration on weighted.json."""
    out, times = {}, []
    W, S = jk.weighted, jk.spaces
    for name in ("weighted", "uniform2x"):
        m = jk.model.parse_model(wl.models[name][0])
        wk = m.weighted_kernel()
        t, _ = jk.kernels.sample_with_trace(wk.base, S.UNIT_VALUE, wl.seed)
        times.append(per_call(lambda: wk.log_weight(t, S.UNIT_VALUE), budget))
        if name == "weighted":
            h = jk.expr.compile_det_map(["$0"], [S.Finite(2)], [S.Real(1)])
            out["weighted.enumeration_ms"] = 1e3 * per_call(
                lambda: W.expected_value_by_enumeration(wk, S.UNIT_VALUE, h), budget)
    out["weighted.log_weight_us"] = 1e6 * _mean(times)
    return out


def _ladder(jk, sizes, seed, runner) -> dict:
    """Per-record sample and logpdf time against chain length N."""
    ok_n, t_sample, t_logpdf, failures = [], [], [], 0
    for n in sizes:
        raw, _ = genmodels.chain_model(n, seed)
        reps = 3 if n <= 160 else 1
        try:
            k = jk.model.model_from_dict(raw).kernel
            z = jk.spaces.UNIT_VALUE
            ts, tl = [], []
            for i in range(reps):
                t0 = time.perf_counter()
                t, _ = jk.kernels.sample_with_trace(k, z, seed + i)
                t1 = time.perf_counter()
                jk.kernels.joint_log_density(k, z, t)
                ts.append(t1 - t0)
                tl.append(time.perf_counter() - t1)
        except RecursionError as e:
            failures += 1
            runner.notes[f"chain ladder N={n}"] = f"RecursionError: {e}"
            continue
        ok_n.append(n)
        t_sample.append(statistics.median(ts))
        t_logpdf.append(statistics.median(tl))
        runner.notes[f"chain ladder N={n}"] = (
            f"sample {1e3 * t_sample[-1]:.3f} ms, logpdf {1e3 * t_logpdf[-1]:.3f} ms")
    x = np.log(ok_n)
    return {
        "interpret.sample_slope": float(np.polyfit(x, np.log(t_sample), 1)[0]),
        "interpret.logpdf_slope": float(np.polyfit(x, np.log(t_logpdf), 1)[0]),
        "interpret.max_chain_n": max(ok_n),
        "interpret.ladder_failures": failures,
    }
