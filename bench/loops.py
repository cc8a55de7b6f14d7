"""The three workloads: closed-loop CLI rounds with one client.

One process calls jointkern.cli.main(argv) in-process, captures stdout, and
only starts the next invocation when the previous one has returned and its
output has been checked. Each invocation is timed on its own; the checks
run outside the timed span. A run repeats rounds until its time is up.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import os
import random
import statistics
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import genmodels
import refcheck
from refcheck import ROUND_TRIP, RefModel, same

FIXTURES = ("chain", "weighted", "normal", "uniform2x", "inputs")
# closed forms of E[w * y]: weighted.json keeps y=1 with P = 0.5*0.2 + 0.5*0.7
# and weighs it by 2; uniform2x.json has x ~ U(0, 2) weighted by 2x, so E = 8/3
SPW_EXACT = {"weighted": 0.9, "uniform2x": 8.0 / 3.0}
# the benchmark's own spw bound; the CLI audit uses 3 standard errors and so
# fails one honest run in 370, which is reported but not counted as wrong
SPW_SIGMAS = 5.0


@dataclass(frozen=True)
class Sizes:
    chain_n: int = 160
    fixture_records: int = 100
    spw_n: int = 2000
    dags: int = 8
    cf_records: int = 3
    ladder: tuple = (20, 40, 80, 160, 320, 640, 1280)
    # seconds spent timing each per-layer call in the traced run
    call_budget: float = 0.15


FULL = Sizes()
TINY = Sizes(chain_n=8, fixture_records=4, spw_n=1000, dags=2, cf_records=2,
             ladder=(10, 20, 40), call_budget=0.005)


@dataclass
class Call:
    kind: str
    records: int
    seconds: float
    at: float  # perf_counter at the middle of the call
    slot: tuple = ()  # the same place in every round: command, model and size


# The host's speed drifts by up to 2x over tens of seconds, and all Python
# code in the process slows by about the same factor. So every timed call is
# scaled by a fixed piece of work, the host unit, timed next to it:
#     reported seconds = measured seconds * HOST_UNIT_NOMINAL / unit time,
# the unit time being the mean of the unit timings just before and after the
# call. HOST_UNIT_NOMINAL is about the unit's median time on the 2-core Xeon
# VM the baseline in README.md was taken on; unscaled rates are printed too.
HOST_UNIT_NOMINAL = 0.0015
HOST_UNIT_EVERY = 0.1


class Runner:
    """Times CLI invocations and tallies checked operations."""

    def __init__(self, jk, work: str):
        self.jk = jk
        self.work = work
        self.calls: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.notes = Counter()
        self.units: list = []
        self.unit_times: list = []
        self.unit_at = -math.inf
        self.unit_model = RefModel(*genmodels.chain_model(40, 0))

    def host_unit(self):
        """Pure-Python work with no jointkern code: a closure-built chain like
        the kernels', and the reference interpreter sampling a short chain."""
        def compose(f, g):
            return lambda v: g(f(v))

        chain = lambda v: v  # noqa: E731
        for i in range(200):
            chain = compose(chain, lambda v, i=i: (v[0] * 0.5 + i, v[1]))
        v = (0.0, 1)
        for _ in range(8):
            v = chain(v)
        for j in range(2):
            self.unit_model.sample(0, j)

    def tick(self):
        """Time the host unit if HOST_UNIT_EVERY has passed since the last."""
        if time.perf_counter() - self.unit_at >= HOST_UNIT_EVERY:
            t0 = time.perf_counter()
            self.host_unit()
            self.unit_at = time.perf_counter()
            self.unit_times.append((t0 + self.unit_at) / 2)
            self.units.append(self.unit_at - t0)

    def timed(self, kind: str, records: int, fn) -> Call:
        """Run fn between two host-unit ticks; returns its Call."""
        self.tick()
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        self.tick()
        return Call(kind, records, t1 - t0, (t0 + t1) / 2)

    def scaled(self, call: Call) -> float:
        """The call's seconds at the nominal host speed."""
        i = bisect.bisect(self.unit_times, call.at)
        near = self.units[max(i - 1, 0):i + 1]
        return call.seconds * HOST_UNIT_NOMINAL * len(near) / sum(near)

    def invoke(self, argv):
        """(exit code or crash text, stdout, stderr) of one CLI call."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.jk.cli.main(argv)
        except Exception as e:  # noqa: BLE001 - a crash is a failed operation
            code = f"{type(e).__name__}: {e}"
        return code, out.getvalue(), err.getvalue()

    def op(self, kind, argv, records, check, codes=(0,)):
        """One timed invocation whose output check(code, stdout) must hold."""
        result = []
        call = self.timed(kind, records, lambda: result.extend(self.invoke(argv)))
        call.slot = (kind, argv[0], argv[1], records)
        self.calls.append(call)
        code, out, err = result
        try:
            ok = code in codes and check(code, out)
        except Exception as e:  # noqa: BLE001 - output the check cannot read is wrong
            ok, err = False, f"{err} unreadable output: {type(e).__name__}: {e}"
        self.verdict(ok, f"{' '.join(argv)}: exit {code} {err.strip()[:300]}")
        return out

    def verdict(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _lines(out: str) -> list:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _check_samples(ref, seed, inputs=(), do=None):
    def check(code, out):
        recs = _lines(out)
        for i, rec in enumerate(recs):
            trace, outs = ref.sample(seed, i, inputs, do)
            if not (same(rec["trace"], trace) and same(rec["output"], refcheck.nest(outs))
                    and same(rec["logpdf"], ref.log_density(trace, inputs, do))):
                return False
        return bool(recs)
    return check


def _check_logpdf(recs, ref, inputs=(), do=None):
    """Bit-for-bit equal to the sample records' logpdf, and to the reference."""
    def check(code, out):
        got = [float(x) for x in out.split()]
        return len(got) == len(recs) and all(
            g == r["logpdf"] and same(g, ref.log_density(r["trace"], inputs, do))
            for g, r in zip(got, recs))
    return check


def _check_abduct(recs, ref, inputs=(), do=None):
    """The reference replay of the abducted u reproduces each trace."""
    def check(code, out):
        us = _lines(out)
        return len(us) == len(recs) and all(
            same(ref.replay(u, inputs, do)[0], r["trace"], ROUND_TRIP)
            for u, r in zip(us, recs))
    return check


def _check_cf(us, ref, inputs=(), do=None, want=None, tol=refcheck.CLOSE):
    """cf records equal the reference replay (or the given records)."""
    def check(code, out):
        got = _lines(out)
        if len(got) != len(us):
            return False
        for i, (g, u) in enumerate(zip(got, us)):
            if want is not None:
                trace, output = want[i]["trace"], want[i]["output"]
            else:
                trace, outs = ref.replay(u, inputs, do)
                output = refcheck.nest(outs)
            if not (same(g["trace"], trace, tol) and same(g["output"], output, tol)):
                return False
        return True
    return check


def _set_arg(box, value) -> str:
    return f"{box}={json.dumps(value)}"


class Workload:
    """Model set-up plus one round of invocations."""

    name = ""
    probe_every = 1  # rounds between spw probes on the weighted fixtures

    def __init__(self, root: str, runner: Runner, sizes: Sizes, seed: int):
        self.root, self.runner, self.sizes, self.seed = root, runner, sizes, seed
        self.models: dict = {}  # name -> (path, raw, RefModel)
        self.fixture("weighted")
        self.fixture("uniform2x")
        self.setups: list = []  # Calls of set-up repetitions

    def fixture(self, name: str):
        path = os.path.join(self.root, "tests", "models", name + ".json")
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        self.models[name] = (path, raw, RefModel(raw, refcheck.FIXTURE_EXPRS))

    def generated(self, name: str, raw, exprs):
        path = genmodels.write_model(raw, self.runner.work, name)
        self.models[name] = (path, raw, RefModel(raw, exprs))

    def setup_once(self):
        """Parse, validate and compile every model of the workload."""
        jk = self.runner.jk
        for path, _, _ in self.models.values():
            m = jk.model.parse_model(path)
            jk.interpret.evaluate(m.diagram, m.interpretation)

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}-{self.seed}-{r}")

    def spw(self, name: str, n: int, seed: int):
        path, _, ref = self.models[name]
        argv = ["spw", path, "--n", str(n), "--seed", str(seed)]
        if name == "uniform2x":
            argv += ["--ref", repr(SPW_EXACT[name])]
        est, se = refcheck.spw_estimate(ref, n, seed)

        def check(code, out):
            row, = json.loads(out)
            audit = abs(row["estimate"] - row["reference"]) <= 3.0 * row["stderr"]
            if not audit:
                self.runner.notes["spw audits failed at 3 stderr"] += 1
            return (same(row["reference"], SPW_EXACT[name]) and same(row["estimate"], est)
                    and same(row["stderr"], se) and row["pass"] == audit
                    and code == (0 if audit else 1)
                    and abs(est - SPW_EXACT[name]) <= SPW_SIGMAS * se)

        self.runner.op("spw", argv, n, check, codes=(0, 1))

    def probe(self, r: int, rng: random.Random):
        if r % self.probe_every == 0:
            name = ("weighted", "uniform2x")[(r // self.probe_every) % 2]
            self.spw(name, 1000, rng.getrandbits(40))

    def sample_logpdf_abduct(self, name, n, seed, inputs=(), do=None):
        """sample, logpdf and abduct on one model; returns (records, u text)."""
        path, _, ref = self.models[name]
        run = self.runner
        extra = ["--input", json.dumps(inputs[0])] if inputs else []
        out = run.op("sample", _argv(path, do, "sample", ["--n", str(n), "--seed", str(seed)] + extra),
                     n, _check_samples(ref, seed, inputs, do))
        recs = _lines(out)
        traces = run.write(f"{name}.traces.jsonl", out)
        run.op("logpdf", _argv(path, do, "logpdf", ["--trace", traces] + extra),
               len(recs), _check_logpdf(recs, ref, inputs, do))
        out = run.op("abduct", _argv(path, do, "abduct", ["--trace", traces] + extra),
                     len(recs), _check_abduct(recs, ref, inputs, do))
        return recs, out

    def rerun_check(self, argv):
        """Two same-seed sample runs must be byte-identical."""
        a = self.runner.invoke(argv)
        b = self.runner.invoke(argv)
        self.runner.verdict(a[0] == 0 and a[1] == b[1] and a[1] != "",
                            f"{' '.join(argv)}: reruns differ")


def _argv(path: str, do: dict | None, sub: str, rest: list) -> list:
    """`sub path rest`, or `do path --set b=v ... sub rest` under an intervention."""
    if not do:
        return [sub, path] + rest
    sets = []
    for box, v in do.items():
        sets += ["--set", _set_arg(box, v)]
    return ["do", path] + sets + [sub] + rest


class DeepChain(Workload):
    """sample -> logpdf -> abduct -> cf --set root=c on a 160-box chain."""

    name = "deep_chain"

    def __init__(self, *a):
        super().__init__(*a)
        raw, exprs = genmodels.chain_model(self.sizes.chain_n, self.seed)
        self.generated("chain_n", raw, exprs)
        self.main = ["chain_n"]

    def round(self, r: int):
        rng = self.rng(r)
        path, _, ref = self.models["chain_n"]
        seed, c = rng.getrandbits(40), round(rng.uniform(-2.0, 2.0), 6)
        if r == 0:
            self.rerun_check(["sample", path, "--n", "1", "--seed", str(seed)])
        _, u_text = self.sample_logpdf_abduct("chain_n", 1, seed)
        us = _lines(u_text)
        upath = self.runner.write("chain_n.u.jsonl", u_text)
        self.runner.op("cf", ["cf", path, "--u", upath, "--set", _set_arg("root", c)], len(us),
                       _check_cf(us, ref, do={"root": c}))
        self.probe(r, rng)


class FixtureRecords(Workload):
    """Many records over the small fixture models, plus spw on both weighted ones."""

    name = "fixture_records"

    def __init__(self, *a):
        super().__init__(*a)
        for name in FIXTURES:
            if name not in self.models:
                self.fixture(name)
        self.main = list(FIXTURES)

    def round(self, r: int):
        rng = self.rng(r)
        run, n = self.runner, self.sizes.fixture_records
        for name in FIXTURES:
            path, raw, ref = self.models[name]
            seed = rng.getrandbits(40)
            inputs = (rng.randint(0, 1),) if raw["diagram"]["inputs"] else ()
            extra = ["--input", json.dumps(inputs[0])] if inputs else []
            if r == 0:
                self.rerun_check(["sample", path, "--n", str(n), "--seed", str(seed)] + extra)
            recs, u_text = self.sample_logpdf_abduct(name, n, seed, inputs)
            us = _lines(u_text)
            upath = run.write(f"{name}.u.jsonl", u_text)
            run.op("cf", ["cf", path, "--u", upath] + extra, len(us),
                   _check_cf(us, ref, inputs, want=recs, tol=ROUND_TRIP))
            box = ref.order[0]
            do = {box: genmodels.intervention_value(raw, box, rng)}
            run.op("cf", _argv(path, do, "cf", ["--u", upath] + extra), len(us),
                   _check_cf(us, ref, inputs, do))
        for name in ("weighted", "uniform2x"):
            self.spw(name, self.sizes.spw_n, rng.getrandbits(40))


class DoSweep(Workload):
    """Short validate / do-sample / do-logpdf / do-abduct / cf --set calls on DAGs."""

    name = "do_sweep"
    probe_every = 20

    def __init__(self, *a):
        super().__init__(*a)
        self.dags = []
        for i in range(self.sizes.dags):
            raw, exprs = genmodels.layered_dag(self.seed, i)
            self.generated(f"dag{i}", raw, exprs)
            self.dags.append(f"dag{i}")
        self.main = self.dags

    def round(self, r: int):
        rng = self.rng(r)
        run = self.runner
        name = self.dags[r % len(self.dags)]
        path, raw, ref = self.models[name]
        box = rng.choice(genmodels.dag_roots(raw))
        do = {box: genmodels.intervention_value(raw, box, rng)}
        run.op("validate", ["validate", path], 0, lambda code, out: out == "OK\n")
        seed = rng.getrandbits(40)
        if r == 0:
            self.rerun_check(_argv(path, do, "sample", ["--n", "1", "--seed", str(seed)]))
        self.sample_logpdf_abduct(name, 1, seed, do=do)
        boxes = [b for b in ref.order if b not in do and "primitive" in ref.entry[b]]
        us = [{b: [(rng.getrandbits(52) + 0.5) * 2.0 ** -52] for b in boxes}
              for _ in range(self.sizes.cf_records)]
        upath = run.write(f"{name}.u.jsonl", "".join(json.dumps(u) + "\n" for u in us))
        sets = ["--set", _set_arg(box, do[box])]
        run.op("cf", ["cf", path, "--u", upath] + sets, len(us), _check_cf(us, ref, do=do))
        self.probe(r, rng)


WORKLOADS = {w.name: w for w in (DeepChain, FixtureRecords, DoSweep)}


def play(workload: Workload, seconds: float | None = None, rounds: int | None = None,
         setup_share: float = 0.0) -> int:
    """Run rounds until the time or the round count is used up; returns rounds.

    With setup_share > 0, a round starts with one set-up repetition whenever
    set-up has so far taken less than that share of the elapsed time, so the
    repetitions spread over the whole run.
    """
    t0 = time.perf_counter()
    t_end = t0 + (seconds or 0.0)
    r = 0
    while (rounds is None or r < rounds) and (rounds is not None or time.perf_counter() < t_end):
        if setup_share and sum(c.seconds for c in workload.setups) <= setup_share * (
                time.perf_counter() - t0):
            workload.setups.append(workload.runner.timed("setup", 0, workload.setup_once))
        try:
            workload.round(r)
        except Exception as e:  # noqa: BLE001 - a round cut short is a failed operation
            workload.runner.verdict(False, f"round {r} aborted: {type(e).__name__}: {e}")
        r += 1
    return r


def rates(calls: list, seconds_of) -> dict:
    """Records (or spw samples) per second of each subcommand.

    Each slot of a round contributes its median time, so a slow stretch of
    the machine shifts the result only if it covers half the run.
    """
    times = {}
    for c in calls:
        times.setdefault(c.slot, []).append(seconds_of(c))
    recs, secs = Counter(), Counter()
    for (kind, _, _, records), ts in times.items():
        recs[kind] += records
        secs[kind] += statistics.median(ts)
    return {k: recs[k] / secs[k] for k in secs if recs[k]}


def latency_quantiles(calls: list, seconds_of) -> tuple:
    """(p50 ms, p90 ms, count) over every timed invocation."""
    ms = [seconds_of(c) * 1e3 for c in calls]
    q = statistics.quantiles(ms, n=10, method="inclusive")
    return statistics.median(ms), q[8], len(ms)
