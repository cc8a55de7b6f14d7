"""Independent reference for checking the CLI's outputs.

Nothing here imports jointkern. The counter-based uniforms are recomputed
from their definition (sha256 of seed, box id and slot), each primitive's
inverse CDF and log-density are written out directly, and a model is run by
a small interpreter over its JSON with every expression looked up in a table
of Python functions (see genmodels.py and FIXTURE_EXPRS below).
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
from scipy.special import ndtri

_SEP = "\x1f"
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# expressions of the fixture models under tests/models
FIXTURE_EXPRS = {
    "if $0 < 1 then 0.2 else 0.7": lambda s: 0.2 if s[0] < 1 else 0.7,
    "if $1 < 1 then 0.0 else 2.0": lambda s: 0.0 if s[1] < 1 else 2.0,
    "2.0 * $0": lambda s: 2.0 * s[0],
}

# tolerances: same arithmetic in another order; and a round trip through
# ndtr/ndtri, which loses digits in the upper normal tail
CLOSE = 1e-9
ROUND_TRIP = 1e-6


def unit_uniform(seed: int, box_id: str, slot: int) -> float:
    digest = hashlib.sha256(f"{seed}{_SEP}{box_id}{_SEP}{slot}".encode()).digest()
    return (int.from_bytes(digest[:8], "big") >> 11) * 2.0 ** -53


def derive_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}{_SEP}{index}".encode()).digest()
    return int.from_bytes(digest[8:16], "big") >> 1


def _cumulative(probs) -> list:
    qs = [Fraction(repr(float(q))) for q in probs]
    total = sum(qs)
    acc, out = Fraction(0), []
    for q in qs:
        acc += q / total
        out.append(float(acc))
    return out


def _poisson_terms(rate):
    term, j = math.exp(-rate), 0
    while True:
        yield j, term
        j += 1
        term *= rate / j


def pushforward(kind: str, p: dict, u: float):
    if kind == "normal":
        return p["mu"] + p["sigma"] * float(ndtri(u))
    if kind == "uniform":
        return p["a"] + u * (p["b"] - p["a"])
    if kind == "exponential":
        return -math.log1p(-u) / p["rate"]
    if kind == "bernoulli":
        return 1 if u < p["p"] else 0
    if kind == "categorical":
        cum = _cumulative(p["probs"])
        return next(i for i, c in enumerate(cum) if u < c)
    if kind == "poisson":
        acc = 0.0
        for j, term in _poisson_terms(p["rate"]):
            acc += term
            if u < acc:
                return j
    raise ValueError(f"no reference for primitive {kind!r}")


def log_density(kind: str, p: dict, m) -> float:
    if kind == "normal":
        r = (m - p["mu"]) / p["sigma"]
        return -0.5 * r * r - math.log(p["sigma"]) - _HALF_LOG_TWO_PI
    if kind == "uniform":
        return -math.log(p["b"] - p["a"]) if p["a"] <= m <= p["b"] else -math.inf
    if kind == "exponential":
        return math.log(p["rate"]) - p["rate"] * m if m >= 0 else -math.inf
    if kind == "bernoulli":
        q = p["p"] if m == 1 else 1.0 - p["p"]
        return math.log(q) if q > 0 else -math.inf
    if kind == "categorical":
        qs = [Fraction(repr(float(q))) for q in p["probs"]]
        q = qs[m] / sum(qs)
        return math.log(float(q)) if q > 0 else -math.inf
    if kind == "poisson":
        return m * math.log(p["rate"]) - p["rate"] - math.lgamma(m + 1)
    raise ValueError(f"no reference for primitive {kind!r}")


def _topo(dom: dict, cod: dict) -> list:
    producer = {w: b for b, ws in cod.items() for w in ws}
    order, done = [], set()

    def visit(b):
        if b in done:
            return
        done.add(b)
        for w in dom[b]:
            if w in producer:
                visit(producer[w])
        order.append(b)

    for b in sorted(dom):
        visit(b)
    return order


class RefModel:
    """A model file run by the reference interpreter."""

    def __init__(self, raw: dict, exprs: dict):
        d = raw["diagram"]
        self.exprs = exprs
        self.inputs = list(d["inputs"])
        self.outputs = list(d["outputs"])
        self.dom, self.cod = d["dom"], d["cod"]
        self.real = {w: raw["signature"]["wires"][lab]["space"] == {"real": 1}
                     for w, lab in d["wires"].items()}
        self.entry = {b: raw["interpretation"][lab] for b, lab in d["boxes"].items()}
        self.order = _topo(self.dom, self.cod)
        self.weights = dict(raw.get("weights", {}))

    def _value(self, v, slots):
        return self.exprs[v](slots) if isinstance(v, str) else float(v)

    def params(self, box: str, slots) -> dict:
        out = {}
        for k, v in self.entry[box].get("params", {}).items():
            out[k] = [self._value(q, slots) for q in v] if isinstance(v, list) else self._value(v, slots)
        return out

    def _run(self, inputs, choose, do):
        """Walk boxes in order; choose(box, kind, params) gives a draw."""
        wv = dict(zip(self.inputs, inputs))
        trace = {}
        for b in self.order:
            slots = [wv[w] for w in self.dom[b]]
            if b in do:
                outs = [do[b]]
            elif "det" in self.entry[b]:
                texts = self.entry[b]["det"]
                texts = [texts] if isinstance(texts, str) else texts
                outs = [self.exprs[t](slots) for t in texts]
            else:
                kind = self.entry[b]["primitive"]
                trace[b] = choose(b, kind, self.params(b, slots))
                outs = [trace[b]]
            for w, v in zip(self.cod[b], outs):
                wv[w] = float(v) if self.real[w] else v
        return trace, wv

    def replay(self, u: dict, inputs=(), do=None):
        """(trace, output values) at fixed uniforms u[box][0]."""
        trace, wv = self._run(list(inputs), lambda b, k, p: pushforward(k, p, u[b][0]), do or {})
        return trace, [wv[w] for w in self.outputs]

    def sample(self, seed: int, index: int, inputs=(), do=None):
        s = derive_seed(seed, index)
        return self.replay(_SeededU(s), inputs, do)

    def log_density(self, trace: dict, inputs=(), do=None) -> float:
        total = [0.0]

        def observe(b, kind, p):
            total[0] += log_density(kind, p, trace[b])
            return trace[b]

        self._run(list(inputs), observe, do or {})
        return total[0]

    def weight(self, trace: dict, inputs=()) -> float:
        _, wv = self._run(list(inputs), lambda b, k, p: trace[b], {})
        w = 1.0
        for b, text in sorted(self.weights.items()):
            w *= self.exprs[text]([wv[x] for x in self.dom[b] + self.cod[b]])
        return w


class _SeededU(dict):
    """u[box] for one record seed, computed on first use."""

    def __init__(self, seed):
        super().__init__()
        self.seed = seed

    def __missing__(self, box):
        self[box] = (unit_uniform(self.seed, box, 0),)
        return self[box]


def spw_estimate(ref: RefModel, n: int, seed: int, h=lambda out: out[0]):
    """Estimate and standard error of E[w * h] from the same seeded draws."""
    rows = np.empty(n)
    for i in range(n):
        trace, out = ref.sample(seed, i)
        rows[i] = ref.weight(trace) * float(h(out))
    return float(np.mean(rows)), float(np.std(rows, ddof=1) / math.sqrt(n))


def nest(values: list):
    """Left-nested pairs as the CLI writes them."""
    out = values[0]
    for v in values[1:]:
        out = [out, v]
    return out


def same(got, want, tol: float = CLOSE) -> bool:
    """Equal up to tol for reals, exactly for integers and structure."""
    if isinstance(want, (list, tuple)):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same(g, w, tol) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same(got[k], want[k], tol) for k in want))
    if isinstance(want, int) and not isinstance(want, bool):
        return isinstance(got, int) and got == want
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return math.isclose(got, want, rel_tol=tol, abs_tol=tol)
