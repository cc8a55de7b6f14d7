"""Seeded model generators for the benchmark workloads.

Each generator takes the workload seed and returns the model as a dict in
the jointkern model-file schema, together with a table mapping every
expression string the model uses to a plain Python function of the slot
values. The reference interpreter in refcheck.py evaluates models through
that table, so the checks never run jointkern's expression or kernel code.

Why these models:

* chain_model (deep_chain): a linear-Gaussian chain of N normal boxes, each
  reading only its predecessor. Per-record cost of the nested-closure kernel
  grows as O(N^2) while rng work grows as O(N), so this is the workload on
  which a flat compiled kernel shows. The root has its own generator so
  `cf --set root=c` can intervene on it, and the counterfactual has the
  closed form w_i = 0.9 * w_{i-1} + ndtri(u_i).
* layered_dag (do_sweep): a small DAG, 4 layers of 4 boxes with fan-in 2,
  mixing all six parametric primitives with det boxes. Its boxes are cheap,
  so short CLI invocations on it are dominated by parse, validation and
  compile; its live wire list is wide, so routing and keep-wires are
  exercised. Every root has its own generator so it can be intervened on.
"""

from __future__ import annotations

import json
import os
import random

CHAIN_COEF = 0.9


def chain_model(n: int, seed: int):
    """A chain root -> s1 -> ... -> s{n-1} of n normal boxes."""
    rng = random.Random(f"chain-{seed}")
    root_mu = round(rng.uniform(-1.0, 1.0), 6)
    wires = {"w0": "R"}
    boxes = {"root": "root"}
    dom = {"root": []}
    cod = {"root": ["w0"]}
    for i in range(1, n):
        wires[f"w{i}"] = "R"
        boxes[f"s{i}"] = "step"
        dom[f"s{i}"] = [f"w{i - 1}"]
        cod[f"s{i}"] = [f"w{i}"]
    raw = {
        "version": 1,
        "signature": {
            "wires": {"R": {"space": {"real": 1}}},
            "boxes": {
                "root": {"dom": [], "cod": ["R"]},
                "step": {"dom": ["R"], "cod": ["R"]},
            },
        },
        "diagram": {
            "wires": wires, "boxes": boxes, "dom": dom, "cod": cod,
            "inputs": [], "outputs": [f"w{n - 1}"],
        },
        "interpretation": {
            "root": {"primitive": "normal", "params": {"mu": root_mu, "sigma": 1.0}},
            "step": {"primitive": "normal",
                     "params": {"mu": f"{CHAIN_COEF} * $0", "sigma": 1.0}},
        },
    }
    exprs = {f"{CHAIN_COEF} * $0": lambda a: CHAIN_COEF * a[0]}
    return raw, exprs


# primitive kind of each column, per layer; every parametric built-in appears
_ROOT_KINDS = ("normal", "uniform", "exponential", "normal")
_MID_KINDS = (("normal", "det", "exponential", "det"),
              ("det", "normal", "det", "exponential"))
_LEAF_KINDS = ("bernoulli", "categorical", "poisson", "normal")
_LEAF_SPACE = {"bernoulli": "B", "categorical": "C", "poisson": "N", "normal": "R"}


def _coef(rng) -> float:
    return round(rng.uniform(0.1, 0.9), 3)


def _root_entry(kind: str, rng):
    if kind == "normal":
        return {"primitive": "normal", "params": {
            "mu": round(rng.uniform(-1.0, 1.0), 3), "sigma": round(rng.uniform(0.5, 2.0), 3)}}
    if kind == "uniform":
        a = round(rng.uniform(-1.0, 0.0), 3)
        return {"primitive": "uniform", "params": {"a": a, "b": round(a + rng.uniform(1.0, 3.0), 3)}}
    return {"primitive": "exponential", "params": {"rate": round(rng.uniform(0.5, 2.0), 3)}}


def _mid_entry(kind: str, rng, exprs: dict):
    a, b = _coef(rng), _coef(rng)
    if kind == "normal":
        text = f"{a} * $0 + {b} * $1"
        exprs[text] = lambda s, a=a, b=b: a * s[0] + b * s[1]
        return {"primitive": "normal", "params": {"mu": text, "sigma": round(rng.uniform(0.5, 1.5), 3)}}
    if kind == "exponential":
        # the rate stays in [0.5, 2.5], so samples stay bounded downstream
        text = f"0.5 + min(max({a} * $0 * $1, 0.0), 2.0)"
        exprs[text] = lambda s, a=a: 0.5 + min(max(a * s[0] * s[1], 0.0), 2.0)
        return {"primitive": "exponential", "params": {"rate": text}}
    text = f"max($0, $1) - {a} * min($0, $1)"
    exprs[text] = lambda s, a=a: max(s[0], s[1]) - a * min(s[0], s[1])
    return {"det": text}


def _leaf_entry(kind: str, rng, exprs: dict):
    if kind == "bernoulli":
        p, q = round(rng.uniform(0.05, 0.95), 3), round(rng.uniform(0.05, 0.95), 3)
        text = f"if $0 < $1 then {p} else {q}"
        exprs[text] = lambda s, p=p, q=q: p if s[0] < s[1] else q
        return {"primitive": "bernoulli", "params": {"p": text}}
    if kind == "categorical":
        lo = "if $0 < $1 then 0.2 else 0.5"
        hi = "if $0 < $1 then 0.5 else 0.2"
        exprs[lo] = lambda s: 0.2 if s[0] < s[1] else 0.5
        exprs[hi] = lambda s: 0.5 if s[0] < s[1] else 0.2
        return {"primitive": "categorical", "params": {"probs": [lo, 0.3, hi]}}
    if kind == "poisson":
        a = _coef(rng)
        text = f"0.5 + min(max({a} * ($0 + $1), 0.0), 4.0)"
        exprs[text] = lambda s, a=a: 0.5 + min(max(a * (s[0] + s[1]), 0.0), 4.0)
        return {"primitive": "poisson", "params": {"rate": text}}
    text = "$0 - $1"
    exprs[text] = lambda s: s[0] - s[1]
    return {"primitive": "normal", "params": {"mu": text, "sigma": 1.0}}


def layered_dag(seed: int, index: int = 0):
    """A 4-layer, 4-wide DAG; parents and parameters come from the seed.

    Box j of a layer reads columns j and j+k (mod 4) of the layer before,
    with k in {1, 2, 3} drawn per layer, so every wire is consumed and the
    diagram passes the no-discard rule.
    """
    rng = random.Random(f"dag-{seed}-{index}")
    width = 4
    exprs: dict = {}
    sig_boxes, wires, boxes, dom, cod, interp = {}, {}, {}, {}, {}, {}

    def add(layer, col, entry, parents, space):
        name = f"L{layer}_{col}"
        wire = f"x{layer}_{col}"
        sig_boxes[name] = {"dom": ["R"] * len(parents), "cod": [space]}
        wires[wire] = space
        boxes[name] = name
        dom[name] = parents
        cod[name] = [wire]
        interp[name] = entry

    for col, kind in enumerate(_ROOT_KINDS):
        add(0, col, _root_entry(kind, rng), [], "R")
    for layer, kinds in enumerate(_MID_KINDS + (_LEAF_KINDS,), start=1):
        k = rng.randint(1, width - 1)
        for col, kind in enumerate(kinds):
            parents = [f"x{layer - 1}_{col}", f"x{layer - 1}_{(col + k) % width}"]
            if layer == len(_MID_KINDS) + 1:
                add(layer, col, _leaf_entry(kind, rng, exprs), parents, _LEAF_SPACE[kind])
            else:
                add(layer, col, _mid_entry(kind, rng, exprs), parents, "R")
    last = len(_MID_KINDS) + 1
    raw = {
        "version": 1,
        "signature": {
            "wires": {
                "R": {"space": {"real": 1}}, "B": {"space": {"finite": 2}},
                "C": {"space": {"finite": 3}}, "N": {"space": "countable"},
            },
            "boxes": sig_boxes,
        },
        "diagram": {
            "wires": wires, "boxes": boxes, "dom": dom, "cod": cod,
            "inputs": [], "outputs": [f"x{last}_{c}" for c in range(width)],
        },
        "interpretation": interp,
    }
    return raw, exprs


def dag_roots(raw) -> list:
    """Graph boxes without inputs; each has its own generator."""
    return [b for b, ws in raw["diagram"]["dom"].items() if not ws]


def intervention_value(raw, box: str, rng: random.Random):
    """A value inside the support of graph box `box`, for `--set box=value`."""
    entry = raw["interpretation"][raw["diagram"]["boxes"][box]]
    params = entry["params"]
    if entry["primitive"] == "bernoulli":
        return rng.randint(0, 1)
    if entry["primitive"] == "uniform":
        return round(rng.uniform(params["a"], params["b"]), 6)
    if entry["primitive"] == "exponential":
        return round(rng.uniform(0.05, 3.0), 6)
    return round(rng.uniform(-2.0, 2.0), 6)


def write_model(raw, directory: str, name: str) -> str:
    path = os.path.join(directory, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1, sort_keys=True)
    return path
