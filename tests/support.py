"""Shared builders for the test suite: reference models, random kernels,
random diagrams, and a brute-force Chapman-Kolmogorov compositor used as an
independent oracle."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import jointkern.rng as rng
from jointkern import (
    Diagram,
    Hypergraph,
    HypMorphism,
    Interpretation,
    Finite,
    Product,
    bernoulli,
    categorical,
    from_primitive,
    marginal_pmf_finite,
)


# ---------------------------------------------------------------------------
# the two-box chain: flip ~ bern(0.5), step ~ bern(0.2 / 0.7 given flip)


def chain_diagram() -> Diagram:
    sig = Hypergraph(
        wires=("B",),
        boxes=("flip", "step"),
        dom={"flip": (), "step": ("B",)},
        cod={"flip": ("B",), "step": ("B",)},
    )
    graph = Hypergraph(
        wires=("x", "y"),
        boxes=("b1", "b2"),
        dom={"b1": (), "b2": ("x",)},
        cod={"b1": ("x",), "b2": ("y",)},
    )
    lab = HypMorphism(
        wire_map={"x": "B", "y": "B"},
        box_map={"b1": "flip", "b2": "step"},
    )
    return Diagram(graph=graph, signature=sig, labeling=lab, inputs=(), outputs=("y",))


def chain_interpretation() -> Interpretation:
    two = Finite(2)
    return Interpretation(
        wire_spaces={"B": two},
        box_kernels={
            "flip": from_primitive(bernoulli(0.5), "flip"),
            "step": from_primitive(
                bernoulli(lambda x: 0.2 if x < 1 else 0.7, dom=two), "step"),
        },
        residual_labels={"flip": ("B",), "step": ("B",)},
    )


def chain_parts():
    return chain_diagram(), chain_interpretation()


# ---------------------------------------------------------------------------
# four-box battery: two roots, one mediator, one collider-free sink
#
#   r1 -> m -> s   and   r2 -> s   ;   outputs (r2's wire, s's wire)
# r2 is a non-descendant of r1, so do(r1 := c) must leave its marginal alone.


def fourbox_parts():
    two, three = Finite(2), Finite(3)
    sig = Hypergraph(
        wires=("B", "T"),
        boxes=("root2", "root3", "med", "sink"),
        dom={"root2": (), "root3": (), "med": ("B",), "sink": ("B", "T")},
        cod={"root2": ("B",), "root3": ("T",), "med": ("B",), "sink": ("B",)},
    )
    graph = Hypergraph(
        wires=("a", "c", "m", "s"),
        boxes=("g1", "g2", "g3", "g4"),
        dom={"g1": (), "g2": (), "g3": ("a",), "g4": ("m", "c")},
        cod={"g1": ("a",), "g2": ("c",), "g3": ("m",), "g4": ("s",)},
    )
    lab = HypMorphism(
        wire_map={"a": "B", "c": "T", "m": "B", "s": "B"},
        box_map={"g1": "root2", "g2": "root3", "g3": "med", "g4": "sink"},
    )
    d = Diagram(graph=graph, signature=sig, labeling=lab,
                inputs=(), outputs=("c", "s"))

    def med_p(a):
        return 0.15 if a < 1 else 0.85

    def sink_p(v):
        m, c = v
        return min(0.95, 0.05 + 0.3 * m + 0.2 * c)

    interp = Interpretation(
        wire_spaces={"B": two, "T": three},
        box_kernels={
            "root2": from_primitive(bernoulli(0.4), "root2"),
            "root3": from_primitive(categorical([0.5, 0.3, 0.2], size=3), "root3"),
            "med": from_primitive(bernoulli(med_p, dom=two), "med"),
            "sink": from_primitive(bernoulli(sink_p, dom=Product(two, three)), "sink"),
        },
        residual_labels={"root2": ("B",), "root3": ("T",),
                         "med": ("B",), "sink": ("B",)},
    )
    return d, interp


# ---------------------------------------------------------------------------
# random finite kernels and the independent composition oracle


def random_probs(rng: random.Random, n: int) -> list:
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    return [r / total for r in raw] if total != 0 else [1.0 / n] * n


def random_finite_kernel(rng: random.Random, dom_size: int, cod_size: int, box_id: str):
    """A categorical kernel Finite(dom) -> Finite(cod) with a random row per
    input point. dom_size 1 means an unconditioned distribution."""
    dom = Finite(dom_size)
    rows = {z: random_probs(rng, cod_size) for z in range(dom_size)}
    probs = [(lambda z, _j=j: rows[z][_j]) for j in range(cod_size)]
    if dom_size == 1:
        return from_primitive(categorical(rows[0], size=cod_size), box_id)
    return from_primitive(categorical(probs, dom=dom, size=cod_size), box_id)


def kernel_matrix(k, dom_size: int) -> dict:
    """Rows of exact marginals, an independent view used by the CK oracle."""
    return {z: marginal_pmf_finite(k, z if dom_size > 1 else 0)
            for z in range(dom_size)}


def ck_composite(rows_a: dict, rows_b: dict) -> dict:
    """Chapman-Kolmogorov composition of two marginal tables by enumeration."""
    out = {}
    for z, row in rows_a.items():
        acc = {}
        for x, p in row.items():
            for y, q in rows_b[x].items():
                acc[y] = acc.get(y, Fraction(0)) + p * q
        out[z] = acc
    return out


# ---------------------------------------------------------------------------
# random single-output diagrams for the free-category batteries


def random_dag_diagram(rng: random.Random, n_boxes: int, sig: Hypergraph,
                       prefix: str = "n") -> Diagram:
    """A random acyclic diagram over a one-wire-type signature whose boxes
    all have one output. Every wire is consumed downstream or exported, so
    the result validates in Markov mode."""
    wires = [f"{prefix}w{i}" for i in range(n_boxes)]
    boxes = [f"{prefix}b{i}" for i in range(n_boxes)]
    dom, cod, labels = {}, {}, {}
    for i in range(n_boxes):
        avail = wires[:i]
        k = 0 if not avail else rng.randint(0, min(2, len(avail)))
        parents = rng.sample(avail, k)
        dom[boxes[i]] = tuple(parents)
        cod[boxes[i]] = (wires[i],)
        labels[boxes[i]] = {0: "src", 1: "f1", 2: "f2"}[k]
    graph = Hypergraph(wires=tuple(wires), boxes=tuple(boxes), dom=dom, cod=cod)
    consumed = {w for b in boxes for w in dom[b]}
    outputs = tuple(w for w in wires if w not in consumed)
    lab = HypMorphism(wire_map={w: "B" for w in wires},
                      box_map=labels)
    return Diagram(graph=graph, signature=sig, labeling=lab,
                   inputs=(), outputs=outputs)


def dag_signature() -> Hypergraph:
    return Hypergraph(
        wires=("B",),
        boxes=("src", "f1", "f2"),
        dom={"src": (), "f1": ("B",), "f2": ("B", "B")},
        cod={"src": ("B",), "f1": ("B",), "f2": ("B",)},
    )


def random_dag_with_inputs(rng: random.Random, n_in: int, n_boxes: int,
                           sig: Hypergraph, prefix: str) -> Diagram:
    """Like random_dag_diagram but with n_in dangling-in boundary wires that
    boxes may consume; every box output is consumed downstream or exported."""
    wires = [f"{prefix}i{j}" for j in range(n_in)]
    boxes = []
    dom, cod, labels = {}, {}, {}
    for i in range(n_boxes):
        b = f"{prefix}b{i}"
        k = rng.randint(0, min(2, len(wires)))
        parents = rng.sample(wires, k)
        w = f"{prefix}w{i}"
        dom[b] = tuple(parents)
        cod[b] = (w,)
        labels[b] = {0: "src", 1: "f1", 2: "f2"}[k]
        wires.append(w)
        boxes.append(b)
    graph = Hypergraph(tuple(wires), tuple(boxes), dom, cod)
    consumed = {w for b in boxes for w in dom[b]}
    produced = {w for b in boxes for w in cod[b]}
    outputs = tuple(w for w in wires if w in produced and w not in consumed)
    if not outputs:
        # export something so downstream composition has a boundary to glue
        outputs = tuple(wires[-1:]) if wires else ()
    lab = HypMorphism({w: "B" for w in wires}, labels)
    return Diagram(graph=graph, signature=sig, labeling=lab,
                   inputs=tuple(f"{prefix}i{j}" for j in range(n_in)),
                   outputs=outputs)


# ---------------------------------------------------------------------------
# the benchmark's seeded model generators


def genmodels():
    """bench/genmodels.py, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "bench" / "genmodels.py"
    spec = importlib.util.spec_from_file_location("genmodels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_calls(monkeypatch, owner, name: str) -> list:
    """Count every call of owner.name from here on (a module's function or a
    class's method); returns the one-element counter."""
    calls, fn = [0], getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_draws(monkeypatch) -> list:
    """Count every uniform drawn from here on: the cells, seed keys times box
    keys, of each call of rng.unit_uniforms, the choke point of every seeded
    draw; returns the one-element counter."""
    cells, fn = [0], rng.unit_uniforms

    def counted(seeds, keys):
        cells[0] += len(seeds) * len(keys)
        return fn(seeds, keys)

    monkeypatch.setattr(rng, "unit_uniforms", counted)
    return cells
