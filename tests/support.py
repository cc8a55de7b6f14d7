"""Shared builders for the test suite: reference models, random kernels,
random diagrams, generated weighted model files, and three independent
oracles: a brute-force Chapman-Kolmogorov compositor, enumerate_traces,
which walks every trace of a finite kernel, and gc_by_rescans, which
garbage-collects a diagram by rescanning its boxes to a fixed point."""

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
    Real,
    ShapeError,
    TracedBox,
    bernoulli,
    categorical,
    check_member,
    compile_det_map,
    finite_points,
    from_primitive,
    is_finite_space,
    marginal_pmf_finite,
    model_from_dict,
)
from jointkern.kernels import _exact_factor


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


def enumerate_traces(k, z):
    """All positive-probability traces of a finite kernel at input z, each
    with its exact probability, the product of _exact_factor over its
    boxes: the oracle of the library's elimination. Checks the input, then
    that every box is finite. Traces come in depth-first order over the
    boxes, each box's points in order; the search keeps an explicit stack,
    so depth is not bounded by recursion."""
    check_member(k.dom, z, "kernel input")
    for b in k.boxes:
        if not is_finite_space(b.primitive.cod):
            raise ShapeError(f"box {b.box_id} has non-finite codomain {b.primitive.cod!r}")
    steps = k.steps
    slots = [None] * k.n_slots
    slots[0] = z
    t: dict = {}

    def branches(j: int, before: Fraction):
        """Set box j to each of its positive points in turn; yield the
        path probability so far."""
        box_id, p, src, dst, read = steps[j]
        pt = p.point(slots[src] if read is None else read(slots))
        for m in finite_points(p.cod):
            f = _exact_factor(p, pt, m)
            if f != 0:
                t[box_id] = slots[dst] = m
                yield before * f

    # (next step index, branches of the box before it) per box on the path.
    # Every slot is written by one step, so rerunning the steps after a box
    # refreshes everything downstream of it; a full path sets every box, so
    # stale trace entries from other paths are always overwritten.
    stack = []
    i, prob = 0, Fraction(1)
    while True:
        while i < len(steps) and type(steps[i]) is not TracedBox:
            steps[i].run(slots)
            i += 1
        if i == len(steps):
            yield dict(t), prob
        else:
            stack.append((i + 1, branches(i, prob)))
        while stack:
            i, frame = stack[-1]
            prob = next(frame, None)
            if prob is not None:
                break
            stack.pop()
        else:
            return


def gc_by_rescans(d: Diagram) -> Diagram:
    """The oracle of gc_fixpoint: rescan the live boxes, deleting every box
    none of whose outputs the output leg or a live box reads, until a scan
    deletes nothing; then drop the wires no leg or live box references."""
    g = d.graph
    alive = set(g.boxes)
    while True:
        consumed = set(d.outputs)
        for b in alive:
            consumed.update(g.dom[b])
        doomed = {b for b in alive if not any(w in consumed for w in g.cod[b])}
        if not doomed:
            break
        alive -= doomed

    boxes = tuple(b for b in g.boxes if b in alive)
    referenced = set(d.inputs) | set(d.outputs)
    for b in boxes:
        referenced.update(g.dom[b])
        referenced.update(g.cod[b])
    wires = tuple(w for w in g.wires if w in referenced)
    graph = Hypergraph(wires, boxes,
                       {b: g.dom[b] for b in boxes},
                       {b: g.cod[b] for b in boxes})
    labeling = HypMorphism({w: d.wire_label[w] for w in wires},
                           {b: d.box_label[b] for b in boxes})
    return Diagram(graph, d.signature, labeling, d.inputs, d.outputs)


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


def outcome(run):
    """run's result, or the class and message of what it raised."""
    try:
        return run()
    except Exception as e:  # noqa: BLE001 - the class and message are compared
        return type(e), str(e)


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


# ---------------------------------------------------------------------------
# generated weighted model files: every family, det boxes of one to three
# outputs, a coproduct wire read by case, weights and global inputs

SPACES = {"B": {"finite": 2}, "K": {"finite": 3}, "N": "countable", "R": {"real": 1},
          "C": {"coproduct": [{"finite": 2}, {"real": 1}]}}
INPUT_VALUES = {"B": 1, "R": 0.5}

# per output type: primitive entries whose expressions read $0, any numeric
# input; each parameter stays in its family's range for every input value
PRIMITIVES = {
    "B": [{"primitive": "bernoulli", "params": {"p": 0.3}},
          {"primitive": "bernoulli", "params": {"p": "if $0 < 1 then 0.2 else 0.7"}},
          {"primitive": "bernoulli", "params": {"p": "min(max($0 * 0.25, 0.0), 1.0)"}}],
    "K": [{"primitive": "categorical", "params": {"probs": [0.2, 0.3, 0.5]}},
          {"primitive": "categorical",
           "params": {"probs": ["if $0 < 1 then 0.1 else 0.6", 0.3,
                                "if $0 < 1 then 0.6 else 0.1"]}}],
    "N": [{"primitive": "poisson", "params": {"rate": "1.0 + min(max($0, 0.0), 4.0)"}},
          {"primitive": "poisson", "params": {"rate": 2.5}},
          {"primitive": "dirac_countable", "params": {"value": 3}}],
    "R": [{"primitive": "normal", "params": {"mu": "$0 * 0.5 - 1.0", "sigma": 2.0}},
          {"primitive": "normal", "params": {"mu": 0.25, "sigma": "1.0 + $0 * $0"}},
          {"primitive": "uniform", "params": {"a": "neg(1.0) + $0", "b": "$0 + 3.0"}},
          {"primitive": "uniform", "params": {"a": -1.0, "b": 2.0}},
          {"primitive": "uniform01"},
          {"primitive": "exponential", "params": {"rate": "exp(neg(min(max($0, 0.0), 3.0)))"}},
          {"primitive": "exponential", "params": {"rate": 1.5}}],
}

# det outputs over $0 and $1 (both numeric): (output type, expression)
DET = [("R", "$0 * 2.0 - $1"), ("R", "if $0 < $1 then $0 else $1 / 2.0"),
       ("R", "ln(1.0 + $0 * $0)"), ("R", "exp(min($0, 3.0)) + max($0, $1)"),
       ("B", "if $0 < $1 then 1 else 0"), ("R", "($0, $1 * 1.0).1 + ($1, $0).0")]
INT_DET = [("N", "$0 * $1 + 2"), ("N", "max($0, $1) - min($0, $1)"),
           ("K", "if $0 < 1 then 2 else 0")]
# a coproduct wire, made by one det box and read by the next alone
TAGGED = ("if $0 < $1 then inl(1) else inr($1 * 1.0)", "case $0 of inl x => x * 2.0 | inr y => y")

# weights over $0..$k-1 (numeric): each is finite and nonnegative
WEIGHTS = ["$0 * $0 + 0.5", "if $0 < {last} then 0.0 else 2.0", "exp(neg(min($0 * $0, 4.0)))",
           "max({last}, 0.0) + 0.25", "1.0 / (1.0 + $0 * $0)", "2"]
TESTS = ["$0", "$0 * 2.0 + 1.0", "if $0 < 1 then 1.0 else 0.0", "{last} - $0", "min($0, {last})"]


def generated_model(seed: int, finite: bool = False):
    """(raw model, its input value or None, its number of outputs) drawn
    from seed; finite, every primitive box has a finite codomain, so the
    model has an exact reference."""
    rnd = random.Random(seed)
    wires, boxes, sig, interp, dom, cod, weights = {}, {}, {}, {}, {}, {}, {}
    inputs = [f"i{j}" for j in range(rnd.choice([0, 0, 1, 2]))]
    for w in inputs:
        wires[w] = rnd.choice(["B", "R"])
    for b in range(rnd.randint(3, 6)):
        name, known = f"b{b}", [w for w in wires if wires[w] != "C"]
        ins = rnd.sample(known, min(len(known), rnd.choice([0, 1, 2, 2])))
        if len(ins) == 2 and rnd.random() < 0.25:
            made, read = f"t{b}", f"w{b}_0"
            wires[made], wires[read] = "C", "R"
            sig[name] = {"dom": [wires[w] for w in ins], "cod": ["C"]}
            sig[name + "r"] = {"dom": ["C"], "cod": ["R"]}
            interp[name], interp[name + "r"] = {"det": TAGGED[0]}, {"det": TAGGED[1]}
            boxes[name], dom[name], cod[name] = name, ins, [made]
            boxes[name + "r"], dom[name + "r"], cod[name + "r"] = name + "r", [made], [read]
            continue
        if len(ins) == 2 and rnd.random() < 0.6:
            ints = all(wires[w] != "R" for w in ins)
            outs = [rnd.choice(DET + INT_DET if ints else DET) for _ in range(rnd.randint(1, 3))]
            entry = {"det": [e for _, e in outs]}
            out_types = [t for t, _ in outs]
        else:
            t = rnd.choice(["B", "K"] if finite else ["B", "K", "N", "R", "R"])
            entry = rnd.choice([e for e in PRIMITIVES[t] if ins or "$" not in str(e)])
            out_types = [t]
        outs = [f"w{b}_{j}" for j in range(len(out_types))]
        wires.update(zip(outs, out_types))
        sig[name] = {"dom": [wires[w] for w in ins], "cod": out_types}
        interp[name], boxes[name], dom[name], cod[name] = entry, name, ins, outs
        if rnd.random() < 0.6:
            last = f"${len(ins) + len(outs) - 1}"
            weights[name] = rnd.choice(WEIGHTS).format(last=last)
    # every box output is read onward: the output leg takes those no box
    # reads, and maybe one that some box does
    read = {w for ws in dom.values() for w in ws}
    produced = [w for w in wires if w not in inputs and wires[w] != "C"]
    outputs = [w for w in produced if w not in read]
    outputs += [w for w in rnd.sample(produced, 1) if w not in outputs]
    raw = {
        "version": 1,
        "signature": {"wires": {t: {"space": sp} for t, sp in SPACES.items()},
                      "boxes": sig},
        "diagram": {"wires": wires, "boxes": boxes, "dom": dom, "cod": cod,
                    "inputs": inputs, "outputs": outputs},
        "interpretation": interp,
        "weights": weights,
    }
    z = None
    if inputs:
        values = [INPUT_VALUES[wires[w]] for w in inputs]
        z = values[0] if len(values) == 1 else tuple(values)
    return raw, z, len(outputs)


def audit_parts(raw, z, n_out, count: int):
    m = model_from_dict(raw)
    spaces = [m.interpretation.wire_spaces[m.diagram.wire_label[w]] for w in m.diagram.outputs]
    texts = [t.format(last=f"${n_out - 1}") for t in TESTS[:count]]
    hs = [compile_det_map([t], spaces, [Real(1)]) for t in texts]
    return m.weighted_kernel(), hs, 0 if z is None else z
