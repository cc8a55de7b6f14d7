"""Diagram syntax: finite hypergraphs, labeled cospans, and their category ops.

A Diagram is a finite acyclic hypergraph whose boxes and wires are labeled
into a signature, together with input and output wire lists (the legs of a
cospan). Well-formedness is checked by validate_cd (acyclic, at most one
starting place per wire, labeling a genuine hypergraph morphism) and
validate_markov (every box output consumed onward). Composition glues
outputs to inputs by union-find and, in Markov mode, deletes every box
whose outputs end up all discarded, in one reference-counting pass.

Diagrams are immutable values: the dataclasses are frozen and their wire
and box tables are read-only maps, and all operations return fresh
diagrams. So a diagram is checked once: Diagram.plan validates it and
orders its boxes on first use and keeps the result, and the kernels that
evaluate compiles from it are cached on it too. The plan walks the boxes
a fixed few times: one Kahn pass, whose order topological_order reuses,
the morphism check, and one index of the wires that the starting-place,
Markov and produced checks read; a cycle's report reads the boxes Kahn
left unordered twice. So validation and composition are linear in the
diagram's size.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Mapping, NamedTuple
from weakref import WeakKeyDictionary

from .errors import DiagramError

__all__ = [
    "Hypergraph", "Signature", "HypMorphism", "Diagram",
    "check_morphism", "validate_cd", "validate_markov",
    "compose_diagrams", "tensor_diagrams", "is_causal_model",
    "topological_order", "gc_fixpoint", "canonical_relabel",
    "diagram_structure", "diagrams_isomorphic", "export_dot",
]


@dataclass(frozen=True)
class Hypergraph:
    """Wires, boxes, and per-box dom/cod wire lists (read-only maps)."""

    wires: tuple
    boxes: tuple
    dom: Mapping
    cod: Mapping

    def __init__(self, wires, boxes, dom, cod):
        object.__setattr__(self, "wires", tuple(wires))
        object.__setattr__(self, "boxes", tuple(boxes))
        object.__setattr__(self, "dom", MappingProxyType({b: tuple(ws) for b, ws in dom.items()}))
        object.__setattr__(self, "cod", MappingProxyType({b: tuple(ws) for b, ws in cod.items()}))
        wire_set = set(self.wires)
        box_set = set(self.boxes)
        if len(wire_set) != len(self.wires):
            raise DiagramError("duplicate wire ids", [])
        if len(box_set) != len(self.boxes):
            raise DiagramError("duplicate box ids", [])
        for name, table in (("dom", self.dom), ("cod", self.cod)):
            if set(table) != box_set:
                raise DiagramError(f"{name} table keys differ from box list", [])
            for b, ws in table.items():
                for w in ws:
                    if w not in wire_set:
                        raise DiagramError(f"box {b!r} {name} uses unknown wire {w!r}", [])


Signature = Hypergraph


@dataclass(frozen=True)
class HypMorphism:
    """Wire map and box map between hypergraphs (read-only maps)."""

    wire_map: Mapping
    box_map: Mapping

    def __init__(self, wire_map, box_map):
        object.__setattr__(self, "wire_map", MappingProxyType(dict(wire_map)))
        object.__setattr__(self, "box_map", MappingProxyType(dict(box_map)))


def check_morphism(src: Hypergraph, dst: Hypergraph, m: HypMorphism) -> list:
    """Violations of m being a hypergraph morphism src -> dst; empty if valid."""
    out = []
    wire_map, box_map = m.wire_map, m.box_map
    dst_wires = set(dst.wires)
    for w in src.wires:
        if w not in wire_map:
            out.append(f"wire {w!r} is unmapped")
        elif wire_map[w] not in dst_wires:
            out.append(f"wire {w!r} maps to unknown wire {wire_map[w]!r}")
    label = wire_map.get
    for b in src.boxes:
        if b not in box_map:
            out.append(f"box {b!r} is unmapped")
            continue
        tb = box_map[b]
        if tb not in dst.dom:
            out.append(f"box {b!r} maps to unknown box {tb!r}")
            continue
        have = tuple(map(label, src.dom[b]))
        if have != dst.dom[tb]:
            out.append(f"box {b!r} dom maps to {have!r} but {tb!r} has {dst.dom[tb]!r}")
        have = tuple(map(label, src.cod[b]))
        if have != dst.cod[tb]:
            out.append(f"box {b!r} cod maps to {have!r} but {tb!r} has {dst.cod[tb]!r}")
    return out


@dataclass(frozen=True, eq=False)
class Diagram:
    """Labeled cospan: inputs -> graph <- outputs over a signature.

    Frozen and hashed by identity. The validation results and compiled
    kernels cached on a diagram live in its instance dict, so
    dataclasses.replace(d) gives an equal diagram with cold caches.
    """

    graph: Hypergraph
    signature: Hypergraph
    labeling: HypMorphism
    inputs: tuple
    outputs: tuple

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))

    @cached_property
    def _sorted(self) -> tuple:
        """(box order, boxes left unordered) from the diagram's one Kahn pass."""
        order, leftover = _kahn(self.graph)
        return tuple(order), leftover

    @cached_property
    def _checked(self) -> tuple:
        """(copy/delete, Markov, never-produced violations) from one wire
        index; each check runs only when the ones before it pass."""
        index = _wire_index(self)
        cd = _cd_violations(self, index, self._sorted[1])
        markov = [] if cd else _markov_violations(self, index)
        unproduced = [] if cd or markov else _unproduced(self, index)
        return cd, markov, unproduced

    @cached_property
    def plan(self) -> tuple:
        """The boxes in topological order (ties by id), after checking that
        this is a valid Markov diagram whose every consumed wire and output
        is produced first. Raises DiagramError otherwise."""
        cd, markov, unproduced = self._checked
        if cd:
            raise DiagramError("diagram is not a valid copy/delete diagram", cd)
        if markov:
            raise DiagramError("diagram is not a valid Markov diagram", markov)
        if unproduced:
            raise DiagramError("diagram has wires that are never produced", unproduced)
        return self._sorted[0]

    @cached_property
    def kernels(self) -> WeakKeyDictionary:
        """Compiled kernels of this diagram per interpretation (see evaluate)."""
        return WeakKeyDictionary()

    @property
    def wire_label(self) -> Mapping:
        return self.labeling.wire_map

    @property
    def box_label(self) -> Mapping:
        return self.labeling.box_map

    def input_types(self) -> tuple:
        return tuple(self.wire_label[w] for w in self.inputs)

    def output_types(self) -> tuple:
        return tuple(self.wire_label[w] for w in self.outputs)


def validate_cd(d: Diagram) -> list:
    """Violations of copy/delete well-formedness; empty means valid.

    Checks leg wires exist, the labeling is a morphism into the signature,
    every wire has at most one starting place, and the box graph is acyclic.
    Computed afresh on every call; Diagram.plan keeps its own result.
    """
    return _cd_violations(d, _wire_index(d), _kahn(d.graph)[1])


class _WireIndex(NamedTuple):
    """The wire sets the checks read, from one pass over legs and boxes."""

    wires: set      # the graph's wires
    starts: list    # starting places: input-leg graph wires, box outputs
    started: set    # the wires in starts
    consumed: set   # the output leg and every box input


def _wire_index(d: Diagram) -> _WireIndex:
    g = d.graph
    wires = set(g.wires)
    starts = [w for w in d.inputs if w in wires]
    starts.extend(chain.from_iterable(g.cod.values()))
    consumed = set(d.outputs)
    consumed.update(chain.from_iterable(g.dom.values()))
    return _WireIndex(wires, starts, set(starts), consumed)


def _cd_violations(d: Diagram, index: _WireIndex, cyclic: list) -> list:
    """validate_cd, given the wire index and the boxes Kahn's algorithm left
    unordered."""
    out = []
    g = d.graph
    for leg, ws in (("input", d.inputs), ("output", d.outputs)):
        for w in ws:
            if w not in index.wires:
                out.append(f"{leg} leg references unknown wire {w!r}")
    out.extend(check_morphism(g, d.signature, d.labeling))

    if len(index.started) < len(index.starts):
        count = Counter(index.starts)
        out.extend(f"wire {w!r} has {count[w]} starting places"
                   for w in g.wires if count[w] > 1)

    if cyclic:
        produced = set(chain.from_iterable(g.cod[b] for b in cyclic))
        wires = sorted(produced.intersection(chain.from_iterable(g.dom[b] for b in cyclic)))
        out.append(f"cycle among boxes {sorted(cyclic)} through wires {wires}")
    return out


def validate_markov(d: Diagram) -> list:
    """Violations of the Markov rule: every box output is consumed onward."""
    return _markov_violations(d, _wire_index(d))


def _markov_violations(d: Diagram, index: _WireIndex) -> list:
    g = d.graph
    consumed = index.consumed
    if consumed.issuperset(chain.from_iterable(g.cod.values())):
        return []
    return [f"output wire {w!r} of box {b!r} is discarded"
            for b in g.boxes for w in g.cod[b] if w not in consumed]


def _unproduced(d: Diagram, index: _WireIndex) -> list:
    """Consumed wires and outputs that nothing produces, on a valid
    copy/delete diagram. There each wire starts at most once and the box
    graph is acyclic, so a wire that starts anywhere starts before its
    consumers in the plan order: produced first means produced at all."""
    started = index.started
    if started.issuperset(index.consumed):
        return []
    g = d.graph
    out = [f"wire {w!r} consumed by box {b!r} is never produced"
           for b in d._sorted[0] for w in g.dom[b] if w not in started]
    out.extend(f"output wire {w!r} is never produced"
               for w in d.outputs if w not in started)
    return out


def is_causal_model(d: Diagram) -> bool:
    """True iff the output leg repeats no wire. Assumes d validates as Markov."""
    return len(set(d.outputs)) == len(d.outputs)


def _kahn(g: Hypergraph):
    """Kahn's algorithm: (box order, boxes left unordered; nonempty iff cyclic).

    A box's predecessors are the first producers of its input wires (itself
    included, which leaves it unordered); ready boxes leave a min-heap, so
    ties go by id. One pass over the boxes finds the producers, and one more
    gives each box its in-degree, each producer its successors and the heap
    its first boxes.
    """
    boxes, dom, cod = g.boxes, g.dom, g.cod
    # later entries win in a dict display, so walking the boxes backwards
    # leaves each wire's first producer
    producer = {w: b for b in reversed(boxes) for w in cod[b]}
    indeg, succ, ready = {}, {}, []
    for b in boxes:
        ws = dom[b]
        if len(ws) == 1:
            c = producer.get(ws[0])
            preds = () if c is None else (c,)
        else:
            preds = {producer[w] for w in ws if w in producer}
        if not preds:
            ready.append(b)
            continue
        indeg[b] = len(preds)
        for c in preds:
            if c in succ:
                succ[c].append(b)
            else:
                succ[c] = [b]
    heapq.heapify(ready)
    order = []
    while ready:
        b = heapq.heappop(ready)
        order.append(b)
        for nxt in succ.get(b, ()):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) == len(boxes):
        return order, []
    return order, [b for b in boxes if indeg.get(b)]


def topological_order(d: Diagram) -> list:
    """Box ids, producers before consumers, ties broken by id order."""
    order, leftover = d._sorted
    if leftover:
        raise DiagramError("diagram has a cycle", [f"cycle among boxes {sorted(leftover)}"])
    return list(order)


def _fresh_ids(ids, taken) -> dict:
    """A fresh name for each of ids: the id itself, else id_2, id_3, ...,
    avoiding taken and the names already given."""
    taken = set(taken)
    out = {}
    for base in ids:
        name, i = base, 2
        while name in taken:
            name, i = f"{base}_{i}", i + 1
        out[base] = name
        taken.add(name)
    return out


def _require_valid(d: Diagram, mode: str, which: str):
    cd, markov, _ = d._checked
    v = cd or (markov if mode == "markov" else [])
    if v:
        raise DiagramError(f"{which} fails {mode} validation", v)


def compose_diagrams(d1: Diagram, d2: Diagram, mode: str = "markov") -> Diagram:
    """Glue d1's outputs to d2's inputs; Markov mode garbage-collects.

    mode is "cd" or "markov". Requires equal signatures, matching arity and
    boundary types, and both diagrams valid in the given mode. In Markov
    mode, boxes all of whose outputs end up discarded are deleted (see
    gc_fixpoint), then unreferenced wires are dropped.
    """
    if mode not in ("cd", "markov"):
        raise DiagramError(f"unknown composition mode {mode!r}", [])
    if d1.signature != d2.signature:
        raise DiagramError("diagrams are over different signatures", [])
    if len(d1.outputs) != len(d2.inputs):
        raise DiagramError(
            f"arity mismatch: {len(d1.outputs)} outputs vs {len(d2.inputs)} inputs", [])
    mism = [
        f"boundary slot {i}: {d1.wire_label[a]!r} vs {d2.wire_label[b]!r}"
        for i, (a, b) in enumerate(zip(d1.outputs, d2.inputs))
        if d1.wire_label[a] != d2.wire_label[b]
    ]
    if mism:
        raise DiagramError("boundary types do not match", mism)
    _require_valid(d1, mode, "left diagram")
    _require_valid(d2, mode, "right diagram")

    # the tensor freshens d2's ids; gluing then identifies d1's outputs with
    # d2's inputs by union-find over its wires, d1 wires winning as
    # representatives
    t = tensor_diagrams(d1, d2)
    g, g1 = t.graph, d1.graph
    parent = {}

    def find(w):
        root = w
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(w, w) != w:
            parent[w], w = root, parent[w]
        return root

    g1_wires = set(g1.wires)
    for a, b in zip(d1.outputs, t.inputs[len(d1.inputs):]):
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb in g1_wires:
                ra, rb = rb, ra
            parent[rb] = ra

    # every d1 wire and box stays as it is; a d2 wire stays only as its
    # class's representative, and d2's boxes and outputs read representatives
    wires = [w for w in g.wires if w in g1_wires or find(w) == w]
    dom, cod = dict(g.dom), dict(g.cod)
    for b in g.boxes[len(g1.boxes):]:
        dom[b] = tuple(map(find, g.dom[b]))
        cod[b] = tuple(map(find, g.cod[b]))
    composite = Diagram(
        graph=Hypergraph(wires, g.boxes, dom, cod),
        signature=d1.signature,
        labeling=HypMorphism({w: t.wire_label[w] for w in wires}, t.box_label),
        inputs=d1.inputs,
        outputs=tuple(map(find, t.outputs[len(d1.outputs):])),
    )
    if mode == "markov":
        composite = gc_fixpoint(composite)
    _require_valid(composite, mode, "composite")
    return composite


def gc_fixpoint(d: Diagram) -> Diagram:
    """Delete, in one pass, every box whose outputs end up all discarded.

    Each wire counts its reads: one by the output leg and one by each box
    that reads it, however often. A box none of whose outputs is read is
    deleted and its reads are taken back; a wire left with no reads puts
    its producers up for deletion again. So each box is deleted at most
    once, and boxes that read each other in a cycle survive. Wires no
    longer referenced by a leg or a surviving box are dropped afterwards.
    """
    g = d.graph
    reads = Counter(chain.from_iterable(map(set, (d.outputs, *g.dom.values()))))
    producers = {}
    for b in g.boxes:
        for w in g.cod[b]:
            producers.setdefault(w, []).append(b)
    # a box with no outputs at all is vacuously discarded: the unit
    # object is terminal, so effect boxes normalize away
    dead, queue = set(), list(g.boxes)
    while queue:
        b = queue.pop()
        if b not in dead and not any(reads[w] for w in g.cod[b]):
            dead.add(b)
            for w in set(g.dom[b]):
                reads[w] -= 1
                if not reads[w]:
                    queue.extend(producers.get(w, ()))

    boxes = tuple(b for b in g.boxes if b not in dead)
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


def tensor_diagrams(d1: Diagram, d2: Diagram) -> Diagram:
    """Disjoint union with concatenated legs; d2's ids are freshened."""
    if d1.signature != d2.signature:
        raise DiagramError("diagrams are over different signatures", [])
    g1, g2 = d1.graph, d2.graph
    w2_new = _fresh_ids(g2.wires, g1.wires)
    b2_new = _fresh_ids(g2.boxes, g1.boxes)

    wires = tuple(g1.wires) + tuple(w2_new[w] for w in g2.wires)
    boxes = tuple(g1.boxes) + tuple(b2_new[b] for b in g2.boxes)
    dom = {b: g1.dom[b] for b in g1.boxes}
    cod = {b: g1.cod[b] for b in g1.boxes}
    for b in g2.boxes:
        dom[b2_new[b]] = tuple(w2_new[w] for w in g2.dom[b])
        cod[b2_new[b]] = tuple(w2_new[w] for w in g2.cod[b])
    wire_map = {w: d1.wire_label[w] for w in g1.wires}
    wire_map.update({w2_new[w]: d2.wire_label[w] for w in g2.wires})
    box_map = {b: d1.box_label[b] for b in g1.boxes}
    box_map.update({b2_new[b]: d2.box_label[b] for b in g2.boxes})

    return Diagram(
        graph=Hypergraph(wires, boxes, dom, cod),
        signature=d1.signature,
        labeling=HypMorphism(wire_map, box_map),
        inputs=tuple(d1.inputs) + tuple(w2_new[w] for w in d2.inputs),
        outputs=tuple(d1.outputs) + tuple(w2_new[w] for w in d2.outputs),
    )


def canonical_relabel(d: Diagram) -> Diagram:
    """Rename wires/boxes into a canonical scheme for isomorphism checks.

    Boxes take b0, b1, ... in topological order (ties by original id); wires
    take w0, w1, ... in first-use order over inputs, box doms/cods in that
    box order, then outputs; untouched wires follow sorted by original id.
    """
    g = d.graph
    order = topological_order(d)
    box_new = {b: f"b{i}" for i, b in enumerate(order)}
    wire_new = {}

    def see(w):
        if w not in wire_new:
            wire_new[w] = f"w{len(wire_new)}"

    for w in d.inputs:
        see(w)
    for b in order:
        for w in g.dom[b]:
            see(w)
        for w in g.cod[b]:
            see(w)
    for w in d.outputs:
        see(w)
    for w in sorted(set(g.wires) - set(wire_new)):
        see(w)

    graph = Hypergraph(
        [f"w{i}" for i in range(len(wire_new))],
        [f"b{i}" for i in range(len(order))],
        {box_new[b]: tuple(wire_new[w] for w in g.dom[b]) for b in g.boxes},
        {box_new[b]: tuple(wire_new[w] for w in g.cod[b]) for b in g.boxes},
    )
    labeling = HypMorphism(
        {wire_new[w]: d.wire_label[w] for w in g.wires},
        {box_new[b]: d.box_label[b] for b in g.boxes},
    )
    return Diagram(graph, d.signature, labeling,
                   tuple(wire_new[w] for w in d.inputs),
                   tuple(wire_new[w] for w in d.outputs))


def diagram_structure(d: Diagram) -> tuple:
    """Hashable structural fingerprint of a diagram (ids taken literally)."""
    g = d.graph
    return (
        tuple(sorted((w, d.wire_label[w]) for w in g.wires)),
        tuple(sorted((b, d.box_label[b], g.dom[b], g.cod[b]) for b in g.boxes)),
        d.inputs,
        d.outputs,
    )


def diagrams_isomorphic(d1: Diagram, d2: Diagram) -> bool:
    """Equality after canonical relabeling; sound for GC'd diagrams whose
    original box ids induce the same tie-breaks."""
    if d1.signature != d2.signature:
        return False
    return diagram_structure(canonical_relabel(d1)) == diagram_structure(canonical_relabel(d2))


def _dot_quoted(text: str) -> str:
    """text as a DOT quoted string, its backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(d: Diagram) -> str:
    """Graphviz rendering: boxes as nodes, wires as type-labeled edges."""
    q = _dot_quoted
    g = d.graph
    producer = {}
    for b in g.boxes:
        for w in g.cod[b]:
            producer.setdefault(w, ("box", b))
    for i, w in enumerate(d.inputs):
        producer.setdefault(w, ("in", i))

    lines = ["digraph diagram {", "  rankdir=LR;"]
    for i in range(len(d.inputs)):
        lines.append(f'  "in{i}" [shape=plaintext, label="in{i}"];')
    try:
        order = topological_order(d)
    except DiagramError:
        order = list(g.boxes)
    for b in order:
        lines.append(f'  {q(b)} [shape=box, label={q(f"{b}:{d.box_label[b]}")}];')
    for i in range(len(d.outputs)):
        lines.append(f'  "out{i}" [shape=plaintext, label="out{i}"];')

    def src_name(w):
        kind, who = producer.get(w, (None, None))
        if kind == "box":
            return q(who)
        if kind == "in":
            return f'"in{who}"'
        return None

    edges = []
    for b in order:
        for w in g.dom[b]:
            s = src_name(w)
            if s is not None:
                edges.append(f'  {s} -> {q(b)} [label={q(f"{w}:{d.wire_label[w]}")}];')
    for i, w in enumerate(d.outputs):
        s = src_name(w)
        if s is not None:
            edges.append(f'  {s} -> "out{i}" [label={q(f"{w}:{d.wire_label[w]}")}];')
    lines.extend(sorted(edges))
    lines.append("}")
    return "\n".join(lines) + "\n"
