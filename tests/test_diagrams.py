import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from jointkern import (
    Diagram,
    DiagramError,
    Hypergraph,
    HypMorphism,
    canonical_relabel,
    check_morphism,
    compose_diagrams,
    diagram_structure,
    diagrams_isomorphic,
    export_dot,
    gc_fixpoint,
    is_causal_model,
    parse_model,
    tensor_diagrams,
    topological_order,
    validate_cd,
    validate_markov,
)
from jointkern.diagrams import _kahn

from support import (
    chain_diagram, dag_signature, gc_by_rescans, random_dag_diagram, random_dag_with_inputs,
)

SIG = dag_signature()


def make(wires, boxes, dom, cod, box_labels, inputs=(), outputs=()):
    graph = Hypergraph(wires, boxes, dom, cod)
    lab = HypMorphism({w: "B" for w in wires}, dict(box_labels))
    return Diagram(graph=graph, signature=SIG, labeling=lab,
                   inputs=inputs, outputs=outputs)


def one_box(prefix: str) -> Diagram:
    """A single f1 box wrapped as a diagram B -> B."""
    return make(
        (f"{prefix}a", f"{prefix}b"), (f"{prefix}g",),
        {f"{prefix}g": (f"{prefix}a",)}, {f"{prefix}g": (f"{prefix}b",)},
        {f"{prefix}g": "f1"},
        inputs=(f"{prefix}a",), outputs=(f"{prefix}b",))


def source_chain() -> Diagram:
    """src ; f1 with one exported wire."""
    return make(
        ("x", "y"), ("s0", "g0"),
        {"s0": (), "g0": ("x",)}, {"s0": ("x",), "g0": ("y",)},
        {"s0": "src", "g0": "f1"},
        inputs=(), outputs=("y",))


def discard_one() -> Diagram:
    """An input wire dropped on the floor: B -> I."""
    return make(("i",), (), {}, {}, {}, inputs=("i",), outputs=())


def test_hypergraph_guards():
    with pytest.raises(DiagramError):
        Hypergraph(("w", "w"), (), {}, {})
    with pytest.raises(DiagramError):
        Hypergraph(("w",), ("b", "b"), {"b": ()}, {"b": ()})
    with pytest.raises(DiagramError):
        Hypergraph(("w",), ("b",), {"b": ("nope",)}, {"b": ()})
    with pytest.raises(DiagramError):
        Hypergraph(("w",), ("b",), {}, {"b": ()})


def test_check_morphism_reports():
    g = Hypergraph(("a",), ("b",), {"b": ("a",)}, {"b": ("a",)})
    m = HypMorphism({}, {})
    out = check_morphism(g, SIG, m)
    assert any("unmapped" in v for v in out)

    m = HypMorphism({"a": "B"}, {"b": "src"})
    out = check_morphism(g, SIG, m)
    assert any("dom maps to" in v for v in out)

    m = HypMorphism({"a": "B"}, {"b": "f1"})
    assert check_morphism(g, SIG, m) == []


def test_validate_cd_accepts_chain():
    assert validate_cd(chain_diagram()) == []
    assert validate_markov(chain_diagram()) == []
    assert is_causal_model(chain_diagram())


def test_validate_cd_start_places():
    # same wire produced by two boxes
    d = make(("w",), ("p", "q"), {"p": (), "q": ()}, {"p": ("w",), "q": ("w",)},
             {"p": "src", "q": "src"}, outputs=("w",))
    out = validate_cd(d)
    assert any("2 starting places" in v for v in out)

    # produced wire also claimed by the input leg
    d = make(("w",), ("p",), {"p": ()}, {"p": ("w",)},
             {"p": "src"}, inputs=("w",), outputs=("w",))
    out = validate_cd(d)
    assert any("starting places" in v for v in out)


def test_validate_cd_unknown_leg_and_cycle():
    d = make(("w",), (), {}, {}, {}, inputs=("w",), outputs=("ghost",))
    assert any("unknown wire" in v for v in validate_cd(d))

    d = make(("u", "v"), ("p", "q"),
             {"p": ("v",), "q": ("u",)}, {"p": ("u",), "q": ("v",)},
             {"p": "f1", "q": "f1"}, outputs=())
    out = validate_cd(d)
    joined = " ".join(out)
    assert "cycle among boxes" in joined
    assert "'p'" in joined and "'q'" in joined
    assert "'u'" in joined and "'v'" in joined


def test_a_cycle_report_names_its_boxes_and_the_wires_they_make_for_each_other():
    with pytest.raises(DiagramError, match="not a valid copy/delete diagram") as e:
        parse_model(Path(__file__).parent / "models" / "cyclic_bad.json")
    assert e.value.violations == ["cycle among boxes ['b1', 'b2'] through wires ['x', 'y']"]

    # two cycles, p <-> q and r <-> s, r also fed by the root k0; t reads
    # both cycles, so Kahn leaves it unordered too, but the wires made
    # outside the cycles (z) or read by none of its boxes (o) are not listed
    d = make(("z", "u", "v", "a", "b", "o"), ("t", "s", "r", "q", "p", "k0"),
             {"k0": (), "p": ("v",), "q": ("u",), "r": ("z", "b"), "s": ("a",), "t": ("v", "b")},
             {"k0": ("z",), "p": ("u",), "q": ("v",), "r": ("a",), "s": ("b",), "t": ("o",)},
             {"k0": "src", "p": "f1", "q": "f1", "r": "f2", "s": "f1", "t": "f2"},
             outputs=("o",))
    want = ["cycle among boxes ['p', 'q', 'r', 's', 't'] through wires ['a', 'b', 'u', 'v']"]
    assert validate_cd(d) == want
    with pytest.raises(DiagramError, match="not a valid copy/delete diagram") as e:
        d.plan
    assert e.value.violations == want


def test_validate_markov_dangling():
    d = make(("x", "y"), ("s0", "g0"),
             {"s0": (), "g0": ("x",)}, {"s0": ("x",), "g0": ("y",)},
             {"s0": "src", "g0": "f1"},
             inputs=(), outputs=())
    out = validate_markov(d)
    assert out == ["output wire 'y' of box 'g0' is discarded"]
    assert validate_cd(d) == []


def test_is_causal_model_repeated_output():
    d = make(("w",), ("p",), {"p": ()}, {"p": ("w",)},
             {"p": "src"}, outputs=("w", "w"))
    assert validate_markov(d) == []
    assert not is_causal_model(d)


def test_topological_order():
    d = source_chain()
    assert topological_order(d) == ["s0", "g0"]

    # independent boxes come out in id order
    d = make(("u", "v"), ("zz", "aa"), {"zz": (), "aa": ()},
             {"zz": ("u",), "aa": ("v",)}, {"zz": "src", "aa": "src"},
             outputs=("u", "v"))
    assert topological_order(d) == ["aa", "zz"]

    cyc = make(("u", "v"), ("p", "q"),
               {"p": ("v",), "q": ("u",)}, {"p": ("u",), "q": ("v",)},
               {"p": "f1", "q": "f1"}, outputs=())
    with pytest.raises(DiagramError):
        topological_order(cyc)


def test_compose_basic():
    left = source_chain()
    right = one_box("r")
    comp = compose_diagrams(left, right)
    assert validate_cd(comp) == [] and validate_markov(comp) == []
    assert set(comp.graph.boxes) == {"s0", "g0", "rg"}
    assert comp.inputs == () and len(comp.outputs) == 1
    # the glued boundary keeps the left-side wire id
    assert comp.graph.dom["rg"] == ("y",)


def test_compose_errors():
    left = source_chain()
    other_sig = Hypergraph(("C",), (), {}, {})
    foreign = Diagram(
        graph=Hypergraph(("z",), (), {}, {}),
        signature=other_sig,
        labeling=HypMorphism({"z": "C"}, {}),
        inputs=("z",), outputs=("z",))
    with pytest.raises(DiagramError):
        compose_diagrams(left, foreign)
    with pytest.raises(DiagramError):
        compose_diagrams(left, tensor_diagrams(one_box("p"), one_box("q")))
    with pytest.raises(DiagramError):
        compose_diagrams(left, one_box("r"), mode="weird")


def test_compose_freshens_colliding_ids():
    a = one_box("same")
    b = one_box("same")
    comp = compose_diagrams(a, b)
    assert len(comp.graph.boxes) == 2
    assert len(set(comp.graph.boxes)) == 2
    assert validate_markov(comp) == []


def test_compose_glues_repeated_boundary_wires():
    # a wire on the left's output leg twice feeds both glued inputs; a
    # repeated input on the right has two starting places and is refused
    twice = make(("x",), ("s0",), {"s0": ()}, {"s0": ("x",)}, {"s0": "src"},
                 outputs=("x", "x"))
    split = make(("a", "b", "o"), ("g",), {"g": ("a", "b")}, {"g": ("o",)}, {"g": "f2"},
                 inputs=("a", "b"), outputs=("o",))
    for mode in ("cd", "markov"):
        comp = compose_diagrams(twice, split, mode)
        assert comp.graph.wires == ("x", "o") and comp.graph.boxes == ("s0", "g")
        assert comp.graph.dom["g"] == ("x", "x") and comp.outputs == ("o",)
    join = make(("i", "o"), ("g",), {"g": ("i", "i")}, {"g": ("o",)}, {"g": "f2"},
                inputs=("i", "i"), outputs=("o",))
    with pytest.raises(DiagramError, match="right diagram fails cd validation"):
        compose_diagrams(tensor_diagrams(source_chain(), source_chain()), join, "cd")


def test_gc_two_stage_cascade():
    comp = compose_diagrams(source_chain(), discard_one())
    assert comp.graph.boxes == ()
    assert comp.graph.wires == ()
    assert comp.inputs == () and comp.outputs == ()


def test_gc_partial_chain():
    # discarding after one box keeps nothing of the chain, but an exported
    # copy of the middle wire keeps the producing box alive
    keep_mid = make(
        ("x", "y"), ("s0", "g0"),
        {"s0": (), "g0": ("x",)}, {"s0": ("x",), "g0": ("y",)},
        {"s0": "src", "g0": "f1"},
        inputs=(), outputs=("y",))
    comp = compose_diagrams(keep_mid, discard_one())
    assert comp.graph.boxes == ()

    d = gc_fixpoint(source_chain())
    assert set(d.graph.boxes) == {"s0", "g0"}


def test_gc_idempotent():
    comp = compose_diagrams(source_chain(), discard_one())
    again = gc_fixpoint(comp)
    assert diagram_structure(again) == diagram_structure(comp)


def test_cd_mode_keeps_discarded_boxes():
    comp = compose_diagrams(source_chain(), discard_one(), mode="cd")
    assert set(comp.graph.boxes) == {"s0", "g0"}
    assert validate_cd(comp) == []
    assert validate_markov(comp) != []


def test_partial_discard_of_multi_output_box_raises():
    sig2 = Hypergraph(
        wires=("B",),
        boxes=("pair",),
        dom={"pair": ()},
        cod={"pair": ("B", "B")},
    )
    g = Hypergraph(("u", "v"), ("p0",), {"p0": ()}, {"p0": ("u", "v")})
    d_pair = Diagram(
        graph=g, signature=sig2,
        labeling=HypMorphism({"u": "B", "v": "B"}, {"p0": "pair"}),
        inputs=(), outputs=("u", "v"))
    keep_left = Diagram(
        graph=Hypergraph(("a", "b"), (), {}, {}),
        signature=sig2,
        labeling=HypMorphism({"a": "B", "b": "B"}, {}),
        inputs=("a", "b"), outputs=("a",))
    assert validate_markov(d_pair) == [] and validate_markov(keep_left) == []

    # half-discarding a two-output box has no Markov normal form: the box
    # is not garbage (one output is used) yet the dangling wire breaks the
    # Markov rule, so composition must refuse
    with pytest.raises(DiagramError):
        compose_diagrams(d_pair, keep_left)

    comp = compose_diagrams(d_pair, keep_left, mode="cd")
    assert set(comp.graph.boxes) == {"p0"}


def test_tensor_diagrams():
    t = tensor_diagrams(one_box("p"), one_box("p"))
    assert len(t.graph.boxes) == 2
    assert len(t.inputs) == 2 and len(t.outputs) == 2
    assert validate_cd(t) == [] and validate_markov(t) == []
    assert t.input_types() == ("B", "B")


def test_canonical_relabel_and_isomorphism():
    d = source_chain()
    scrambled = make(
        ("qq", "pp"), ("zz", "mm"),
        {"mm": (), "zz": ("pp",)}, {"mm": ("pp",), "zz": ("qq",)},
        {"mm": "src", "zz": "f1"},
        inputs=(), outputs=("qq",))
    assert diagrams_isomorphic(d, scrambled)
    assert not diagrams_isomorphic(d, one_box("r"))
    c = canonical_relabel(d)
    assert c.graph.boxes == ("b0", "b1")
    assert set(c.graph.wires) == {"w0", "w1"}
    assert diagram_structure(c) == diagram_structure(canonical_relabel(scrambled))


def test_compose_associativity_up_to_iso():
    rng = random.Random(23)
    for trial in range(30):
        d1 = random_dag_diagram(rng, rng.randint(1, 4), SIG, prefix=f"x{trial}_")
        k = len(d1.outputs)
        d2 = random_dag_with_inputs(rng, k, rng.randint(0, 3), SIG, f"y{trial}_")
        d3 = random_dag_with_inputs(rng, len(d2.outputs), rng.randint(0, 3),
                                    SIG, f"z{trial}_")
        left = compose_diagrams(compose_diagrams(d1, d2), d3)
        right = compose_diagrams(d1, compose_diagrams(d2, d3))
        assert diagrams_isomorphic(left, right)
        assert validate_markov(left) == []


def test_export_dot_deterministic():
    d = chain_diagram()
    text = export_dot(d)
    assert text == export_dot(chain_diagram())
    assert '"b1" [shape=box, label="b1:flip"];' in text
    assert '"b1" -> "b2" [label="x:B"];' in text
    assert '"b2" -> "out0" [label="y:B"];' in text


def _reference_kahn(g: Hypergraph) -> tuple:
    """Kahn's algorithm as stated: a box's predecessors are the first
    producers of its input wires; repeatedly take the least box whose
    predecessors are all taken; what is never taken is left over, in box
    order."""
    producer = {}
    for b in g.boxes:
        for w in g.cod[b]:
            producer.setdefault(w, b)
    preds = {b: {producer[w] for w in g.dom[b] if w in producer} for b in g.boxes}
    order, taken = [], set()
    while True:
        ready = [b for b in g.boxes if b not in taken and preds[b] <= taken]
        if not ready:
            break
        order.append(min(ready))
        taken.add(order[-1])
    return order, [b for b in g.boxes if b not in taken]


@st.composite
def _graphs(draw) -> Hypergraph:
    """Random box graphs: wires read repeatedly, produced by two boxes (the
    first producer counts) or by none, self-loops and cycles."""
    wires = [f"w{i}" for i in range(draw(st.integers(0, 8)))]
    boxes = draw(st.lists(st.sampled_from("abcdefghij"), unique=True, max_size=8))
    wire_lists = st.lists(st.sampled_from(wires), max_size=4) if wires else st.just([])
    dom = {b: draw(wire_lists) for b in boxes}
    cod = {b: draw(wire_lists) for b in boxes}
    return Hypergraph(wires, boxes, dom, cod)


@settings(derandomize=True, max_examples=200)
@given(_graphs())
# a self-loop; a cycle fed by a root; w made by c and then by a, read twice
@example(Hypergraph(["w"], ["a"], {"a": ["w"]}, {"a": ["w"]}))
@example(Hypergraph(["u", "v", "x"], ["c", "b", "a"],
                    {"a": [], "b": ["x", "v"], "c": ["u"]},
                    {"a": ["x"], "b": ["u"], "c": ["v"]}))
@example(Hypergraph(["w", "y"], ["c", "a", "b"],
                    {"a": [], "b": ["w", "w"], "c": ["y"]},
                    {"a": ["w", "y"], "b": [], "c": ["w"]}))
def test_kahn_matches_reference(g):
    assert _kahn(g) == _reference_kahn(g)


@st.composite
def _diagrams(draw) -> Diagram:
    """Random diagrams over _graphs whose legs name any wire of the graph,
    or one outside it."""
    g = draw(_graphs())
    legs = st.lists(st.sampled_from([*g.wires, "ghost"]), max_size=4)
    return make(g.wires, g.boxes, g.dom, g.cod, dict.fromkeys(g.boxes, "f1"),
                draw(legs), draw(legs))


@settings(derandomize=True, max_examples=500)
@given(_diagrams())
# a cycle read by the output leg, fed by a root and feeding a dead tail;
# a cycle nobody reads; a box that reads its own output; an effect box
@example(make(["u", "v", "r", "t"], ["a", "b", "c", "d"],
              {"a": ["r"], "b": ["u", "u"], "c": [], "d": ["v"]},
              {"a": ["u"], "b": ["v"], "c": ["r"], "d": ["t"]},
              dict.fromkeys("abcd", "f1"), outputs=("v",)))
@example(make(["u", "v"], ["p", "q"], {"p": ["v"], "q": ["u"]}, {"p": ["u"], "q": ["v"]},
              dict.fromkeys("pq", "f1")))
@example(make(["w"], ["a", "e"], {"a": ["w"], "e": []}, {"a": ["w"], "e": []},
              dict.fromkeys("ae", "f1")))
def test_gc_matches_the_rescanning_reference(d):
    got, want = gc_fixpoint(d), gc_by_rescans(d)
    assert (got.graph.boxes, got.graph.wires) == (want.graph.boxes, want.graph.wires)
    assert diagram_structure(got) == diagram_structure(want)

