import dataclasses
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import jointkern.interpret as interpret
from jointkern import (
    DetMap,
    Diagram,
    DiagramError,
    EvalError,
    Finite,
    Hypergraph,
    HypMorphism,
    Interpretation,
    PrimitiveKernel,
    ShapeError,
    Product,
    UNIT,
    UNIT_VALUE,
    abduct_uniforms,
    bernoulli,
    categorical,
    check_interpretation,
    compose,
    evaluate,
    expose_residuals,
    from_primitive,
    identity_kernel,
    intervene,
    joint_log_density,
    lift_det,
    marginal_pmf_finite,
    model_from_dict,
    model_log_density,
    nest_values,
    replay_with_uniforms,
    run_trace,
    sample_model,
    sample_scored,
    sample_with_trace,
    value_from_jsonable,
    wire_values,
)
from jointkern.kernels import Apply, Unpack

from support import (
    chain_parts,
    dag_signature,
    fourbox_parts,
    genmodels,
    random_dag_diagram,
    random_probs,
)

TWO = Finite(2)
MODELS = Path(__file__).parent / "models"


def test_check_interpretation_ok():
    d, interp = chain_parts()
    assert check_interpretation(d.signature, interp) == []


def test_check_interpretation_violations():
    d, interp = chain_parts()
    sig = d.signature

    missing_space = Interpretation({}, interp.box_kernels, interp.residual_labels)
    out = check_interpretation(sig, missing_space)
    assert any("has no space" in v for v in out)

    missing_box = Interpretation(interp.wire_spaces, {"flip": interp.box_kernels["flip"]},
                                 interp.residual_labels)
    out = check_interpretation(sig, missing_box)
    assert any("'step' has no kernel" in v for v in out)

    # flip's kernel where step's belongs: the domain is wrong
    swapped = Interpretation(
        interp.wire_spaces,
        {"flip": interp.box_kernels["flip"], "step": interp.box_kernels["flip"]},
        interp.residual_labels)
    out = check_interpretation(sig, swapped)
    assert any("kernel domain" in v for v in out)

    bad_res = Interpretation(interp.wire_spaces, interp.box_kernels,
                             {"flip": (), "step": ("B",)})
    out = check_interpretation(sig, bad_res)
    assert any("residual" in v for v in out)


def test_evaluate_chain():
    d, interp = chain_parts()
    k = evaluate(d, interp)
    assert k.box_ids == ("b1", "b2")
    assert marginal_pmf_finite(k, UNIT_VALUE) == {0: 0.55, 1: 0.45}
    got = joint_log_density(k, UNIT_VALUE, {"b1": 1, "b2": 1})
    assert got == pytest.approx(math.log(0.35), abs=1e-12)
    assert model_log_density(d, interp, UNIT_VALUE, {"b1": 1, "b2": 1}) == got


def test_evaluate_caches():
    d, interp = chain_parts()
    assert evaluate(d, interp) is evaluate(d, interp)
    assert evaluate(d, interp) is not evaluate(d, chain_parts()[1])


def test_interpretation_maps_are_frozen():
    # a mutated map would leave evaluate's cached kernel stale
    d, interp = chain_parts()
    k = evaluate(d, interp)
    with pytest.raises(TypeError):
        interp.box_kernels["step"] = interp.box_kernels["flip"]
    with pytest.raises(TypeError):
        interp.wire_spaces["B"] = Finite(3)
    with pytest.raises(TypeError):
        interp.residual_labels["flip"] = ()
    with pytest.raises(AttributeError):
        interp.box_kernels = {}
    assert evaluate(d, interp) is k

    # a caller's dict is copied, so changing it later changes nothing
    kernels = dict(interp.box_kernels)
    copy = Interpretation(interp.wire_spaces, kernels, interp.residual_labels)
    kernels["flip"] = from_primitive(bernoulli(1.0), "flip")
    assert marginal_pmf_finite(evaluate(d, copy), UNIT_VALUE) == {0: 0.55, 1: 0.45}

    changed = Interpretation(interp.wire_spaces, kernels, interp.residual_labels)
    assert marginal_pmf_finite(evaluate(d, changed), UNIT_VALUE) == {0: 0.3, 1: 0.7}


def test_diagram_is_frozen():
    # a mutated diagram would leave its cached plan and kernel stale
    d, interp = chain_parts()
    k = evaluate(d, interp)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.outputs = ("x",)
    with pytest.raises(TypeError):
        d.graph.dom["b2"] = ("y",)
    with pytest.raises(TypeError):
        d.labeling.box_map["b2"] = "flip"
    with pytest.raises(TypeError):
        d.labeling.wire_map["y"] = "B"
    assert evaluate(d, interp) is k

    # replace gives an equal diagram with cold caches
    fresh = dataclasses.replace(d)
    k2 = evaluate(fresh, interp)
    assert k2 is not k
    assert marginal_pmf_finite(k2, UNIT_VALUE) == marginal_pmf_finite(k, UNIT_VALUE) \
        == {0: 0.55, 1: 0.45}


def test_composite_box_ids_get_prefixed():
    # one signature box whose kernel is itself a two-box composite
    inner = compose(
        from_primitive(bernoulli(0.5), "n1"),
        from_primitive(bernoulli(lambda x: 0.2 if x < 1 else 0.7, dom=TWO), "n2"))
    sig = Hypergraph(("B",), ("mix",), {"mix": ()}, {"mix": ("B",)})
    graph = Hypergraph(("w",), ("g",), {"g": ()}, {"g": ("w",)})
    d = Diagram(graph=graph, signature=sig,
                labeling=HypMorphism({"w": "B"}, {"g": "mix"}),
                inputs=(), outputs=("w",))
    interp = Interpretation({"B": TWO}, {"mix": inner},
                            {"mix": ("B", "B")})
    k = evaluate(d, interp)
    assert k.box_ids == ("g.n1", "g.n2")
    assert marginal_pmf_finite(k, UNIT_VALUE) == {0: 0.55, 1: 0.45}


def _lowered_both_ways(d, interp, monkeypatch) -> tuple:
    """(the kernel _compile builds, the kernel it builds when every box is
    inlined step by step, as composites are)."""
    placed = interpret._compile(d, interp)
    with monkeypatch.context() as m:
        m.setattr(interpret, "_one_step", lambda k: None)
        inlined = interpret._compile(d, interp)
    return placed, inlined


def _fixture_models() -> list:
    """(model, its kernel input) for every fixture that parses, then
    genmodels' chain_model(160, 1) and layered_dag(1..3, 0..7)."""
    gen = genmodels()
    inputs = {"inputs.json": 1, "real2_input.json": [0.5, 1]}
    models = []
    for path in sorted(MODELS.glob("*.json")):
        try:
            model = model_from_dict(json.loads(path.read_text()))
        except ValueError:  # the fixtures that must not parse
            continue
        z = inputs.get(path.name)
        models.append((model, UNIT_VALUE if z is None
                       else value_from_jsonable(model.kernel.dom, z)))
    assert len(models) >= 8
    models.append((model_from_dict(gen.chain_model(160, 1)[0]), UNIT_VALUE))
    models += [(model_from_dict(gen.layered_dag(s, i)[0]), UNIT_VALUE)
               for s in (1, 2, 3) for i in range(8)]
    return models


def test_loaded_models_fit_their_signature():
    # the loader builds each box's kernel from its signature's wire spaces
    # and checks only what it did not build; the library's check agrees
    for model, _ in _fixture_models():
        assert check_interpretation(model.signature, model.interpretation) == []


def _outcome(f, *args) -> str:
    """repr of f's result, or of the ShapeError it raises; floats' reprs
    round-trip, so equal reprs are bit-identical values."""
    try:
        return repr(f(*args))
    except ShapeError as e:
        return f"ShapeError: {e}"


def test_one_step_placement_matches_inline(monkeypatch):
    # placed boxes read their wires' slots; inlining packs them into one
    # slot first, so the programs differ step for step but must compute
    # the same thing
    for model, z in _fixture_models():
        d, interp = model.diagram, model.interpretation
        interps = [interp]
        # an intervention on the first drawn box, held at its sampled value
        if model.kernel.dom == UNIT and model.kernel.boxes:
            t, _ = sample_with_trace(model.kernel, UNIT_VALUE, 3)
            b = model.kernel.box_ids[0]
            interps.append(intervene(d, interp, {d.box_label[b]: t[b]}))
        for one in interps:
            placed, inlined = _lowered_both_ways(d, one, monkeypatch)
            assert placed.box_ids == inlined.box_ids
            assert (placed.dom, placed.cod) == (inlined.dom, inlined.cod)
            assert list(placed.wires) == list(inlined.wires)
            for seed in range(6):
                drawn = sample_scored(placed, z, seed)
                assert repr(drawn) == repr(sample_scored(inlined, z, seed))
                t = drawn[0]
                for f in (joint_log_density, abduct_uniforms):
                    assert _outcome(f, placed, z, t) == _outcome(f, inlined, z, t)
                if placed.boxes and all(b.primitive.abduct_law for b in placed.boxes):
                    u = abduct_uniforms(placed, z, t)
                    replayed = replay_with_uniforms(placed, z, u)
                    assert repr(replayed) == repr(replay_with_uniforms(inlined, z, u))
                at = {k: dict(zip(k.wires, (run_trace(k, z, t)[i] for i in k.wires.values())))
                      for k in (placed, inlined)}
                assert repr(at[placed]) == repr(at[inlined])


def test_model_programs_are_one_step_per_box():
    # besides one step per graph box, a model's program has only its leg
    # steps: the input leg's Unpack, one output pack, and one Unpack per
    # box with several output wires
    for model, _ in _fixture_models():
        d, k = model.diagram, model.kernel
        g = d.graph
        unpacks = (len(d.inputs) > 1) + sum(len(g.cod[b]) > 1 for b in g.boxes)
        packs = len(d.outputs) != 1
        assert len(k.steps) == len(g.boxes) + unpacks + packs
        assert sum(type(s) is Unpack for s in k.steps) == unpacks
        # the output pack is the last step; it packs the output wires' slots
        if packs:
            last = k.steps[-1]
            assert type(last) is Apply and last.dst == k.out
            assert last.src == tuple(k.wires[w] for w in d.outputs)
    gen = genmodels()
    assert len(model_from_dict(gen.layered_dag(1, 0)[0]).kernel.steps) == 17


def _recording(seen: list, dom) -> PrimitiveKernel:
    """bernoulli(0.5) on dom whose point records each value it reads."""
    base = bernoulli(0.5)
    return PrimitiveKernel("rec", dom, TWO, base.density, base.push, base.abduct_law,
                           base.pmf_law, lambda z: seen.append(z) or base.point(UNIT_VALUE))


def test_a_box_reads_several_wires_as_their_left_nested_value(monkeypatch):
    # three input wires, read by the box in another order than the
    # diagram's inputs; placed on its own, and inlined as the first box of
    # a composite, the point sees the same left-nested value
    dom = Product(Product(TWO, Finite(3)), Finite(4))
    sig = Hypergraph(("B", "T", "F"), ("h",), {"h": ("B", "T", "F")}, {"h": ("B",)})
    graph = Hypergraph(("a", "b", "c", "x"), ("g",), {"g": ("b", "c", "a")}, {"g": ("x",)})
    d = Diagram(graph=graph, signature=sig,
                labeling=HypMorphism({"a": "F", "b": "B", "c": "T", "x": "B"}, {"g": "h"}),
                inputs=("a", "b", "c"), outputs=("x",))
    spaces = {"B": TWO, "T": Finite(3), "F": Finite(4)}
    seen = []
    one = from_primitive(_recording(seen, dom), "h")
    composite = compose(one, lift_det(DetMap(TWO, TWO, lambda v: v, "same")))
    for k in (one, composite):
        interp = Interpretation(spaces, {"h": k}, {"h": ("B",)})
        for lowered in _lowered_both_ways(d, interp, monkeypatch):
            seen.clear()
            t, _, _ = sample_scored(lowered, ((3, 1), 2), 0)
            joint_log_density(lowered, ((3, 1), 2), t)
            abduct_uniforms(lowered, ((3, 1), 2), t)
            assert seen == [((1, 2), 3)] * 3


def test_a_root_box_reads_the_unit_value_under_global_inputs():
    # the root r has no input wires, so it reads UNIT_VALUE, never the
    # diagram's input, even where the pass does not check that input
    seen = []
    sig = Hypergraph(("B",), ("root", "step"),
                     {"root": (), "step": ("B",)}, {"root": ("B",), "step": ("B",)})
    graph = Hypergraph(("u", "x", "y"), ("r", "s"),
                       {"r": (), "s": ("u",)}, {"r": ("x",), "s": ("y",)})
    d = Diagram(graph=graph, signature=sig,
                labeling=HypMorphism(dict.fromkeys(graph.wires, "B"), {"r": "root", "s": "step"}),
                inputs=("u",), outputs=("x", "y"))
    interp = Interpretation(
        {"B": TWO},
        {"root": from_primitive(_recording(seen, UNIT), "root"),
         "step": from_primitive(bernoulli(lambda z: 0.2 if z < 1 else 0.7, dom=TWO), "step")},
        {"root": ("B",), "step": ("B",)})
    k = evaluate(d, interp)
    t, _, _ = sample_scored(k, 1, 0)
    joint_log_density(k, 1, t)
    abduct_uniforms(k, 1, t)
    abduct_uniforms(k, 0, t)
    assert seen == [UNIT_VALUE] * 4


def test_a_step_reading_no_slot_zero_is_not_placed():
    # expose_residuals of a boxless kernel is one identity Apply reading no
    # slots; placed at a box's wires it would copy the box's input to its
    # output, where the kernel's output is UNIT_VALUE
    sig = Hypergraph(("B", "U"), ("res",), {"res": ("B",)}, {"res": ("U",)})
    graph = Hypergraph(("w", "u"), ("r",), {"r": ("w",)}, {"r": ("u",)})
    d = Diagram(graph=graph, signature=sig,
                labeling=HypMorphism({"w": "B", "u": "U"}, {"r": "res"}),
                inputs=("w",), outputs=("u",))
    k = expose_residuals(identity_kernel(TWO))
    placed = evaluate(d, Interpretation({"B": TWO, "U": UNIT}, {"res": k}))
    assert [placed.mech({}, z) for z in (0, 1)] == [UNIT_VALUE] * 2


def test_evaluate_rejects_invalid_diagram():
    d, interp = chain_parts()
    bad = Diagram(graph=d.graph, signature=d.signature, labeling=d.labeling,
                  inputs=(), outputs=())
    with pytest.raises(DiagramError) as exc:
        evaluate(bad, interp)
    assert exc.value.violations != []


def test_evaluate_missing_entries():
    d, interp = chain_parts()
    with pytest.raises(EvalError, match="no kernel"):
        evaluate(d, Interpretation(interp.wire_spaces, {}, {}))
    with pytest.raises(EvalError, match="no space"):
        evaluate(d, Interpretation({}, interp.box_kernels, interp.residual_labels))


def test_compile_checks_a_shared_label_on_its_first_box():
    # two graph boxes share the label "step", whose kernel has the wrong
    # domain; check_interpretation is skipped, so _compile's own check must
    # reject the first of them in plan order (not in graph or id order)
    sig = Hypergraph(("B",), ("flip", "step"),
                     {"flip": (), "step": ("B",)}, {"flip": ("B",), "step": ("B",)})
    graph = Hypergraph(("a", "b", "c"), ("a2", "z1", "r"),
                       {"r": (), "z1": ("a",), "a2": ("b",)},
                       {"r": ("a",), "z1": ("b",), "a2": ("c",)})
    d = Diagram(graph=graph, signature=sig,
                labeling=HypMorphism({"a": "B", "b": "B", "c": "B"},
                                     {"r": "flip", "z1": "step", "a2": "step"}),
                inputs=(), outputs=("c",))
    assert d.plan == ("r", "z1", "a2")
    wrong = from_primitive(bernoulli(lambda x: 0.5, dom=Finite(3)), "step")
    interp = Interpretation({"B": TWO},
                            {"flip": from_primitive(bernoulli(0.5), "flip"), "step": wrong})
    with pytest.raises(EvalError, match="box 'z1' kernel domain"):
        evaluate(d, interp)


def test_compiled_steps_are_immutable():
    # kernels are cached on their diagram, so no step may change afterwards;
    # two inputs, a det box, a noise box and two outputs give every step type
    sig = Hypergraph(("B",), ("flip", "neg"),
                     {"flip": ("B",), "neg": ("B",)}, {"flip": ("B",), "neg": ("B",)})
    graph = Hypergraph(("u", "v", "x", "y"), ("f", "n"),
                       {"f": ("u",), "n": ("v",)}, {"f": ("x",), "n": ("y",)})
    d = Diagram(graph=graph, signature=sig,
                labeling=HypMorphism(dict.fromkeys(graph.wires, "B"),
                                     {"f": "flip", "n": "neg"}),
                inputs=("u", "v"), outputs=("x", "y"))
    interp = Interpretation(
        {"B": TWO},
        {"flip": from_primitive(bernoulli(lambda z: 0.2 if z < 1 else 0.7, dom=TWO), "flip"),
         "neg": lift_det(DetMap(TWO, TWO, lambda z: 1 - z, "neg"))},
        {"flip": ("B",)})
    k = evaluate(d, interp)
    assert {type(s).__name__ for s in k.steps} == {"Unpack", "TracedBox", "Apply"}
    # a one-slot box and map, and the output leg's packing Apply
    assert {type(s.src) for s in k.steps if type(s) is not Unpack} == {int, tuple}
    for step in k.steps:
        for name in step._fields:
            with pytest.raises(AttributeError):
                setattr(step, name, getattr(step, name))
    assert marginal_pmf_finite(k, (1, 1)) == {(0, 0): 0.3, (1, 0): 0.7}


def test_boxless_wirings():
    sig = Hypergraph(("B",), (), {}, {})
    interp = Interpretation({"B": TWO}, {}, {})

    ident = Diagram(graph=Hypergraph(("w",), (), {}, {}), signature=sig,
                    labeling=HypMorphism({"w": "B"}, {}),
                    inputs=("w",), outputs=("w",))
    k = evaluate(ident, interp)
    assert k.boxes == ()
    assert sample_with_trace(k, 1, seed=0) == ({}, 1)
    assert joint_log_density(k, 0, {}) == 0.0

    swap = Diagram(graph=Hypergraph(("u", "v"), (), {}, {}), signature=sig,
                   labeling=HypMorphism({"u": "B", "v": "B"}, {}),
                   inputs=("u", "v"), outputs=("v", "u"))
    ks = evaluate(swap, interp)
    assert ks.mech({}, (0, 1)) == (1, 0)

    # outputs may fan out a single input wire
    dup = Diagram(graph=Hypergraph(("w",), (), {}, {}), signature=sig,
                  labeling=HypMorphism({"w": "B"}, {}),
                  inputs=("w",), outputs=("w", "w"))
    kd = evaluate(dup, interp)
    assert kd.mech({}, 1) == (1, 1)


def test_wire_values():
    d, interp = chain_parts()
    assert wire_values(d, interp, UNIT_VALUE, {"b1": 1, "b2": 0}) == {"x": 1, "y": 0}

    d4, i4 = fourbox_parts()
    t = {"g1": 1, "g2": 2, "g3": 0, "g4": 1}
    assert wire_values(d4, i4, UNIT_VALUE, t) == {"a": 1, "c": 2, "m": 0, "s": 1}


def test_sample_model_deterministic():
    d, interp = chain_parts()
    t1, x1 = sample_model(d, interp, UNIT_VALUE, seed=7)
    t2, x2 = sample_model(d, interp, UNIT_VALUE, seed=7)
    assert (t1, x1) == (t2, x2)
    assert x1 == t1["b2"]
    assert sample_model(d, interp, UNIT_VALUE, seed=8) != (t1, x1) or True


def fourbox_oracle() -> dict:
    """Brute-force joint of the four-box model, walking the graph directly."""

    def frac(x: float) -> Fraction:
        return Fraction(x).limit_denominator(10**9)

    p_a = {0: frac(0.6), 1: frac(0.4)}
    p_c = {0: frac(0.5), 1: frac(0.3), 2: frac(0.2)}
    out: dict = {}
    for a, pa in p_a.items():
        pm1 = frac(0.15) if a < 1 else frac(0.85)
        for c, pc in p_c.items():
            for m, pm in ((0, 1 - pm1), (1, pm1)):
                ps1 = frac(min(0.95, 0.05 + 0.3 * m + 0.2 * c))
                for s, ps in ((0, 1 - ps1), (1, ps1)):
                    key = (c, s)
                    out[key] = out.get(key, Fraction(0)) + pa * pc * pm * ps
    return {k: float(v) for k, v in out.items()}


def test_fourbox_marginal_matches_oracle():
    d, interp = fourbox_parts()
    got = marginal_pmf_finite(evaluate(d, interp), UNIT_VALUE)
    want = fourbox_oracle()
    assert set(got) == set(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], abs=1e-12)
    assert sum(got.values()) == pytest.approx(1.0, abs=1e-12)


def random_interpretation(rng: random.Random):
    """Random tables for the src/f1/f2 signature over Finite(2) wires."""
    f1_rows = {z: random_probs(rng, 2) for z in range(2)}
    f2_rows = {(a, b): random_probs(rng, 2) for a in range(2) for b in range(2)}
    interp = Interpretation(
        wire_spaces={"B": TWO},
        box_kernels={
            "src": from_primitive(categorical(random_probs(rng, 2), size=2), "src"),
            "f1": from_primitive(categorical(
                [(lambda z, _j=j: f1_rows[z][_j]) for j in range(2)],
                dom=TWO, size=2), "f1"),
            "f2": from_primitive(categorical(
                [(lambda z, _j=j: f2_rows[z][_j]) for j in range(2)],
                dom=Product(TWO, TWO), size=2), "f2"),
        },
        residual_labels={"src": ("B",), "f1": ("B",), "f2": ("B",)},
    )
    return interp, f1_rows, f2_rows


def graph_walk_oracle(d: Diagram, interp_tables) -> dict:
    """Enumerate all box-value assignments straight off the graph."""
    interp, f1_rows, f2_rows = interp_tables
    src_row = marginal_pmf_finite(interp.box_kernels["src"], UNIT_VALUE)
    g = d.graph
    order = list(g.boxes)
    out: dict = {}

    def run(i: int, vals: dict, prob: float):
        if i == len(order):
            key = nest_values([vals[w] for w in d.outputs])
            out[key] = out.get(key, 0.0) + prob
            return
        b = order[i]
        parents = tuple(vals[w] for w in g.dom[b])
        if len(parents) == 0:
            row = src_row
        elif len(parents) == 1:
            row = {j: f1_rows[parents[0]][j] for j in range(2)}
        else:
            row = {j: f2_rows[parents][j] for j in range(2)}
        for v, p in row.items():
            vals[g.cod[b][0]] = v
            run(i + 1, vals, prob * p)
            del vals[g.cod[b][0]]

    run(0, {}, 1.0)
    return out


def test_random_diagram_battery():
    rng = random.Random(41)
    sig = dag_signature()
    for trial in range(20):
        d = random_dag_diagram(rng, rng.randint(1, 6), sig, prefix=f"t{trial}_")
        tables = random_interpretation(rng)
        k = evaluate(d, tables[0])
        got = marginal_pmf_finite(k, UNIT_VALUE)
        want = graph_walk_oracle(d, tables)
        assert set(got) == {k2 for k2, v in want.items() if v > 0}
        for key, v in want.items():
            if v > 0:
                assert got[key] == pytest.approx(v, rel=1e-10)
