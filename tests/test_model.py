import copy
import json
import math
from pathlib import Path

import pytest

from jointkern import (
    Coproduct,
    CoproductSet,
    Countable,
    DetMap,
    DiagramError,
    Finite,
    FinitePoints,
    Inl,
    Inr,
    IntervalBox,
    ModelSyntaxError,
    ParameterError,
    Product,
    ProductSet,
    Real,
    ShapeError,
    UNIT,
    UNIT_VALUE,
    expected_value_by_enumeration,
    intervene,
    joint_log_density,
    marginal_pmf_finite,
    sample_model,
    model_from_dict,
    parse_model,
    print_model,
    render_json,
    space_from_json,
    space_to_json,
    value_from_jsonable,
    value_to_jsonable,
    descriptor_to_json,
)

MODELS = Path(__file__).parent / "models"


def chain_dict() -> dict:
    return {
        "version": 1,
        "signature": {
            "wires": {"B": {"space": {"finite": 2}}},
            "boxes": {"flip": {"dom": [], "cod": ["B"]},
                      "step": {"dom": ["B"], "cod": ["B"]}},
        },
        "diagram": {
            "wires": {"x": "B", "y": "B"},
            "boxes": {"b1": "flip", "b2": "step"},
            "dom": {"b1": [], "b2": ["x"]},
            "cod": {"b1": ["x"], "b2": ["y"]},
            "inputs": [], "outputs": ["y"],
        },
        "interpretation": {
            "flip": {"primitive": "bernoulli", "params": {"p": 0.5}},
            "step": {"primitive": "bernoulli",
                     "params": {"p": "if $0 < 1 then 0.2 else 0.7"}},
        },
    }


def test_space_codec_roundtrip():
    spaces = [
        Finite(2), Countable(), Real(1), Real(3),
        Product(Finite(2), Real(1)),
        Coproduct(Countable(), Product(Finite(3), Finite(3))),
    ]
    for sp in spaces:
        assert space_from_json(space_to_json(sp)) == sp
    assert space_to_json(Finite(2)) == {"finite": 2}
    assert space_to_json(Countable()) == "countable"


def test_space_codec_rejects():
    for bad in ("weird", {"finite": True}, {"finite": "2"}, {"real": 1.5},
                {"product": [{"finite": 2}]}, {"finite": 2, "real": 1}, 7):
        with pytest.raises(ModelSyntaxError):
            space_from_json(bad)


def test_value_codec():
    assert value_from_jsonable(Finite(2), 1) == 1
    with pytest.raises(ShapeError):
        value_from_jsonable(Finite(2), 1.0)
    with pytest.raises(ShapeError):
        value_from_jsonable(Finite(2), True)

    v = value_from_jsonable(Real(1), 1)
    assert v == 1.0 and isinstance(v, float)
    assert value_from_jsonable(Real(3), [1, 2, 3]) == (1.0, 2.0, 3.0)
    with pytest.raises(ShapeError):
        value_from_jsonable(Real(3), [1, 2])

    sp = Product(Finite(2), Real(1))
    assert value_from_jsonable(sp, [1, 0.5]) == (1, 0.5)
    with pytest.raises(ShapeError):
        value_from_jsonable(sp, [1])

    co = Coproduct(Finite(2), Real(1))
    assert value_from_jsonable(co, {"inl": 1}) == Inl(1)
    assert value_from_jsonable(co, {"inr": 2}) == Inr(2.0)
    with pytest.raises(ShapeError):
        value_from_jsonable(co, {"both": 1})


def test_value_jsonable_roundtrip():
    sp = Product(Coproduct(Finite(2), Real(1)), Product(Countable(), Real(2)))
    v = (Inr(0.25), (9, (1.5, -2.0)))
    j = value_to_jsonable(v)
    assert j == [{"inr": 0.25}, [9, [1.5, -2.0]]]
    assert value_from_jsonable(sp, json.loads(json.dumps(j))) == v


def test_descriptor_to_json():
    assert descriptor_to_json(FinitePoints((0, 1))) == {"points": [0, 1]}
    assert descriptor_to_json(IntervalBox(((0.0, 1.0), (2.0, 3.0)))) == {
        "box": [[0.0, 1.0], [2.0, 3.0]]}
    nested = ProductSet(FinitePoints((1,)), IntervalBox(((0.0, 0.5),)))
    assert descriptor_to_json(nested) == {
        "product": [{"points": [1]}, {"box": [[0.0, 0.5]]}]}
    both = CoproductSet(FinitePoints((0,)), None)
    assert descriptor_to_json(both) == {"coproduct": [{"points": [0]}, None]}


def test_render_json():
    assert render_json({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'
    assert render_json(1.0) == "1.0"
    assert render_json(0.5) == "0.5"
    assert render_json(0.1) == "0.10000000000000001"
    assert render_json(float("inf")) == "1e9999"
    assert render_json(float("-inf")) == "-1e9999"
    assert math.isinf(json.loads(render_json(float("inf"))))
    assert render_json([1, "x", None, True]) == '[1, "x", null, true]'
    with pytest.raises(ShapeError):
        render_json(float("nan"))
    # 17 significant digits reproduce the double exactly
    for x in (1 / 3, 2.0 ** -40, 1e300, -0.0007):
        assert json.loads(render_json(x)) == x


def test_parse_model_file():
    m = parse_model(str(MODELS / "chain.json"))
    assert m.path and m.path.endswith("chain.json")
    assert m.input_space == UNIT
    assert m.output_space == Finite(2)
    assert marginal_pmf_finite(m.kernel, UNIT_VALUE) == {0: 0.55, 1: 0.45}
    assert m.graph_to_signature_box("b1") == "flip"
    assert m.weight_exprs == {}


def test_model_from_dict_matches_file():
    m = model_from_dict(chain_dict())
    assert marginal_pmf_finite(m.kernel, UNIT_VALUE) == {0: 0.55, 1: 0.45}


def test_print_model_roundtrip():
    m = model_from_dict(chain_dict())
    text = print_model(m)
    assert text.endswith("\n")
    again = model_from_dict(json.loads(text))
    assert print_model(again) == text
    assert marginal_pmf_finite(again.kernel, UNIT_VALUE) == {0: 0.55, 1: 0.45}


def test_weighted_model():
    raw = chain_dict()
    raw["weights"] = {"b2": "if $1 < 1 then 0.0 else 2.0"}
    m = model_from_dict(raw)
    assert m.weight_exprs == {"b2": "if $1 < 1 then 0.0 else 2.0"}
    wk = m.weighted_kernel()
    h = DetMap(Finite(2), Real(1), float, "id")
    assert expected_value_by_enumeration(wk, UNIT_VALUE, h) == pytest.approx(
        0.9, abs=1e-12)

    # the weight follows the surgered interpretation
    surgered = intervene(m.diagram, m.interpretation, {"flip": 1})
    wk2 = m.weighted_kernel(surgered)
    assert expected_value_by_enumeration(wk2, UNIT_VALUE, h) == pytest.approx(
        2.0 * 0.7, abs=1e-12)


def test_weight_reads_dom_then_cod():
    raw = chain_dict()
    # slot 0 is the input wire x, slot 1 the output wire y
    raw["weights"] = {"b2": "if $0 < 1 then 1.0 else 0.0"}
    m = model_from_dict(raw)
    wk = m.weighted_kernel()
    assert wk.log_weight({"b1": 0, "b2": 1}, UNIT_VALUE) == 0.0
    assert wk.log_weight({"b1": 1, "b2": 1}, UNIT_VALUE) == float("-inf")


def test_det_box_model():
    raw = chain_dict()
    raw["signature"]["boxes"]["invert"] = {"dom": ["B"], "cod": ["B"]}
    # plain 1 - $0 would synthesize Countable, which does not fit Finite(2)
    raw["interpretation"]["invert"] = {"det": "if $0 < 1 then 1 else 0"}
    raw["diagram"]["wires"]["z"] = "B"
    raw["diagram"]["boxes"]["b3"] = "invert"
    raw["diagram"]["dom"]["b3"] = ["y"]
    raw["diagram"]["cod"]["b3"] = ["z"]
    raw["diagram"]["outputs"] = ["z"]
    m = model_from_dict(raw)
    assert m.kernel.box_ids == ("b1", "b2")
    assert marginal_pmf_finite(m.kernel, UNIT_VALUE) == {1: 0.55, 0: 0.45}


def test_dirac_and_categorical_params():
    raw = {
        "version": 1,
        "signature": {
            "wires": {"N": {"space": "countable"}, "T": {"space": {"finite": 3}}},
            "boxes": {"pick": {"dom": [], "cod": ["T"]},
                      "tag": {"dom": ["T"], "cod": ["N"]}},
        },
        "diagram": {
            "wires": {"t": "T", "n": "N"},
            "boxes": {"g1": "pick", "g2": "tag"},
            "dom": {"g1": [], "g2": ["t"]},
            "cod": {"g1": ["t"], "g2": ["n"]},
            "inputs": [], "outputs": ["n"],
        },
        "interpretation": {
            "pick": {"primitive": "categorical",
                     "params": {"probs": [0.2, "0.3 + 0.0", 0.5]}},
            "tag": {"primitive": "dirac_countable", "params": {"value": "$0 * 10"}},
        },
    }
    m = model_from_dict(raw)
    # the countable output blocks finite enumeration; check densities instead
    assert joint_log_density(m.kernel, UNIT_VALUE, {"g1": 1, "g2": 10}) == (
        pytest.approx(math.log(0.3), abs=1e-12))
    assert joint_log_density(m.kernel, UNIT_VALUE, {"g1": 2, "g2": 20}) == (
        pytest.approx(math.log(0.5), abs=1e-12))
    assert joint_log_density(m.kernel, UNIT_VALUE, {"g1": 1, "g2": 11}) == float("-inf")
    t, x = sample_model(m.diagram, m.interpretation, UNIT_VALUE, seed=4)
    assert x == t["g1"] * 10 == t["g2"]


def reject(mutate, exc):
    raw = chain_dict()
    mutate(raw)
    with pytest.raises(exc):
        model_from_dict(raw)


def test_structural_rejections():
    reject(lambda r: r.update(version=2), ModelSyntaxError)
    reject(lambda r: r.pop("signature"), ModelSyntaxError)
    reject(lambda r: r.pop("diagram"), ModelSyntaxError)
    reject(lambda r: r.pop("interpretation"), ModelSyntaxError)
    reject(lambda r: r["diagram"].pop("outputs"), ModelSyntaxError)
    reject(lambda r: r["diagram"]["wires"].update(x="NOPE"), ModelSyntaxError)
    reject(lambda r: r["diagram"]["boxes"].update(b1="NOPE"), ModelSyntaxError)
    reject(lambda r: r["signature"]["wires"]["B"].pop("space"), ModelSyntaxError)
    reject(lambda r: r["interpretation"].pop("step"), ModelSyntaxError)
    reject(lambda r: r["interpretation"].update(ghost={"det": "$0"}),
           ModelSyntaxError)
    reject(lambda r: r["interpretation"]["flip"].pop("primitive"),
           ModelSyntaxError)
    reject(lambda r: r["interpretation"]["flip"]["params"].update(q=1),
           ModelSyntaxError)
    # a real parameter is a JSON number or an expression string
    reject(lambda r: r["interpretation"]["flip"]["params"].update(p=True),
           ModelSyntaxError)
    reject(lambda r: r["interpretation"]["flip"]["params"].update(p=[0.5]),
           ModelSyntaxError)
    reject(lambda r: r["interpretation"]["flip"].update(
        primitive="categorical", params={"probs": 0.5}), ModelSyntaxError)
    reject(lambda r: r.update(weights={"nope": "1.0"}), ModelSyntaxError)
    reject(lambda r: r.update(weights={"b2": 3}), ModelSyntaxError)


def test_shape_rejections():
    reject(lambda r: r["interpretation"]["flip"].update(primitive="beta"),
           ShapeError)
    reject(lambda r: r["interpretation"]["flip"]["params"].update(p=2.0),
           ShapeError)
    # an integer parameter's constant is checked by its family's rule
    for value in (0.5, True):
        reject(lambda r: r["interpretation"]["flip"].update(
            primitive="dirac_countable", params={"value": value}), ParameterError)
    # a primitive whose output lands in the wrong space for the wire
    reject(lambda r: r["interpretation"]["flip"].update(
        primitive="normal", params={"mu": 0.0, "sigma": 1.0}), ShapeError)
    reject(lambda r: r["interpretation"]["flip"].update(residual=["B", "B"]),
           ShapeError)
    # weight expressions must check against Real(1)
    reject(lambda r: r.update(weights={"b2": "(1, 2)"}), ShapeError)
    reject(lambda r: r.update(weights={"b2": "$5"}), ShapeError)


def test_wiring_rejections():
    def cycle(r):
        r["diagram"]["dom"]["b1"] = ["y"]

    reject(cycle, DiagramError)

    def dangling(r):
        r["diagram"]["outputs"] = []

    reject(dangling, DiagramError)

    def repeated(r):
        r["diagram"]["outputs"] = ["y", "y"]

    reject(repeated, DiagramError)

    raw = chain_dict()
    raw["diagram"]["dom"]["b1"] = ["y"]
    try:
        model_from_dict(raw)
    except DiagramError as e:
        assert e.violations and any("cycle" in v for v in e.violations)
    else:
        pytest.fail("cycle was accepted")


def test_multi_output_det_box():
    raw = chain_dict()
    raw["signature"]["boxes"]["dup"] = {"dom": ["B"], "cod": ["B", "B"]}
    raw["interpretation"]["dup"] = {"det": ["$0", "if $0 < 1 then 1 else 0"]}
    raw["diagram"]["wires"].update(u="B", v="B")
    raw["diagram"]["boxes"]["b3"] = "dup"
    raw["diagram"]["dom"]["b3"] = ["y"]
    raw["diagram"]["cod"]["b3"] = ["u", "v"]
    raw["diagram"]["outputs"] = ["u", "v"]
    m = model_from_dict(raw)
    pmf = marginal_pmf_finite(m.kernel, UNIT_VALUE)
    assert pmf == {(0, 1): 0.55, (1, 0): 0.45}

    # a primitive cannot fill a two-output box
    bad = copy.deepcopy(raw)
    bad["interpretation"]["dup"] = {"primitive": "bernoulli", "params": {"p": 0.5}}
    with pytest.raises(ShapeError, match="one output wire"):
        model_from_dict(bad)
