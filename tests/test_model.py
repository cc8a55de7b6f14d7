import copy
import json
import math
import struct
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from jointkern import (
    Coproduct,
    CoproductSet,
    Countable,
    DetMap,
    DiagramError,
    ExprSyntaxError,
    ExprTypeError,
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
    membership,
    value_from_jsonable,
    value_to_jsonable,
    descriptor_to_json,
)
from jointkern.cli import _record_encoder, _uniforms_encoder, main
from jointkern.model import _float_text, value_encoder

from support import count_calls

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
    with pytest.raises(ShapeError, match="integer too large for a float"):
        value_from_jsonable(Real(1), -10 ** 400)
    assert value_from_jsonable(Real(3), [1, 2, 3]) == (1.0, 2.0, 3.0)
    for bad in ([1, 2], ["a", 1, 2], [True, 1, 2], [1, None, 2], [1, 10 ** 400, 2]):
        with pytest.raises(ShapeError):
            value_from_jsonable(Real(3), bad)

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


def _reference_float_text(x: float) -> str:
    """_float_text as math's tests for an infinity and NaN, run before
    formatting, define it."""
    if math.isinf(x):
        return "-1e9999" if x < 0 else "1e9999"
    if math.isnan(x):
        raise ShapeError("cannot serialize NaN")
    s = "%.17g" % x
    if s.lstrip("-").isdigit():
        s += ".0"
    return s


def _text_or_error(float_text, x: float):
    try:
        return float_text(x)
    except ShapeError as e:
        return str(e)


# the float of every 64-bit pattern
_FLOAT_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


@settings(derandomize=True, max_examples=1000)
@given(_FLOAT_BITS)
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(1e16)
@example(-1e16)
@example(1e17)
@example(5e-324)
def test_float_text_reads_the_formatted_text(x):
    # every 64-bit pattern, NaNs among them, renders as the tests render it
    assert _text_or_error(_float_text, x) == _text_or_error(_reference_float_text, x)


_REALS = st.floats(allow_nan=False, allow_infinity=False)
_LEAVES = st.one_of(
    _REALS.map(lambda x: (Real(1), x)),
    st.lists(_REALS, min_size=2, max_size=4).map(lambda xs: (Real(len(xs)), tuple(xs))),
    st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(Finite(n)), st.integers(0, n - 1))),
    st.integers(-10 ** 20, 10 ** 20).map(lambda m: (Countable(), m)),
)


def _pairs(inner):
    """A product or coproduct of two (space, point) pairs, and a point of it."""
    return st.one_of(
        st.tuples(inner, inner).map(
            lambda ab: (Product(ab[0][0], ab[1][0]), (ab[0][1], ab[1][1]))),
        st.tuples(inner, inner, st.booleans()).map(
            lambda abl: (Coproduct(abl[0][0], abl[1][0]),
                         Inl(abl[0][1]) if abl[2] else Inr(abl[1][1]))),
    )


# every codomain a model file can give, with one of its points
POINTS = st.recursive(_LEAVES, _pairs, max_leaves=6)
LOGPDFS = st.one_of(st.just(float("-inf")), st.floats(allow_nan=False))
# box ids: any text, and text made of what a JSON string escapes or keeps
# as is past ASCII: quote, backslash, control characters, non-ASCII
BOX_IDS = st.one_of(
    st.text(min_size=1, max_size=4),
    st.text(st.sampled_from('"\\\x00\x1f\n\t\x7fé日\u2028\U0001f600a'), min_size=1, max_size=4))


@settings(derandomize=True, max_examples=400)
@given(POINTS)
def test_value_encoder_matches_render_json(point):
    space, v = point
    assert membership(space, v)
    assert value_encoder(space)(v) == render_json(value_to_jsonable(v))


@settings(derandomize=True, max_examples=200)
@given(st.dictionaries(BOX_IDS, POINTS, max_size=4), POINTS, LOGPDFS)
def test_record_encoder_matches_render_json(boxes, output, logpdf):
    t = {b: v for b, (_, v) in boxes.items()}
    encode = _record_encoder({b: sp for b, (sp, _) in boxes.items()}, output[0])
    assert encode(t, output[1], logpdf) == render_json({
        "trace": {b: value_to_jsonable(v) for b, v in t.items()},
        "output": value_to_jsonable(output[1]),
        "logpdf": logpdf,
    })


@settings(derandomize=True, max_examples=200)
@given(st.dictionaries(BOX_IDS, POINTS, max_size=4), POINTS)
def test_cf_record_encoder_matches_render_json(boxes, output):
    t = {b: v for b, (_, v) in boxes.items()}
    encode = _record_encoder({b: sp for b, (sp, _) in boxes.items()}, output[0], scored=False)
    assert encode(t, output[1]) == render_json({
        "trace": {b: value_to_jsonable(v) for b, v in t.items()},
        "output": value_to_jsonable(output[1]),
    })


# abducted blocks are uniforms, but the encoder must render any float as
# render_json does, infinities included
_BLOCKS = st.lists(st.floats(allow_nan=False), max_size=3).map(tuple)


@settings(derandomize=True, max_examples=200)
@given(st.dictionaries(BOX_IDS, _BLOCKS, max_size=4))
def test_uniforms_encoder_matches_render_json(u):
    encode = _uniforms_encoder(list(u))
    assert encode(u) == render_json({b: list(block) for b, block in u.items()})


def test_encoders_render_infinities_and_reject_nan():
    encode = _uniforms_encoder(["g", "a"])
    inf = float("inf")
    assert encode({"g": (-inf, inf), "a": ()}) == '{"a": [], "g": [-1e9999, 1e9999]}'
    with pytest.raises(ShapeError, match="NaN"):
        encode({"g": (0.5, float("nan")), "a": ()})
    encode = _record_encoder({"x": Real(1)}, Real(2), scored=False)
    assert encode({"x": -inf}, (inf, 0.0)) == (
        '{"output": [1e9999, 0.0], "trace": {"x": -1e9999}}')
    with pytest.raises(ShapeError, match="NaN"):
        encode({"x": float("nan")}, (0.0, 0.0))


def test_record_encoder_renders_zero_density_and_rejects_nan():
    encode = _record_encoder({"g": Finite(2)}, Finite(2))
    assert encode({"g": 0}, 0, float("-inf")) == '{"logpdf": -1e9999, "output": 0, "trace": {"g": 0}}'
    with pytest.raises(ShapeError, match="NaN"):
        encode({"g": 0}, 0, float("nan"))


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


def test_weight_expressions_are_parsed_once(monkeypatch):
    import jointkern.expr as expr

    lexed = []
    lex = expr._lex

    def counting(text):
        lexed.append(text)
        return lex(text)

    monkeypatch.setattr(expr, "_lex", counting)
    m = parse_model(str(MODELS / "weighted.json"))
    m.weighted_kernel()
    m.weighted_kernel()
    assert m.weight_exprs
    for text in m.weight_exprs.values():
        assert lexed.count(text) == 1, text


def test_weight_reads_dom_then_cod():
    raw = chain_dict()
    # slot 0 is the input wire x, slot 1 the output wire y
    raw["weights"] = {"b2": "if $0 < 1 then 1.0 else 0.0"}
    m = model_from_dict(raw)
    wk = m.weighted_kernel()
    assert wk.log_weight({"b1": 0, "b2": 1}, UNIT_VALUE) == 0.0
    assert wk.log_weight({"b1": 1, "b2": 1}, UNIT_VALUE) == float("-inf")


def test_weight_factors_pack_wire_values_as_a_box_reads_them(monkeypatch):
    # one wire is its value and two a pair, with no nest_values call, as a
    # box reads them; three are the left-nested tuple ((x, y), z)
    import jointkern.kernels as kernels

    raw = chain_dict()
    raw["signature"]["boxes"]["sum"] = {"dom": ["B", "B"], "cod": ["B"]}
    raw["interpretation"]["sum"] = {"det": "if $0 + $1 < 1 then 0 else 1"}
    raw["diagram"]["wires"]["z"] = "B"
    raw["diagram"]["boxes"]["b3"] = "sum"
    raw["diagram"]["dom"]["b3"] = ["x", "y"]
    raw["diagram"]["cod"]["b3"] = ["z"]
    raw["diagram"]["outputs"] = ["z"]
    raw["weights"] = {"b1": "1.0 + $0", "b2": "1.0 + $0 + 2 * $1",
                      "b3": "1.0 + $0 + 2 * $1 + 4 * $2"}
    wk = model_from_dict(raw).weighted_kernel()
    packs = count_calls(monkeypatch, kernels, "nest_values")
    for x in (0, 1):
        for y in (0, 1):
            z = 0 if x + y < 1 else 1
            want = math.log(1 + x) + math.log(1 + x + 2 * y) + math.log(1 + x + 2 * y + 4 * z)
            got = wk.log_weight({"b1": x, "b2": y}, UNIT_VALUE)
            assert got == pytest.approx(want, abs=1e-15)
    assert packs[0] == 4  # b3's factor, once per call

    wk = parse_model(str(MODELS / "weighted.json")).weighted_kernel()
    packs = count_calls(monkeypatch, kernels, "nest_values")
    assert wk.log_weight({"b1": 0, "b2": 1}, UNIT_VALUE) == math.log(2.0)
    assert packs[0] == 0


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
    for version in (True, 1.0, "1"):
        reject(lambda r: r.update(version=version), ModelSyntaxError)
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


def _mutations(node, path=()):
    """(path, replacement) for each structural field under node: a list
    becomes a string, a number, null or a nested list; a string becomes a
    list; an object becomes the list of its keys."""
    if isinstance(node, dict):
        yield path, list(node)
        for key, value in node.items():
            yield from _mutations(value, path + (key,))
    elif isinstance(node, list):
        for bad in ("".join(x for x in node if isinstance(x, str)), 5, None, [node]):
            yield path, bad
        for i, value in enumerate(node):
            yield from _mutations(value, path + (i,))
    elif isinstance(node, str):
        yield path, [node]


def _replaced(raw, path, value):
    if not path:
        return value
    out = copy.deepcopy(raw)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize("name", ["chain.json", "weighted.json"])
def test_wrong_json_types_in_structural_fields_exit_cleanly(capsys, tmp_path, name):
    raw = json.loads((MODELS / name).read_text())
    # fields the fixtures leave out
    interp = ("interpretation", "flip")
    extra = [(interp + ("residual",), bad) for bad in (5, [[1]], "B", None)]
    extra.append((interp + ("primitive",), []))
    path = tmp_path / name
    seen = 0
    for where, bad in [*_mutations(raw), *extra]:
        path.write_text(json.dumps(_replaced(raw, where, bad)))
        code = main(["validate", str(path)])
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert code in (3, 4, 5) and out == "", (where, bad, code)
        assert lines[0].startswith("error: "), (where, bad)
        assert all(line.startswith("  - ") for line in lines[1:]), (where, bad)
        seen += 1
    assert seen > 60


def test_wire_lists_are_not_read_as_strings(capsys, tmp_path):
    cases = [
        (("signature", "boxes", "step", "dom"), "B", "signature box 'step' dom"),
        (("diagram", "dom", "b2"), "x", "diagram dom for 'b2'"),
        (("diagram", "cod", "b1"), "x", "diagram cod for 'b1'"),
        (("diagram", "inputs"), "", "diagram inputs"),
        (("diagram", "outputs"), "y", "diagram outputs"),
        (("interpretation", "flip", "residual"), "B", "residual for 'flip'"),
    ]
    path = tmp_path / "chain.json"
    for where, bad, field in cases:
        path.write_text(json.dumps(_replaced(chain_dict(), where, bad)))
        assert main(["validate", str(path)]) == 3, where
        assert capsys.readouterr().err == f"error: {field} must be a list of wire ids\n"
    for where, message in (
            (("diagram", "wires", "x"), "diagram wire 'x' references unknown type ['x']"),
            (("diagram", "boxes", "b1"), "diagram box 'b1' references unknown box ['x']"),
            (("interpretation", "flip", "primitive"), "primitive for 'flip' must be a string"),
            (("diagram", "dom"), "diagram dom must be an object")):
        with pytest.raises(ModelSyntaxError) as e:
            model_from_dict(_replaced(chain_dict(), where, ["x"]))
        assert str(e.value) == message, where


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


def test_explicit_residuals():
    def with_residuals(**residuals) -> dict:
        raw = chain_dict()
        for box, labels in residuals.items():
            raw["interpretation"][box]["residual"] = labels
        return raw

    m = model_from_dict(with_residuals(flip=["B"], step=["B"]))
    assert dict(m.interpretation.residual_labels) == {"flip": ("B",), "step": ("B",)}
    # every misfit is reported, in signature box order
    with pytest.raises(ShapeError) as e:
        model_from_dict(with_residuals(flip=["B", "B"], step=["Z"]))
    assert str(e.value) == (
        "interpretation does not fit the signature: box 'flip' residual Finite(size=2) "
        "!= labeled space Product(left=Finite(size=2), right=Finite(size=2)); "
        "box 'step' residual labels use unknown wires")
    # a later box's parameter error comes first
    raw = with_residuals(flip=[])
    raw["interpretation"]["step"]["params"]["p"] = "$7"
    with pytest.raises(ShapeError, match=r"input \$7 out of range"):
        model_from_dict(raw)
    with pytest.raises(ModelSyntaxError, match="residual for 'flip' must be a list"):
        model_from_dict(with_residuals(flip=5))


def _expression_error(raw, tmp_path, capsys, exc, message, pos, code):
    """model_from_dict raises exc with message and pos; validate exits code
    with the message as its one stderr line."""
    with pytest.raises(exc) as e:
        model_from_dict(raw)
    assert str(e.value) == message and e.value.pos == pos
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_expression_errors_name_their_parameter(tmp_path, capsys):
    raw = chain_dict()
    raw["interpretation"]["step"]["params"]["p"] = "$7"
    _expression_error(raw, tmp_path, capsys, ExprTypeError,
                      "box 'step' parameter 'p': input $7 out of range (at offset 0)", 0, 4)
    raw["interpretation"]["step"]["params"]["p"] = "0.5 +"
    _expression_error(raw, tmp_path, capsys, ExprSyntaxError,
                      "box 'step' parameter 'p': unexpected token None (at offset 5)", 5, 3)


def test_expression_errors_name_their_det_output(tmp_path, capsys):
    raw = chain_dict()
    raw["signature"]["boxes"]["dup"] = {"dom": ["B"], "cod": ["B", "B"]}
    raw["interpretation"]["dup"] = {"det": ["$0", "if $9 < 1 then 1 else 0"]}
    raw["diagram"]["wires"].update(u="B", v="B")
    raw["diagram"]["boxes"]["b3"] = "dup"
    raw["diagram"]["dom"]["b3"] = ["y"]
    raw["diagram"]["cod"]["b3"] = ["u", "v"]
    raw["diagram"]["outputs"] = ["u", "v"]
    _expression_error(raw, tmp_path, capsys, ExprTypeError,
                      "box 'dup' det[1]: input $9 out of range (at offset 3)", 3, 4)
    raw["interpretation"]["dup"] = {"det": ["$0", "if"]}
    _expression_error(raw, tmp_path, capsys, ExprSyntaxError,
                      "box 'dup' det[1]: unexpected token None (at offset 2)", 2, 3)
    raw["interpretation"]["dup"] = {"det": "$0"}
    _expression_error(raw, tmp_path, capsys, ExprTypeError,
                      "box 'dup' det: 2 output expressions needed, got 1", -1, 4)


def test_expression_errors_name_their_weight(tmp_path, capsys):
    raw = chain_dict()
    raw["weights"] = {"b2": "1.0 + $5"}
    _expression_error(raw, tmp_path, capsys, ExprTypeError,
                      "weight of box 'b2': input $5 out of range (at offset 6)", 6, 4)
    raw["weights"] = {"b2": "(("}
    _expression_error(raw, tmp_path, capsys, ExprSyntaxError,
                      "weight of box 'b2': unexpected token None (at offset 2)", 2, 3)


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
