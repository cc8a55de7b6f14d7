"""Model files: a JSON schema binding diagrams to interpretations.

Schema (version 1):

    {
      "version": 1,
      "signature": {
        "wires": {"B": {"space": {"finite": 2}}, ...},
        "boxes": {"flip": {"dom": [], "cod": ["B"]}, ...}
      },
      "diagram": {
        "wires": {"wb": "B", ...},          graph wire -> signature wire
        "boxes": {"b1": "flip", ...},       graph box -> signature box
        "dom": {"b1": [], ...},
        "cod": {"b1": ["wb"], ...},
        "inputs": [], "outputs": ["wx"]
      },
      "interpretation": {
        "flip": {"primitive": "bernoulli", "params": {"p": 0.5}},
        "norm": {"det": "$0 + $1"},          or "det": ["e0", "e1", ...]
        ...                                  optional "residual": [wires]
      },
      "weights": {"b2": "expression"}        optional, keyed by graph box
    }

Spaces: {"finite": n} | "countable" | {"real": d} | {"product": [a, b]} |
{"coproduct": [a, b]}. A primitive takes the parameters of its family in
primitives.FAMILIES (tabled in README.md); a parameter left out takes its
default, and only categorical's probs list is required. Each is a constant
or an expression string over the box's input slots that checks against the
parameter's shape; a real parameter's constant must be a JSON number.
Weight expressions see the box's input wire values followed by its output
wire values and must be nonnegative reals. Values serialize as numbers,
pair arrays, and {"inl": v}/{"inr": v}.

Error classes map to CLI exit codes: ModelSyntaxError for malformed or
unresolved structure, ShapeError family for type and parameter problems,
DiagramError for wiring violations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

from .diagrams import Diagram, Hypergraph, HypMorphism, is_causal_model
from .errors import DiagramError, ModelSyntaxError, ShapeError
from .expr import (
    check_expression, compile_det_map, evaluate_expression, parse_expression,
)
from .interpret import Interpretation, check_interpretation, evaluate
from .kernels import JointKernel, from_primitive, lift_det
from .primitives import FAMILIES, instantiate
from .spaces import (
    Coproduct, CoproductSet, Countable, Finite, FinitePoints, Inl, Inr,
    IntervalBox, Product, ProductSet, Real, Space, Value, nest_product,
    unnest_values,
)
from .weighted import WeightFactor, WeightedJointKernel

__all__ = [
    "Model", "parse_model", "model_from_dict", "print_model", "render_json",
    "space_to_json", "space_from_json", "value_to_jsonable",
    "value_from_jsonable", "descriptor_to_json",
]


# ---------------------------------------------------------------------------
# JSON codecs


def space_to_json(sp: Space):
    if isinstance(sp, Finite):
        return {"finite": sp.size}
    if isinstance(sp, Countable):
        return "countable"
    if isinstance(sp, Real):
        return {"real": sp.dim}
    if isinstance(sp, Product):
        return {"product": [space_to_json(sp.left), space_to_json(sp.right)]}
    if isinstance(sp, Coproduct):
        return {"coproduct": [space_to_json(sp.left), space_to_json(sp.right)]}
    raise ShapeError(f"not a Space: {sp!r}")


def space_from_json(j) -> Space:
    if j == "countable":
        return Countable()
    if isinstance(j, dict) and len(j) == 1:
        (kind, v), = j.items()
        if kind == "finite":
            if not isinstance(v, int) or isinstance(v, bool):
                raise ModelSyntaxError(f"finite size must be an integer, got {v!r}")
            return Finite(v)
        if kind == "real":
            if not isinstance(v, int) or isinstance(v, bool):
                raise ModelSyntaxError(f"real dimension must be an integer, got {v!r}")
            return Real(v)
        if kind in ("product", "coproduct"):
            if not isinstance(v, list) or len(v) != 2:
                raise ModelSyntaxError(f"{kind} needs a two-element list")
            cls = Product if kind == "product" else Coproduct
            return cls(space_from_json(v[0]), space_from_json(v[1]))
    raise ModelSyntaxError(f"not a space encoding: {j!r}")


def value_to_jsonable(v: Value):
    if isinstance(v, Inl):
        return {"inl": value_to_jsonable(v.value)}
    if isinstance(v, Inr):
        return {"inr": value_to_jsonable(v.value)}
    if isinstance(v, tuple):
        return [value_to_jsonable(x) for x in v]
    return v


def value_from_jsonable(space: Space, j) -> Value:
    """Space-guided decoding, so 1 and 1.0 land in the right space."""
    if isinstance(space, (Finite, Countable)):
        if isinstance(j, int) and not isinstance(j, bool):
            return j
        raise ShapeError(f"expected an integer for {space!r}, got {j!r}")
    if isinstance(space, Real):
        if space.dim == 1:
            if isinstance(j, (int, float)) and not isinstance(j, bool):
                return float(j)
            raise ShapeError(f"expected a number for {space!r}, got {j!r}")
        if isinstance(j, list) and len(j) == space.dim:
            return tuple(float(x) for x in j)
        raise ShapeError(f"expected {space.dim} numbers for {space!r}, got {j!r}")
    if isinstance(space, Product):
        if isinstance(j, list) and len(j) == 2:
            return (value_from_jsonable(space.left, j[0]),
                    value_from_jsonable(space.right, j[1]))
        raise ShapeError(f"expected a two-element array for {space!r}, got {j!r}")
    if isinstance(space, Coproduct):
        if isinstance(j, dict) and len(j) == 1:
            (tag, inner), = j.items()
            if tag == "inl":
                return Inl(value_from_jsonable(space.left, inner))
            if tag == "inr":
                return Inr(value_from_jsonable(space.right, inner))
        raise ShapeError(f"expected an inl/inr object for {space!r}, got {j!r}")
    raise ShapeError(f"not a Space: {space!r}")


def descriptor_to_json(desc):
    if isinstance(desc, FinitePoints):
        return {"points": [value_to_jsonable(p) for p in desc.points]}
    if isinstance(desc, IntervalBox):
        return {"box": [[lo, hi] for lo, hi in desc.intervals]}
    if isinstance(desc, ProductSet):
        return {"product": [descriptor_to_json(desc.left), descriptor_to_json(desc.right)]}
    if isinstance(desc, CoproductSet):
        return {"coproduct": [
            None if desc.left_part is None else descriptor_to_json(desc.left_part),
            None if desc.right_part is None else descriptor_to_json(desc.right_part),
        ]}
    raise ShapeError(f"not a set descriptor: {desc!r}")


def _float_text(x: float) -> str:
    """17 significant digits; always distinguishable from an integer."""
    if math.isinf(x):
        return "-1e9999" if x < 0 else "1e9999"
    if math.isnan(x):
        raise ShapeError("cannot serialize NaN")
    s = "%.17g" % x
    if s.lstrip("-").isdigit():
        s += ".0"
    return s


def render_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(x) for x in obj) + "]"
    if isinstance(obj, dict):
        parts = [f"{json.dumps(str(k))}: {render_json(v)}" for k, v in sorted(obj.items())]
        return "{" + ", ".join(parts) + "}"
    raise ShapeError(f"cannot serialize {obj!r}")


# ---------------------------------------------------------------------------
# model parsing


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise ModelSyntaxError(f"{where} must be an object")
    if key not in obj:
        raise ModelSyntaxError(f"{where} is missing {key!r}")
    return obj[key]


def _build_param(value, dom_spaces: list, shape: Space):
    """An expression string becomes a callable of the box input; a real
    parameter's constant must be a JSON number, as true would pass for 1.0.
    Other constants are left to the family's rule."""
    if isinstance(value, str):
        ast = parse_expression(value)
        check_expression(ast, dom_spaces, shape)
        n = len(dom_spaces)
        return lambda z: evaluate_expression(ast, unnest_values(z, n))
    if isinstance(shape, Real) and (
            isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ModelSyntaxError(f"parameter must be a number or expression, got {value!r}")
    return value


@dataclass(eq=False)
class Model:
    """A parsed, fully validated model file."""

    raw: dict
    signature: Hypergraph
    diagram: Diagram
    interpretation: Interpretation
    weight_exprs: dict = field(default_factory=dict)  # graph box -> source text
    path: str | None = None

    @cached_property
    def kernel(self) -> JointKernel:
        return evaluate(self.diagram, self.interpretation)

    @property
    def input_space(self) -> Space:
        return nest_product(
            [self.interpretation.wire_spaces[l] for l in self.diagram.input_types()])

    @property
    def output_space(self) -> Space:
        return nest_product(
            [self.interpretation.wire_spaces[l] for l in self.diagram.output_types()])

    def weight_factors(self, interp: Interpretation | None = None) -> tuple:
        """One factor per weighted graph box, reading its wire values' slots
        in the kernel evaluated under interp."""
        interp = interp or self.interpretation
        g = self.diagram.graph
        slot = evaluate(self.diagram, interp).wires
        factors = []
        for b, text in sorted(self.weight_exprs.items()):
            ast = parse_expression(text)

            def factor(t, *values, _ast=ast):
                return float(evaluate_expression(_ast, values))

            factors.append(WeightFactor(factor, tuple(slot[w] for w in g.dom[b] + g.cod[b])))
        return tuple(factors)

    def weighted_kernel(self, interp: Interpretation | None = None) -> WeightedJointKernel:
        interp = interp or self.interpretation
        return WeightedJointKernel(evaluate(self.diagram, interp),
                                   self.weight_factors(interp))

    def graph_to_signature_box(self, graph_box: str) -> str:
        return self.diagram.box_label[graph_box]


def parse_model(path: str) -> Model:
    """Read and validate a model file. OSError propagates for the CLI."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelSyntaxError(f"not valid JSON: {e}") from None
    return model_from_dict(raw, path)


def _hypergraph(wires, boxes, dom, cod, where: str) -> Hypergraph:
    try:
        return Hypergraph(wires, boxes, dom, cod)
    except DiagramError as e:
        raise ModelSyntaxError(f"{where}: {e}") from None


def model_from_dict(raw: dict, path: str | None = None) -> Model:
    version = _need(raw, "version", "model")
    if version != 1:
        raise ModelSyntaxError(f"unsupported schema version {version!r}")

    # signature
    sig_j = _need(raw, "signature", "model")
    wires_j = _need(sig_j, "wires", "signature")
    boxes_j = _need(sig_j, "boxes", "signature")
    if not isinstance(wires_j, dict) or not isinstance(boxes_j, dict):
        raise ModelSyntaxError("signature wires/boxes must be objects")
    wire_spaces = {}
    for w, entry in wires_j.items():
        wire_spaces[w] = space_from_json(_need(entry, "space", f"signature wire {w!r}"))
    sig_dom, sig_cod = {}, {}
    for b, entry in boxes_j.items():
        sig_dom[b] = _need(entry, "dom", f"signature box {b!r}")
        sig_cod[b] = _need(entry, "cod", f"signature box {b!r}")
    signature = _hypergraph(list(wires_j), list(boxes_j), sig_dom, sig_cod, "signature")

    # diagram
    dia_j = _need(raw, "diagram", "model")
    gw = _need(dia_j, "wires", "diagram")
    gb = _need(dia_j, "boxes", "diagram")
    if not isinstance(gw, dict) or not isinstance(gb, dict):
        raise ModelSyntaxError("diagram wires/boxes must be objects")
    for w, lab in gw.items():
        if lab not in wire_spaces:
            raise ModelSyntaxError(f"diagram wire {w!r} references unknown type {lab!r}")
    for b, lab in gb.items():
        if lab not in boxes_j:
            raise ModelSyntaxError(f"diagram box {b!r} references unknown box {lab!r}")
    graph = _hypergraph(
        list(gw), list(gb),
        _need(dia_j, "dom", "diagram"), _need(dia_j, "cod", "diagram"), "diagram")
    diagram = Diagram(
        graph=graph,
        signature=signature,
        labeling=HypMorphism(dict(gw), dict(gb)),
        inputs=_need(dia_j, "inputs", "diagram"),
        outputs=_need(dia_j, "outputs", "diagram"),
    )
    diagram.plan  # validate once; evaluate reuses the order
    if not is_causal_model(diagram):
        raise DiagramError("diagram is not a causal model", ["outputs repeat a wire"])

    # interpretation
    interp_j = _need(raw, "interpretation", "model")
    if not isinstance(interp_j, dict):
        raise ModelSyntaxError("interpretation must be an object")
    stray = [b for b in interp_j if b not in boxes_j]
    if stray:
        raise ModelSyntaxError(f"interpretation references unknown boxes {stray}")
    box_kernels = {}
    residual_labels = {}
    for b in signature.boxes:
        if b not in interp_j:
            raise ModelSyntaxError(f"interpretation is missing box {b!r}")
        entry = interp_j[b]
        dom_spaces = [wire_spaces[w] for w in signature.dom[b]]
        cod_spaces = [wire_spaces[w] for w in signature.cod[b]]
        if not isinstance(entry, dict):
            raise ModelSyntaxError(f"interpretation for {b!r} must be an object")
        if "primitive" in entry:
            if len(cod_spaces) != 1:
                raise ShapeError(
                    f"primitive box {b!r} must have exactly one output wire")
            name = entry["primitive"]
            family = FAMILIES.get(name)
            if family is None:
                raise ShapeError(f"unknown primitive {name!r} for box {b!r}")
            params_j = entry.get("params", {})
            if not isinstance(params_j, dict):
                raise ModelSyntaxError(f"params for {b!r} must be an object")
            bad_keys = set(params_j) - family.params.keys()
            if bad_keys:
                raise ModelSyntaxError(
                    f"{name!r} does not take parameters {sorted(bad_keys)}")
            params = {}
            for key, value in params_j.items():
                param = family.params[key]
                if not param.many:
                    params[key] = _build_param(value, dom_spaces, param.shape)
                elif isinstance(value, list):
                    params[key] = [_build_param(q, dom_spaces, param.shape) for q in value]
                else:
                    raise ModelSyntaxError(f"{key} for {b!r} must be a list")
            prim = instantiate(name, params, dom=nest_product(dom_spaces))
            if prim.cod != cod_spaces[0]:
                raise ShapeError(
                    f"box {b!r}: primitive {name!r} yields {prim.cod!r}, "
                    f"wire needs {cod_spaces[0]!r}")
            box_kernels[b] = from_primitive(prim, b)
            default_residual = tuple(signature.cod[b])
        elif "det" in entry:
            exprs = entry["det"]
            if isinstance(exprs, str):
                exprs = [exprs]
            if not isinstance(exprs, list) or not all(isinstance(e, str) for e in exprs):
                raise ModelSyntaxError(f"det for {b!r} must be a string or list of strings")
            det = compile_det_map(exprs, dom_spaces, cod_spaces, name=b)
            box_kernels[b] = lift_det(det)
            default_residual = ()
        else:
            raise ModelSyntaxError(
                f"interpretation for {b!r} needs 'primitive' or 'det'")
        residual_labels[b] = tuple(entry.get("residual", default_residual))

    interp = Interpretation(wire_spaces, box_kernels, residual_labels)
    problems = check_interpretation(signature, interp)
    if problems:
        raise ShapeError("interpretation does not fit the signature: " + "; ".join(problems))

    # weights
    weight_exprs = {}
    weights_j = raw.get("weights", {})
    if not isinstance(weights_j, dict):
        raise ModelSyntaxError("weights must be an object")
    for b, text in weights_j.items():
        if b not in gb:
            raise ModelSyntaxError(f"weight references unknown diagram box {b!r}")
        if not isinstance(text, str):
            raise ModelSyntaxError(f"weight for {b!r} must be an expression string")
        ast = parse_expression(text)
        slots = [wire_spaces[gw[w]] for w in graph.dom[b]] + \
                [wire_spaces[gw[w]] for w in graph.cod[b]]
        check_expression(ast, slots, Real(1))
        weight_exprs[b] = text

    # with the plan and the interpretation checked, compiling cannot fail,
    # so the kernel is left to the first query that runs it
    return Model(raw, signature, diagram, interp, weight_exprs, path)


def print_model(model: Model) -> str:
    """Render the parsed file back out; parse(print(m)) equals m structurally."""
    return render_json(model.raw) + "\n"
