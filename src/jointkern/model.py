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
DiagramError for wiring violations. An expression error keeps its class
and offset, and its message starts with the field that holds the text:
"box 'b' parameter 'p': ", "box 'b' det[0]: " or "weight of box 'b2': ".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from .diagrams import Diagram, Hypergraph, HypMorphism, is_causal_model
from .errors import (
    DiagramError, ExprSyntaxError, ExprTypeError, ModelSyntaxError, ShapeError,
)
from .expr import _compile, _located, compile_det_map
from .interpret import Interpretation, _residual_misfits, evaluate
from .kernels import JointKernel, _reader, from_primitive, lift_det
from .primitives import FAMILIES, instantiate
from .spaces import (
    Coproduct, CoproductSet, Countable, Finite, FinitePoints, Inl, Inr,
    IntervalBox, Product, ProductSet, Real, Space, Value, nest_product, spine,
)
from .weighted import WeightFactor, WeightedJointKernel

__all__ = [
    "Model", "parse_model", "model_from_dict", "print_model", "render_json",
    "space_to_json", "space_from_json", "value_to_jsonable",
    "value_from_jsonable", "value_decoder", "value_encoder", "descriptor_to_json",
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


def _is_number(j) -> bool:
    """A JSON number: an int or a float, and not a bool."""
    return isinstance(j, (int, float)) and not isinstance(j, bool)


def _real_from_json(space: Real, j) -> float:
    try:
        return float(j)
    except OverflowError:  # an integer past the float range
        raise ShapeError(
            f"expected a number for {space!r}, got an integer too large for a float") from None


def value_from_jsonable(space: Space, j) -> Value:
    """Space-guided decoding, so 1 and 1.0 land in the right space."""
    return value_decoder(space)(j)


def value_decoder(space: Space):
    """j -> value_from_jsonable(space, j) for every JSON value j, with the
    space's shape read once, here, rather than per value. Real(1)'s decoder
    returns a JSON float as it is, since float() would return that float."""
    if isinstance(space, (Finite, Countable)):
        def decode(j):
            if isinstance(j, int) and not isinstance(j, bool):
                return j
            raise ShapeError(f"expected an integer for {space!r}, got {j!r}")
    elif isinstance(space, Real) and space.dim == 1:
        def decode(j):
            if j.__class__ is float:
                return j
            if _is_number(j):
                return _real_from_json(space, j)
            raise ShapeError(f"expected a number for {space!r}, got {j!r}")
    elif isinstance(space, Real):
        def decode(j):
            if isinstance(j, list) and len(j) == space.dim and all(map(_is_number, j)):
                return tuple(_real_from_json(space, x) for x in j)
            raise ShapeError(f"expected {space.dim} numbers for {space!r}, got {j!r}")
    elif isinstance(space, Product):
        return _spine_decoder(space)
    elif isinstance(space, Coproduct):
        left, right = value_decoder(space.left), value_decoder(space.right)

        def decode(j):
            if isinstance(j, dict) and len(j) == 1:
                (tag, inner), = j.items()
                if tag == "inl":
                    return Inl(left(inner))
                if tag == "inr":
                    return Inr(right(inner))
            raise ShapeError(f"expected an inl/inr object for {space!r}, got {j!r}")
    else:
        raise ShapeError(f"not a Space: {space!r}")
    return decode


def _spine_decoder(space: Product):
    """value_decoder of a product, which walks its left spine in a loop
    rather than one call per factor. Its errors come in the order of a
    decoder that recursed into the left factor first: each level's pair
    shape top down, then the innermost left value, then the right values
    bottom up."""
    levels = [(p, value_decoder(p.right)) for p in spine(space)]  # outermost first
    first = value_decoder(levels[-1][0].left)

    def decode(j):
        rights = []
        for product, _ in levels:
            if not (isinstance(j, list) and len(j) == 2):
                raise ShapeError(f"expected a two-element array for {product!r}, got {j!r}")
            rights.append(j[1])
            j = j[0]
        v = first(j)
        for (_, right), r in zip(reversed(levels), reversed(rights)):
            v = (v, right(r))
        return v

    return decode


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
    """17 significant digits; always distinguishable from an integer. An
    infinity prints as the JSON number past the float range of its sign,
    and NaN is refused. %.17g ends a finite float in a digit and an
    infinity or NaN in a letter, so its last character tells them apart."""
    s = "%.17g" % x
    if s[-1] <= "9":
        return s if "." in s or "e" in s else s + ".0"
    if x != x:
        raise ShapeError("cannot serialize NaN")
    return "-1e9999" if x < 0 else "1e9999"


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


def _floats_text(v) -> str:
    """A sequence of floats as render_json renders the list of them."""
    if len(v) == 1:  # a box's uniform block: no join to build
        return "[" + _float_text(v[0]) + "]"
    return "[" + ", ".join(map(_float_text, v)) + "]"


def value_encoder(space: Space):
    """v -> render_json(value_to_jsonable(v)) for every point v of space,
    with the space's shape read once, here, rather than per value."""
    if isinstance(space, (Finite, Countable)):
        return str
    if isinstance(space, Real):
        return _float_text if space.dim == 1 else _floats_text
    if isinstance(space, Product):
        return _spine_encoder(space)
    if isinstance(space, Coproduct):
        left, right = value_encoder(space.left), value_encoder(space.right)
        return lambda v: ('{"inl": ' + left(v.value) + "}" if isinstance(v, Inl)
                          else '{"inr": ' + right(v.value) + "}")
    raise ShapeError(f"not a Space: {space!r}")


def _spine_encoder(space: Product):
    """value_encoder of a product, which walks its left spine in a loop
    rather than one call per factor."""
    levels = spine(space)
    rights = [value_encoder(p.right) for p in levels]
    first, opening = value_encoder(levels[-1].left), "[" * len(levels)

    def encode(v):
        closing = []
        for right in rights:
            closing.append(", " + right(v[1]) + "]")
            v = v[0]
        return opening + first(v) + "".join(reversed(closing))

    return encode


# ---------------------------------------------------------------------------
# model parsing


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise ModelSyntaxError(f"{where} must be an object")
    if key not in obj:
        raise ModelSyntaxError(f"{where} is missing {key!r}")
    return obj[key]


_is_list, _is_str = list.__instancecheck__, str.__instancecheck__


def _wire_lists(table: dict, where: str) -> dict:
    """table, each of whose values must be a JSON list of wire ids, as a
    string would read as its characters; where.format(key) names a value's
    field. The lists are checked together, in two passes that call no
    Python function, and one by one only to name a bad one."""
    lists = table.values()
    if not (all(map(_is_list, lists)) and all(map(_is_str, chain.from_iterable(lists)))):
        key = next(k for k, ws in table.items() if not (_is_list(ws) and all(map(_is_str, ws))))
        raise ModelSyntaxError(f"{where.format(key)} must be a list of wire ids")
    return table


def _build_param(value, dom_spaces: list, shape: Space):
    """An expression string becomes a callable of the box input; a real
    parameter's constant must be a JSON number, as true would pass for 1.0.
    Other constants are left to the family's rule."""
    if isinstance(value, str):
        return _compile(value, dom_spaces, shape)
    if isinstance(shape, Real) and not _is_number(value):
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
    # graph box -> its weight expression, compiled over the packed wire values
    _weights: dict = field(default_factory=dict, repr=False)

    @cached_property
    def kernel(self) -> JointKernel:
        return evaluate(self.diagram, self.interpretation)

    @property
    def input_space(self) -> Space:
        return self.interpretation.space_of(self.diagram.input_types())

    @property
    def output_space(self) -> Space:
        return self.interpretation.space_of(self.diagram.output_types())

    def weight_factors(self, interp: Interpretation | None = None) -> tuple:
        """One factor per weighted graph box, reading its wire values' slots
        in the kernel evaluated under interp; each carries its column form
        (see WeightFactor)."""
        interp = interp or self.interpretation
        g = self.diagram.graph
        slot = evaluate(self.diagram, interp).wires
        factors = []
        for b, weight in sorted(self._weights.items()):
            wires = g.dom[b] + g.cod[b]
            # the values nested as a box reading these wires reads them
            pack = _reader(range(len(wires)))
            factor = lambda *values, weight=weight, pack=pack: weight(pack(values))
            factor.columns = lambda cols, m, form=weight.columns, pack=pack: form(pack(cols), m)
            factors.append(WeightFactor(factor, tuple(slot[w] for w in wires)))
        return tuple(factors)

    def weighted_kernel(self, interp: Interpretation | None = None) -> WeightedJointKernel:
        """The kernel spw audits: the model's kernel under interp, with its
        weights."""
        interp = interp or self.interpretation
        return WeightedJointKernel(evaluate(self.diagram, interp),
                                   self.weight_factors(interp))

    def graph_to_signature_box(self, graph_box: str) -> str:
        return self.diagram.box_label[graph_box]


def parse_model(path: str) -> Model:
    """Read and validate a model file. OSError propagates for the CLI; a
    file that is not UTF-8 is a ModelSyntaxError naming the byte."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ModelSyntaxError(f"{path}: not valid UTF-8: {e}") from None
    return model_from_dict(_loads(text, ModelSyntaxError, "not valid JSON"), path)


def _loads(text: str, error: type, what: str):
    """json.loads(text), or error(f"{what}: ..."): ValueError includes an
    integer of more digits than int() reads, RecursionError nesting deeper
    than the decoder goes."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise error(f"{what}: {e}") from None


def _check_ids(ids, where: str):
    """Every id must encode as UTF-8: a lone surrogate such as "\\ud800" is
    legal JSON but no text, and ids reach rng keys and the CLI's output."""
    for i in ids:
        try:
            i.encode("utf-8")
        except UnicodeEncodeError:
            raise ModelSyntaxError(f"{where} id {i!r} has a lone surrogate") from None


def _section(raw: dict, key: str):
    """raw[key], with its wires and boxes objects, every id checked."""
    section = _need(raw, key, "model")
    wires, boxes = _need(section, "wires", key), _need(section, "boxes", key)
    if not isinstance(wires, dict) or not isinstance(boxes, dict):
        raise ModelSyntaxError(f"{key} wires/boxes must be objects")
    _check_ids(wires, key + " wire")
    _check_ids(boxes, key + " box")
    return section, wires, boxes


def _hypergraph(wires, boxes, dom, cod, where: str) -> Hypergraph:
    try:
        return Hypergraph(wires, boxes, dom, cod)
    except DiagramError as e:
        raise ModelSyntaxError(f"{where}: {e}") from None


def model_from_dict(raw: dict, path: str | None = None) -> Model:
    version = _need(raw, "version", "model")
    if version.__class__ is not int or version != 1:  # true == 1.0 == 1 in Python
        raise ModelSyntaxError(f"unsupported schema version {version!r}")

    # signature
    _, wires_j, boxes_j = _section(raw, "signature")
    wire_spaces = {}
    for w, entry in wires_j.items():
        wire_spaces[w] = space_from_json(_need(entry, "space", f"signature wire {w!r}"))
    sig_dom, sig_cod = {}, {}
    for b, entry in boxes_j.items():
        sig_dom[b] = _need(entry, "dom", f"signature box {b!r}")
        sig_cod[b] = _need(entry, "cod", f"signature box {b!r}")
    _wire_lists(sig_dom, "signature box {!r} dom")
    _wire_lists(sig_cod, "signature box {!r} cod")
    signature = _hypergraph(list(wires_j), list(boxes_j), sig_dom, sig_cod, "signature")

    # diagram
    dia_j, gw, gb = _section(raw, "diagram")
    for w, lab in gw.items():
        if not isinstance(lab, str) or lab not in wire_spaces:
            raise ModelSyntaxError(f"diagram wire {w!r} references unknown type {lab!r}")
    for b, lab in gb.items():
        if not isinstance(lab, str) or lab not in boxes_j:
            raise ModelSyntaxError(f"diagram box {b!r} references unknown box {lab!r}")
    dom, cod = _need(dia_j, "dom", "diagram"), _need(dia_j, "cod", "diagram")
    for key, table in (("dom", dom), ("cod", cod)):
        if not isinstance(table, dict):
            raise ModelSyntaxError(f"diagram {key} must be an object")
        _wire_lists(table, "diagram " + key + " for {!r}")
    graph = _hypergraph(list(gw), list(gb), dom, cod, "diagram")
    legs = _wire_lists({key: _need(dia_j, key, "diagram") for key in ("inputs", "outputs")},
                       "diagram {}")
    diagram = Diagram(
        graph=graph,
        signature=signature,
        labeling=HypMorphism(gw, gb),
        inputs=legs["inputs"],
        outputs=legs["outputs"],
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
    box_kernels, residual_labels = {}, {}
    misfits = []  # explicit residual lists that do not fit their box's kernel
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
            if not isinstance(name, str):
                raise ModelSyntaxError(f"primitive for {b!r} must be a string")
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
                try:
                    if not param.many:
                        params[key] = _build_param(value, dom_spaces, param.shape)
                    elif isinstance(value, list):
                        params[key] = [_build_param(q, dom_spaces, param.shape) for q in value]
                    else:
                        raise ModelSyntaxError(f"{key} for {b!r} must be a list")
                except (ExprSyntaxError, ExprTypeError) as e:
                    raise _located(e, f"box {b!r} parameter {key!r}")
            prim = instantiate(name, params, dom=nest_product(dom_spaces))
            if prim.cod != cod_spaces[0]:
                raise ShapeError(
                    f"box {b!r}: primitive {name!r} yields {prim.cod!r}, "
                    f"wire needs {cod_spaces[0]!r}")
            box_kernels[b] = from_primitive(prim, b)
            residual_labels[b] = signature.cod[b]
        elif "det" in entry:
            exprs = entry["det"]
            if isinstance(exprs, str):
                exprs = [exprs]
            if not isinstance(exprs, list) or not all(isinstance(e, str) for e in exprs):
                raise ModelSyntaxError(f"det for {b!r} must be a string or list of strings")
            det = compile_det_map(exprs, dom_spaces, cod_spaces, name=b, where=f"box {b!r} det")
            box_kernels[b] = lift_det(det)
            residual_labels[b] = ()
        else:
            raise ModelSyntaxError(
                f"interpretation for {b!r} needs 'primitive' or 'det'")
        if "residual" in entry:
            # the one fact of the interpretation the loader did not build to fit
            labels = _wire_lists({b: entry["residual"]}, "residual for {!r}")[b]
            misfits += _residual_misfits(b, box_kernels[b].residual, labels, wire_spaces)
            residual_labels[b] = labels
    if misfits:
        raise ShapeError("interpretation does not fit the signature: " + "; ".join(misfits))
    interp = Interpretation(wire_spaces, box_kernels, residual_labels)

    # weights
    weight_exprs, weights = {}, {}
    weights_j = raw.get("weights", {})
    if not isinstance(weights_j, dict):
        raise ModelSyntaxError("weights must be an object")
    for b, text in weights_j.items():
        if b not in gb:
            raise ModelSyntaxError(f"weight references unknown diagram box {b!r}")
        if not isinstance(text, str):
            raise ModelSyntaxError(f"weight for {b!r} must be an expression string")
        slots = [wire_spaces[gw[w]] for w in graph.dom[b]] + \
                [wire_spaces[gw[w]] for w in graph.cod[b]]
        # a det map's output rule: the value adapted to a float, or EvalError
        try:
            weights[b] = compile_det_map([text], slots, [Real(1)], name=b).fn
        except (ExprSyntaxError, ExprTypeError) as e:
            raise _located(e, f"weight of box {b!r}")
        weight_exprs[b] = text

    # with the plan and the interpretation checked, compiling cannot fail,
    # so the kernel is left to the first query that runs it
    return Model(raw, signature, diagram, interp, weight_exprs, path, weights)


def print_model(model: Model) -> str:
    """Render the parsed file back out; parse(print(m)) equals m structurally."""
    return render_json(model.raw) + "\n"
