"""Interventions, counterfactuals, and abduction on interpreted models.

An intervention assigns constants to signature boxes: each assigned box's
kernel is replaced by the deterministic map that ignores its inputs and
emits the constant, with empty residual, so it vanishes from traces and
contributes nothing to log-densities. Counterfactuals replay the surgered
model at fixed per-box uniforms; abduction recovers the uniforms that
reproduce an observed trace.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .diagrams import Diagram
from .errors import ShapeError
from .interpret import Interpretation, evaluate
from .kernels import DetMap, lift_det, replay_with_uniforms, run_trace
from .spaces import Value, check_member

__all__ = ["intervene", "counterfactual", "abduct_trace"]


def intervene(d: Diagram, interp: Interpretation, do: Mapping) -> Interpretation:
    """Replace each assigned signature box by a constant, deleting its inputs.

    do maps signature box ids to constants admissible for the box's output
    space. The empty assignment returns interp itself.
    """
    if not do:
        return interp
    sig = d.signature
    kernels = dict(interp.box_kernels)
    residuals = dict(interp.residual_labels)
    for b, x in do.items():
        if b not in kernels:
            raise ShapeError(f"cannot intervene on unknown box {b!r}")
        dom_sp = interp.space_of(sig.dom[b])
        cod_sp = interp.space_of(sig.cod[b])
        check_member(cod_sp, x, f"intervention constant for {b!r}")
        kernels[b] = lift_det(DetMap(dom_sp, cod_sp, lambda v, _x=x: _x, f"do({b})"))
        residuals[b] = ()
    return Interpretation(interp.wire_spaces, kernels, residuals)


def counterfactual(
    d: Diagram,
    interp: Interpretation,
    do: Mapping,
    u: Mapping[str, Sequence[float]],
    inputs: Value,
) -> tuple[dict, Value]:
    """Deterministic replay of the surgered model at fixed uniforms.

    u is keyed by graph box ids; entries for boxes removed by the
    intervention are ignored, so a full abducted assignment can be replayed
    under any do. Returns the counterfactual trace and output.
    """
    k = evaluate(d, intervene(d, interp, do))
    ids = set(k.box_ids)
    return replay_with_uniforms(k, inputs, {b: v for b, v in u.items() if b in ids})


def abduct_trace(d: Diagram, interp: Interpretation, inputs: Value, t) -> dict:
    """Uniform blocks that replay to the observed trace exactly.

    Every box's primitive must define abduct and the trace must be in the
    support; the result satisfies counterfactual(d, interp, {}, u, inputs)
    == (t, output at t).
    """
    k = evaluate(d, interp)
    missing = [b for b in k.box_ids if b not in t]
    if missing:
        raise ShapeError(f"trace is missing boxes {missing}")
    ids = set(k.box_ids)
    extra = [b for b in t if b not in ids]
    if extra:
        raise ShapeError(f"trace has unknown boxes {extra}")
    u = {}

    def visit(box, par, m):
        p = box.primitive
        if p.abduct is None:
            raise ShapeError(f"primitive {p.name!r} of box {box.box_id!r} has no abduct")
        u[box.box_id] = tuple(p.abduct(par, m))

    run_trace(k, inputs, t, visit)
    return u
