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
from .kernels import (
    DetMap, JointKernel, abduct_uniforms, lift_det, replay_with_uniforms,
)
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
    under any do, and an entry naming no box of d is an error. Returns the
    counterfactual trace and output.
    """
    k = evaluate(d, intervene(d, interp, do))
    return replay_with_uniforms(k, inputs, _uniforms_of(d, k)(u))


def _uniforms_of(d: Diagram, k: JointKernel):
    """u -> the uniforms of u that replay_with_uniforms(k, inputs, ...)
    reads, for k evaluated from d under some intervention, built once per
    kernel.

    Entries of u for boxes of d that k no longer runs are dropped; an entry
    naming no box of d (nor one inside a composite box, "graph_id.inner")
    stays, for replay_with_uniforms to reject.
    """
    ids = k.box_id_set
    boxes = d.box_label

    def of_d(b) -> bool:
        return b in boxes or any(b[:i] in boxes for i, c in enumerate(b) if c == ".")

    def uniforms(u):
        if ids.issuperset(u):
            return u
        return {b: v for b, v in u.items() if b in ids or not of_d(b)}

    return uniforms


def abduct_trace(d: Diagram, interp: Interpretation, inputs: Value, t) -> dict:
    """Uniform blocks that replay to the observed trace exactly.

    Every box's primitive must define abduct and the trace must be in the
    support; the result satisfies counterfactual(d, interp, {}, u, inputs)
    == (t, output at t). See kernels.abduct_uniforms for the checks.
    """
    return abduct_uniforms(evaluate(d, interp), inputs, t)
