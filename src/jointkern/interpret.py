"""Interpretation of diagrams as joint kernels.

An Interpretation assigns a Space to every signature wire and a JointKernel
(plus residual wire labels) to every signature box. evaluate lowers a valid
Markov diagram into one slot program (see kernels): every wire gets one
slot, and each box, taken in topological order, runs its interpretation's
steps in place and unpacks its output into its output wires' slots when it
has several. A box whose kernel is one step, as every model-file box and
intervention is, gets that one step built for it, reading its input wires'
slots directly: one slot, or the left-nested tuple of none (UNIT_VALUE) or
several. So a model's program is one step per box, plus the input leg's
Unpack, one pack of a multi-wire output leg, and one Unpack per box with
several outputs. A composite kernel is inlined step by step, after one
identity Apply packs its input wires when it has none or several. Each
signature box's kernel is checked against the wire spaces once, on its
first graph box. Box ids in the result are the diagram's graph box ids
(inner ids of a composite box kernel become "graph_id.inner"), so traces
of the evaluated kernel read off the diagram directly, and the kernel's
wires map names each wire's slot, so one replay yields every wire value.

Nothing is cached here: the validated box order is the diagram's
Diagram.plan, and each compiled kernel is kept in the diagram's kernels
map under its interpretation. Both the diagram and the interpretation are
immutable, so a cached kernel cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .diagrams import Diagram, Hypergraph
from .errors import EvalError
from .kernels import (
    JointKernel, Unpack, _one_step, _Program, joint_log_density, run_trace,
    sample_with_trace,
)
from .spaces import Space, Value, nest_product

__all__ = [
    "Interpretation", "check_interpretation", "evaluate",
    "model_log_density", "sample_model", "wire_values",
]


@dataclass(frozen=True, eq=False)
class Interpretation:
    """Spaces for signature wires, kernels and residual labels for boxes.

    The three maps are read-only copies, so a compiled kernel cached for
    this interpretation can never go stale; build a new Interpretation to
    change one.
    """

    wire_spaces: Mapping
    box_kernels: Mapping
    residual_labels: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "wire_spaces", MappingProxyType(dict(self.wire_spaces)))
        object.__setattr__(self, "box_kernels", MappingProxyType(dict(self.box_kernels)))
        object.__setattr__(self, "residual_labels", MappingProxyType({
            b: tuple(ws) for b, ws in dict(self.residual_labels).items()
        }))

    def space_of(self, wires) -> Space:
        return nest_product([self.wire_spaces[w] for w in wires])


def check_interpretation(sig: Hypergraph, interp: Interpretation) -> list:
    """Violations of the interpretation fitting the signature; empty if ok."""
    out = []
    for w in sig.wires:
        if w not in interp.wire_spaces:
            out.append(f"signature wire {w!r} has no space")
    for b in sig.boxes:
        if b not in interp.box_kernels:
            out.append(f"signature box {b!r} has no kernel")
            continue
        k = interp.box_kernels[b]
        if any(w not in interp.wire_spaces for w in sig.dom[b] + sig.cod[b]):
            continue
        if k.dom != interp.space_of(sig.dom[b]):
            out.append(f"box {b!r} kernel domain {k.dom!r} != its wire spaces")
        if k.cod != interp.space_of(sig.cod[b]):
            out.append(f"box {b!r} kernel codomain {k.cod!r} != its wire spaces")
        out += _residual_misfits(
            b, k.residual, interp.residual_labels.get(b, ()), interp.wire_spaces)
    return out


def _residual_misfits(b: str, residual: Space, labels, wire_spaces: Mapping) -> list:
    """Why box b's residual labels do not fit its kernel's residual: one
    message, or none when they fit."""
    if any(w not in wire_spaces for w in labels):
        return [f"box {b!r} residual labels use unknown wires"]
    space = nest_product([wire_spaces[w] for w in labels])
    return [] if residual == space else [
        f"box {b!r} residual {residual!r} != labeled space {space!r}"]


def _inner_ids(k: JointKernel, graph_id: str) -> dict:
    """A box kernel's ids inside the diagram: the graph id for a single box,
    "graph_id.inner" for each box of a composite."""
    ids = k.box_ids
    if len(ids) == 1:
        return {ids[0]: graph_id}
    return {i: f"{graph_id}.{i}" for i in ids}


def _compile(d: Diagram, interp: Interpretation) -> JointKernel:
    """Lower the diagram to one slot program, one slot per wire.

    Each signature box is checked once, on its first graph box in plan
    order: its kernel must exist and fit that box's wire spaces. d.plan's
    morphism check gives every later box with the same label the same wire
    labels, so the check holds for them too. Once d.plan and
    check_interpretation have passed, none of these checks can fail; they
    stay for callers of evaluate that skip the latter.
    """
    order = d.plan
    g = d.graph
    box_label, g_dom, g_cod = d.box_label, g.dom, g.cod

    def wire_space(w) -> Space:
        lab = d.wire_label[w]
        if lab not in interp.wire_spaces:
            raise EvalError(f"no space for signature wire {lab!r}")
        return interp.wire_spaces[lab]

    def packed(ws) -> Space:
        return nest_product([wire_space(w) for w in ws])

    def checked(b, lab) -> JointKernel:
        """The label's kernel, checked against box b's wire spaces."""
        dom_space, cod_space = packed(g.dom[b]), packed(g.cod[b])
        if lab not in interp.box_kernels:
            raise EvalError(f"no kernel for signature box {lab!r}")
        k = interp.box_kernels[lab]
        if k.dom != dom_space:
            raise EvalError(
                f"box {b!r} kernel domain {k.dom!r} != wire spaces {dom_space!r}")
        if k.cod != cod_space:
            raise EvalError(
                f"box {b!r} kernel codomain {k.cod!r} != wire spaces {cod_space!r}")
        return k

    prog = _Program()
    dom = packed(d.inputs)
    slot = {}
    if len(d.inputs) == 1:
        slot[d.inputs[0]] = 0
    elif d.inputs:
        slot.update((w, prog.fresh()) for w in d.inputs)
        prog.add(Unpack(0, tuple(slot[w] for w in d.inputs)))

    kernels = {}  # label -> (its checked kernel, the kernel's one step or None)
    for b in order:
        lab = box_label[b]
        entry = kernels.get(lab)
        if entry is None:
            k = checked(b, lab)
            entry = kernels[lab] = (k, _one_step(k))
        k, step = entry
        dom_wires, cod_wires = g_dom[b], g_cod[b]
        # the int slot as is: a 1-tuple per box would cost lowering time
        at = slot[dom_wires[0]] if len(dom_wires) == 1 else tuple(slot[w] for w in dom_wires)
        if step is not None:
            out = prog.place(step, at, b)
        else:
            out = prog.inline(k, prog.pack(at), _inner_ids(k, b))[k.out]
        if len(cod_wires) == 1:
            slot[cod_wires[0]] = out
        elif cod_wires:
            slot.update((w, prog.fresh()) for w in cod_wires)
            prog.add(Unpack(out, tuple(slot[w] for w in cod_wires)))

    outs = d.outputs
    out = prog.pack(slot[outs[0]] if len(outs) == 1 else tuple(slot[w] for w in outs))
    return prog.kernel(dom, packed(d.outputs), out, MappingProxyType(slot))


def evaluate(d: Diagram, interp: Interpretation) -> JointKernel:
    """Fold a Markov diagram into a JointKernel under an interpretation.

    The result's domain/codomain are the products of the input/output wire
    spaces; its trace is keyed by graph box ids (inner ids of composite box
    kernels are prefixed with the graph id). Results are cached on the
    diagram, per interpretation.
    """
    k = d.kernels.get(interp)
    if k is None:
        k = d.kernels[interp] = _compile(d, interp)
    return k


def wire_values(d: Diagram, interp: Interpretation, inputs: Value, t) -> dict:
    """Every wire's value, from one replay of a full trace and the diagram inputs."""
    k = evaluate(d, interp)
    slots = run_trace(k, inputs, t)
    return {w: slots[i] for w, i in k.wires.items()}


def model_log_density(d: Diagram, interp: Interpretation, inputs: Value, t) -> float:
    """Log density of a full trace of the interpreted model."""
    return joint_log_density(evaluate(d, interp), inputs, t)


def sample_model(d: Diagram, interp: Interpretation, inputs: Value, seed: int):
    """One seeded (trace, output) draw from the interpreted model."""
    return sample_with_trace(evaluate(d, interp), inputs, seed)
