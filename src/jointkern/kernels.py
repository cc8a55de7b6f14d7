"""Joint density kernels as flat slot programs.

A JointKernel from Z to X is a straight-line program over numbered value
slots. Slot 0 holds the input. Each step reads earlier slots and writes its
own: a TracedBox draws (or scores) one primitive noise source whose
parameter sits in one slot, Apply runs one deterministic map, and
Pack/Unpack build or split left-nested tuples. Every slot is written by
exactly one step, in program order, and `out` names the slot holding the
output. Composition keeps every box: the joint distribution over all
residuals is retained rather than marginalized, which is what makes trace
densities, interventions and counterfactual replay possible downstream.

compose and tensor concatenate programs, moving the second program's slots
past the first's; no step wraps another, so every query (sampling, replay,
log-density, abduction, enumeration) is one linear pass over the steps and
costs O(steps). Steps are immutable tuples, so moving a step is one tuple
build and a kernel, once built, never changes.

Traces are keyed by box id instead of nested positional tuples, so category
laws hold literally (associativity does not need re-tupling). The residual
Space is derived data: the left-nested product of the boxes' codomains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ShapeError
from .rng import uniform_block
from .spaces import (
    UNIT,
    UNIT_VALUE,
    Product,
    Space,
    Value,
    check_member,
    finite_points,
    is_finite_space,
    nest_product,
    nest_values,
    unnest_values,
)

Trace = Mapping[str, Value]

NEG_INF = float("-inf")

_EMPTY: Mapping = MappingProxyType({})


@dataclass(frozen=True)
class DetMap:
    """A total deterministic map between spaces."""

    dom: Space
    cod: Space
    fn: Callable[[Value], Value]
    name: str = ""

    def __call__(self, v: Value) -> Value:
        return self.fn(v)


@dataclass(frozen=True)
class PrimitiveKernel:
    """A noise source: density against the base measure plus a uniform pushforward.

    log_density(z, m) is the log density of m given parameter z. pushforward
    maps a block of pushback_dim uniforms (and z) to a point of cod; abduct,
    where defined, is its right-inverse. pmf, where defined, is an exact
    rational pmf used by finite enumeration.
    """

    name: str
    dom: Space
    cod: Space
    pushback_dim: int
    log_density: Callable[[Value, Value], float]
    pushforward: Callable[[Sequence[float], Value], Value]
    abduct: Callable[[Value, Value], tuple] | None = None
    pmf: Callable[[Value, Value], Fraction] | None = None


# ---------------------------------------------------------------------------
# steps
#
# Each step is a NamedTuple. Loops that use every field of a step unpack it:
# on CPython 3.11 reading NamedTuple fields by name is slower than one unpack.
# moved(where, ids) returns the step with each slot s read as where[s] and,
# for boxes, the id renamed through ids (ids absent from it are kept).


class TracedBox(NamedTuple):
    """One noise source: its parameter is read from slot src and its value,
    the box's trace entry, is written to slot dst."""

    box_id: str
    primitive: PrimitiveKernel
    src: int
    dst: int

    def moved(self, where, ids: Mapping) -> TracedBox:
        box_id, p, src, dst = self
        return TracedBox(ids.get(box_id, box_id), p, where[src], where[dst])


class Apply(NamedTuple):
    """slots[dst] = fn(slots[src])."""

    fn: Callable[[Value], Value]
    src: int
    dst: int

    def run(self, slots: list):
        fn, src, dst = self
        slots[dst] = fn(slots[src])

    def moved(self, where, ids: Mapping) -> Apply:
        fn, src, dst = self
        return Apply(fn, where[src], where[dst])


class Pack(NamedTuple):
    """slots[dst] = the left-nested tuple of the srcs' values (UNIT_VALUE if none)."""

    srcs: tuple
    dst: int

    def run(self, slots: list):
        srcs, dst = self
        slots[dst] = nest_values([slots[i] for i in srcs])

    def moved(self, where, ids: Mapping) -> Pack:
        return Pack(tuple(where[i] for i in self.srcs), where[self.dst])


class Unpack(NamedTuple):
    """Split the left-nested tuple in slot src over the dsts."""

    src: int
    dsts: tuple

    def run(self, slots: list):
        src, dsts = self
        for i, v in zip(dsts, unnest_values(slots[src], len(dsts))):
            slots[i] = v

    def moved(self, where, ids: Mapping) -> Unpack:
        return Unpack(where[self.src], tuple(where[i] for i in self.dsts))


@dataclass(frozen=True, eq=False)
class JointKernel:
    """A kernel dom -> cod as a slot program; see the module docstring.

    wires names the slot of each diagram wire when the kernel was lowered
    from a diagram by evaluate; it is empty otherwise.
    """

    dom: Space
    cod: Space
    steps: tuple = ()
    out: int = 0
    n_slots: int = 1
    wires: Mapping = field(default_factory=dict)

    @cached_property
    def boxes(self) -> tuple[TracedBox, ...]:
        return tuple(s for s in self.steps if type(s) is TracedBox)

    @property
    def residual(self) -> Space:
        return nest_product([b.primitive.cod for b in self.boxes])

    @cached_property
    def box_ids(self) -> tuple[str, ...]:
        return tuple(b.box_id for b in self.boxes)

    def mech(self, t: Trace, z: Value) -> Value:
        """The output at input z when every box takes its value from t."""
        return run_trace(self, z, t)[self.out]


class _Program:
    """Steps and slot count of a kernel under construction."""

    def __init__(self, start: JointKernel | None = None):
        self.steps = list(start.steps) if start else []
        self.n_slots = start.n_slots if start else 1

    def fresh(self) -> int:
        self.n_slots += 1
        return self.n_slots - 1

    def add(self, step):
        self.steps.append(step)

    def inline(self, k: JointKernel, src: int, ids: Mapping = _EMPTY) -> tuple:
        """Append k's steps reading its input from slot src; returns where
        each of k's slots landed."""
        where = (src,) + tuple(range(self.n_slots, self.n_slots + k.n_slots - 1))
        self.n_slots += k.n_slots - 1
        self.steps.extend(s.moved(where, ids) for s in k.steps)
        return where

    def kernel(self, dom: Space, cod: Space, out: int, wires: Mapping = _EMPTY) -> JointKernel:
        return JointKernel(dom, cod, tuple(self.steps), out, self.n_slots, wires)


# ---------------------------------------------------------------------------
# constructors


def lift_det(m: DetMap) -> JointKernel:
    """Wrap a deterministic map as a noiseless kernel (empty residual)."""
    return JointKernel(m.dom, m.cod, (Apply(m.fn, 0, 1),), 1, 2)


def identity_kernel(a: Space) -> JointKernel:
    return JointKernel(a, a)


def structure_kernel(kind: str, a: Space, b: Space | None = None) -> JointKernel:
    """The copy/delete/swap/identity structure maps as noiseless kernels."""
    if kind == "copy":
        return lift_det(DetMap(a, Product(a, a), lambda v: (v, v), "copy"))
    if kind == "delete":
        return lift_det(DetMap(a, UNIT, lambda v: UNIT_VALUE, "delete"))
    if kind == "identity":
        return identity_kernel(a)
    if kind == "swap":
        if b is None:
            raise ShapeError("swap needs both spaces")
        return lift_det(
            DetMap(Product(a, b), Product(b, a), lambda v: (v[1], v[0]), "swap")
        )
    raise ShapeError(f"unknown structure kind {kind!r}")


def from_primitive(p: PrimitiveKernel, box_id: str) -> JointKernel:
    """A single-box kernel whose output is the primitive's sample."""
    return JointKernel(p.dom, p.cod, (TracedBox(box_id, p, 0, 1),), 1, 2)


# ---------------------------------------------------------------------------
# category structure


def _check_disjoint(a: JointKernel, b: JointKernel):
    clash = set(a.box_ids) & set(b.box_ids)
    if clash:
        raise ShapeError(f"box id collision: {sorted(clash)}")


def _compose(first: JointKernel, second: JointKernel) -> tuple[JointKernel, tuple]:
    """compose, plus where each of second's slots landed (first's keep theirs)."""
    if first.cod != second.dom:
        raise ShapeError(
            f"cannot compose: first codomain {first.cod!r} != second domain {second.dom!r}"
        )
    _check_disjoint(first, second)
    prog = _Program(first)
    where = prog.inline(second, first.out)
    return prog.kernel(first.dom, second.cod, where[second.out]), where


def compose(first: JointKernel, second: JointKernel) -> JointKernel:
    """Sequential composition; second's boxes see first's output as parameter."""
    return _compose(first, second)[0]


def _tensor(a: JointKernel, b: JointKernel) -> tuple[JointKernel, tuple, tuple]:
    """tensor, plus where each of a's and of b's slots landed."""
    _check_disjoint(a, b)
    prog = _Program()
    za, zb = prog.fresh(), prog.fresh()
    prog.add(Unpack(0, (za, zb)))
    where_a = prog.inline(a, za)
    where_b = prog.inline(b, zb)
    out = prog.fresh()
    prog.add(Pack((where_a[a.out], where_b[b.out]), out))
    return prog.kernel(Product(a.dom, b.dom), Product(a.cod, b.cod), out), where_a, where_b


def tensor(a: JointKernel, b: JointKernel) -> JointKernel:
    """Parallel composition on the product of domains and codomains."""
    return _tensor(a, b)[0]


def rename_boxes(k: JointKernel, mapping: Mapping[str, str]) -> JointKernel:
    """Rename box ids; mapping must cover all ids injectively."""
    ids = set(k.box_ids)
    if set(mapping) != ids:
        raise ShapeError("renaming must cover exactly the kernel's box ids")
    if len(set(mapping.values())) != len(mapping):
        raise ShapeError("renaming must be injective")
    where = range(k.n_slots)
    steps = tuple(s.moved(where, mapping) for s in k.steps)
    return JointKernel(k.dom, k.cod, steps, k.out, k.n_slots, k.wires)


def expose_residuals(k: JointKernel) -> JointKernel:
    """Forget the output and expose the full residual tuple instead."""
    prog = _Program(k)
    out = prog.fresh()
    prog.add(Pack(tuple(b.dst for b in k.boxes), out))
    return prog.kernel(k.dom, k.residual, out, k.wires)


# ---------------------------------------------------------------------------
# running the program: one pass over the steps


def run_trace(k: JointKernel, z: Value, t: Trace, visit=None) -> list:
    """Every slot's value when the program runs at input z with each box's
    value read from the trace t.

    visit(box, parameter, value), when given, is called for each box in
    program order. No membership checks: callers check what they need.
    """
    slots = [None] * k.n_slots
    slots[0] = z
    for s in k.steps:
        if type(s) is TracedBox:
            m = t[s.box_id]
            if visit is not None:
                visit(s, slots[s.src], m)
            slots[s.dst] = m
        else:
            s.run(slots)
    return slots


def _check_trace_keys(k: JointKernel, t: Trace):
    ids = set(k.box_ids)
    missing = [b for b in k.box_ids if b not in t]
    extra = [b for b in t if b not in ids]
    if missing or extra:
        raise ShapeError(f"trace key mismatch: missing {missing}, extra {extra}")


def joint_log_density(k: JointKernel, z: Value, t: Trace) -> float:
    """Log density of a full trace: the sum of per-box factors in list order.

    Each box's parameter is its slot's value with every earlier box taking
    its trace value, so the factors multiply to the joint density of the
    conditional product.
    """
    check_member(k.dom, z, "kernel input")
    _check_trace_keys(k, t)
    for box in k.boxes:
        check_member(box.primitive.cod, t[box.box_id], f"trace value for {box.box_id}")
    slots = [None] * k.n_slots
    slots[0] = z
    total = 0.0
    for s in k.steps:
        if type(s) is TracedBox:
            box_id, p, src, dst = s
            m = t[box_id]
            ld = p.log_density(slots[src], m)
            if ld == NEG_INF:
                return NEG_INF
            total += ld
            slots[dst] = m
        else:
            s.run(slots)
    return total


def replay_with_uniforms(
    k: JointKernel, z: Value, u: Mapping[str, Sequence[float]]
) -> tuple[dict, Value]:
    """Deterministically run the kernel at fixed uniform blocks per box."""
    t, slots = _replay(k, z, u)
    return t, slots[k.out]


def _replay(k: JointKernel, z: Value, u: Mapping[str, Sequence[float]]) -> tuple[dict, list]:
    """replay_with_uniforms, returning every slot's value in place of the output."""
    check_member(k.dom, z, "kernel input")
    ids = set(k.box_ids)
    missing = [b for b in k.box_ids if b not in u]
    if missing:
        raise ShapeError(f"missing uniform blocks for boxes {missing}")
    extra = [b for b in u if b not in ids]
    if extra:
        raise ShapeError(f"uniform blocks for unknown boxes {extra}")
    slots = [None] * k.n_slots
    slots[0] = z
    t: dict = {}
    for s in k.steps:
        if type(s) is not TracedBox:
            s.run(slots)
            continue
        box_id, p, src, dst = s
        block = tuple(float(x) for x in u[box_id])
        if len(block) != p.pushback_dim:
            raise ShapeError(
                f"box {box_id} needs {p.pushback_dim} uniforms, got {len(block)}"
            )
        for x in block:
            if not 0.0 <= x <= 1.0:
                raise ShapeError(f"uniform {x} outside [0, 1] for box {box_id}")
        t[box_id] = slots[dst] = p.pushforward(block, slots[src])
    check_member(k.cod, slots[k.out], "kernel output")
    return t, slots


def sample_with_trace(k: JointKernel, z: Value, seed: int) -> tuple[dict, Value]:
    """Draw one (trace, output) pair; bit-reproducible per (kernel, z, seed)."""
    return replay_with_uniforms(k, z, _uniforms(k, seed))


def _uniforms(k: JointKernel, seed: int) -> dict:
    """Each box's seeded block of uniforms."""
    return {
        b.box_id: uniform_block(seed, b.box_id, b.primitive.pushback_dim)
        for b in k.boxes
    }


def _exact_factor(p: PrimitiveKernel, par: Value, m: Value) -> Fraction:
    if p.pmf is not None:
        return p.pmf(par, m)
    ld = p.log_density(par, m)
    return Fraction(0) if ld == NEG_INF else Fraction(math.exp(ld))


def enumerate_traces(k: JointKernel, z: Value) -> Iterator[tuple[dict, Fraction]]:
    """All positive-probability traces with exact rational probabilities.

    Requires every box codomain to be finite. Probabilities are exact when
    the primitives expose exact pmfs (all finite built-ins do). Traces come
    in depth-first order over the boxes, each box's points in order; the
    search keeps an explicit stack, so depth is not bounded by recursion.
    """
    check_member(k.dom, z, "kernel input")
    for box in k.boxes:
        if not is_finite_space(box.primitive.cod):
            raise ShapeError(
                f"box {box.box_id} has non-finite codomain {box.primitive.cod!r}"
            )
    steps = k.steps
    slots = [None] * k.n_slots
    slots[0] = z
    t: dict = {}

    def branches(j: int, before: Fraction):
        """Set box j to each of its positive points in turn; yield the
        path probability so far."""
        box_id, p, src, dst = steps[j]
        par = slots[src]
        for m in finite_points(p.cod):
            f = _exact_factor(p, par, m)
            if f != 0:
                t[box_id] = slots[dst] = m
                yield before * f

    # (next step index, branches of the box before it) per box on the path.
    # Every slot is written by one step, so rerunning the steps after a box
    # refreshes everything downstream of it; a full path sets every box, so
    # stale trace entries from other paths are always overwritten.
    stack = []
    i, prob = 0, Fraction(1)
    while True:
        while i < len(steps) and type(steps[i]) is not TracedBox:
            steps[i].run(slots)
            i += 1
        if i == len(steps):
            yield dict(t), prob
        else:
            stack.append((i + 1, branches(i, prob)))
        while stack:
            i, frame = stack[-1]
            prob = next(frame, None)
            if prob is not None:
                break
            stack.pop()
        else:
            return


def marginal_pmf_finite(k: JointKernel, z: Value) -> dict:
    """Exact output pmf by enumerating every residual combination."""
    acc: dict = {}
    for t, prob in enumerate_traces(k, z):
        x = k.mech(t, z)
        acc[x] = acc.get(x, Fraction(0)) + prob
    return {x: float(p) for x, p in acc.items()}
