"""Joint density kernels as flat slot programs.

A JointKernel from Z to X is a straight-line program over numbered value
slots. Slot 0 holds the input. Each step reads earlier slots and writes its
own: a TracedBox draws (or scores) one primitive noise source, Apply runs
one deterministic map, and Unpack splits a left-nested tuple over slots. A
box or map reads one slot, or a tuple of slots as their left-nested tuple,
through a reader built once with the step, so a box of a lowered diagram
reads its input wires' slots directly. An Apply of the identity over a
tuple of slots packs them where a kernel needs one packed value: tensor's
output, expose_residuals, and a composite box or multi-wire output leg in
evaluate. Every slot is written by exactly one step, in program order, and
`out` names the slot holding the output. Composition keeps every box: the
joint distribution over all residuals is retained rather than
marginalized, which is what makes trace densities, interventions and
counterfactual replay possible downstream.

compose and tensor concatenate programs, moving the second program's slots
past the first's; no step wraps another, so every query (sampling, replay,
log-density, abduction, elimination) is one linear pass over the steps and
costs O(steps) per record or table row. Steps are immutable tuples, so
moving a step is one tuple build and a kernel, once built, never changes.

Each query is one pass. A pass reads each box's parameter point once, with
PrimitiveKernel.point, and calls the primitive's laws at that point. The
boxes' rng keys, rng.box_key(box_id) each, belong to the kernel
(JointKernel.box_keys), built by the first seeded pass that runs it, so
building or moving a box builds no key and the unseeded passes never pay
for one. A seeded pass encodes only the seed, once per record (or takes
its key as rng.derived_seed_keys builds it), and draws every uniform with
rng.unit_uniforms, a block of seeds by some of the kernel's box keys at a
time, as the table below says.

Every pass but the elimination and run_trace loops over the kernel's pass
plan (JointKernel.pass_plan), built by the first pass that runs the kernel
and kept on it: one plain tuple per step, holding a box's id, slots, its
primitive's point, push, density and abduct_law, and its value check, or
a map's bound run. Each value check, of a box's codomain and of
the kernel's input and output, is chosen once per space when the plan is
built (spaces.member_check): an exact int or float is tested inline, and
anything else goes to membership. A failing check raises through
check_member or PrimitiveKernel.check_value, so the message is the same.
A kernel never changes, so neither does its plan; compose, tensor and the
rest build new kernels, each with a plan of its own. Each pass keeps, in
this order, the checks that can fail on what it is given or draws:

    sample_records        seeded draws and log-densities over many seeds
                          (sample; sample_scored and sample_with_trace are
                          its one-seed calls), drawn per block of seeds:
                          the input, once per pass, then per record the
                          output and each trace value
    sample_block          sample_records over one block of seeds as columns
                          (sample's blocks of many records): the input,
                          then each box's column of values, then the output
                          column; a law that raises or a check that fails
                          reruns the block through sample_records, whose
                          bits and errors it then has
    replay_with_uniforms  uniforms a caller supplies (cf): the input, every
                          box has a block and every block a box, then each
                          block's floats, length and range, then the
                          output, then each trace value
    replay_block          replay_with_uniforms over a block of u records as
                          columns (cf's blocks of many records): the input,
                          the records' keys, then each box's column of
                          blocks and of values, then the output column
    joint_log_density     a given trace (logpdf): the input, the trace's box
                          set, then each trace value
    logpdf_block          joint_log_density over a block of traces as
                          columns (logpdf's blocks): the input, the traces'
                          keys, then each box's column of trace values
    abduct_uniforms       the uniforms that replay a given trace (abduct):
                          the input, the trace's box set, then, box by box,
                          that the primitive has an abduct law, the value's
                          membership, then its support
    abduct_block          abduct_uniforms over a block of traces as columns
                          (abduct's blocks): the input, the traces' keys,
                          then, box by box, the abduct law, the column's
                          membership, then its support
    _eliminate            the exact table of a finite kernel's live slots
                          (marginal_pmf_finite and spw's exact reference):
                          the input, that every box is finite, then the
                          rows each box makes, at most _ROW_LIMIT
    run_trace             every slot at a given trace, unchecked

The four block passes, sample_block and the three beside it, are one
block interpreter, _columns, and differ only in what a box does; a law
that raises or a check that fails reruns the block through the row pass
named beside each, so a block has its row pass's bits and errors.
_columns runs on Python lists, a column of each slot, so the block passes
load no numpy. spw also runs sample_records' draws over a block of seeds
as columns, in numpy where numpy gives Python's bits; that pass, and
everything else of spw's that runs on columns, lives in the columns
module, which only spw loads.

The seeded passes make their own uniforms, in [0, 1) and of the right
length, and do not check them. A seed is an int or the key that
rng.seed_key makes of it. Each seeded pass runs over many records and
checks the input once, so an input that is no point fails before the
first draw, even in a pass over no seeds; sample_records builds the slot
template once, then copies it per seed. Every pass reads a step's input
the same way, slots[src] or read(slots) (a block pass its column), so a
box with no input wires reads UNIT_VALUE, never the kernel input, even in
run_trace, which does not check that input.

Traces are keyed by box id instead of nested positional tuples, so category
laws hold literally (associativity does not need re-tupling). The residual
Space is derived data: the left-nested product of the boxes' codomains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import add, itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import rng
from .errors import ShapeError
from .spaces import (
    UNIT,
    UNIT_VALUE,
    Product,
    Space,
    Value,
    check_member,
    finite_points,
    is_finite_space,
    member_check,
    membership,
    nest_product,
    nest_values,
    unnest_values,
)

__all__ = [
    "NEG_INF", "DetMap", "PrimitiveKernel", "TracedBox", "JointKernel",
    "lift_det", "identity_kernel", "structure_kernel", "from_primitive",
    "compose", "tensor", "rename_boxes", "expose_residuals", "run_trace",
    "joint_log_density", "replay_with_uniforms", "sample_records", "sample_block",
    "logpdf_block", "abduct_block", "replay_block", "sample_scored", "sample_with_trace",
    "abduct_uniforms", "marginal_pmf_finite",
]

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


@dataclass(frozen=True, init=False)
class PrimitiveKernel:
    """A noise source: a parameter point and the laws of that point.

    point maps the kernel input z to the parameter point pt; left out, it is
    the identity, so the laws read z itself. The laws are functions of pt:
    density(pt, m), the log density of m against cod's base measure;
    push(u, pt), the point of cod that a block of one uniform pushes
    forward to; and, where defined, abduct_law(pt, m), a right-inverse of
    push, and pmf_law(pt, m), an exact rational pmf used by the exact
    elimination. The methods are the laws as functions of z; abduct and pmf
    first check that the law is defined, and those given an observed m that
    it is a point of cod. params holds the parameter values
    primitives.instantiate built the kernel from, in its family's order,
    each a constant or a callable of z; None for a kernel built otherwise.
    Equality, hashing and repr do not read it. A kernel never changes once
    built.
    """

    name: str
    dom: Space
    cod: Space
    density: Callable[[object, Value], float]
    push: Callable[[Sequence[float], object], Value]
    # the defaults live in __init__: a function on the class as point's
    # default would keep CPython 3.11 from specializing reads of p.point
    abduct_law: Callable[[object, Value], tuple] | None
    pmf_law: Callable[[object, Value], Fraction] | None
    point: Callable[[Value], object]
    params: tuple | None = field(compare=False, repr=False)

    def __init__(self, name, dom, cod, density, push, abduct_law=None, pmf_law=None,
                 point=lambda z: z, params=None):
        # one dict update, where the frozen dataclass __init__ makes an
        # object.__setattr__ call per field; every box build pays this
        self.__dict__.update(
            name=name, dom=dom, cod=cod, density=density, push=push,
            abduct_law=abduct_law, pmf_law=pmf_law, point=point, params=params)

    def check_value(self, m: Value):
        if not membership(self.cod, m):
            raise ShapeError(f"{self.name}: value {m!r} is not a point of {self.cod!r}")

    def log_density(self, z: Value, m: Value) -> float:
        self.check_value(m)
        return self.density(self.point(z), m)

    def pushforward(self, u: Sequence[float], z: Value) -> Value:
        return self.push(u, self.point(z))

    def abduct(self, z: Value, m: Value) -> tuple:
        if self.abduct_law is None:
            raise ShapeError(f"primitive {self.name!r} has no abduct")
        self.check_value(m)
        return self.abduct_law(self.point(z), m)

    def pmf(self, z: Value, m: Value) -> Fraction:
        if self.pmf_law is None:
            raise ShapeError(f"primitive {self.name!r} has no pmf")
        self.check_value(m)
        return self.pmf_law(self.point(z), m)


# ---------------------------------------------------------------------------
# steps
#
# Each step is a NamedTuple. Loops that use every field of a step unpack it:
# on CPython 3.11 reading NamedTuple fields by name is slower than one unpack.
# A box or map reads one value: slots[src] when src is one slot and read is
# None, or, when src is a tuple of slots, read(slots), their left-nested
# tuple (see _reader). moved(where, ids) returns the step with each slot s
# read as where[s] and, for boxes, the id renamed through ids (ids absent
# from it are kept).


def _reader(srcs: tuple) -> Callable[[list], Value]:
    """The function of the slot list that returns the srcs' values nested as
    nest_values nests them: UNIT_VALUE for none, the value itself for one."""
    if not srcs:
        return lambda slots: UNIT_VALUE
    get = itemgetter(*srcs)
    return get if len(srcs) <= 2 else lambda slots: nest_values(get(slots))


def _moved_src(where, src, read) -> tuple:
    if read is None:
        return where[src], None
    src = tuple(where[i] for i in src)
    return src, _reader(src)


class TracedBox(NamedTuple):
    """One noise source: its parameter is the value it reads (see above) and
    its value, the box's trace entry, is written to slot dst."""

    box_id: str
    primitive: PrimitiveKernel
    src: int | tuple
    dst: int
    read: Callable[[list], Value] | None = None

    def moved(self, where, ids: Mapping) -> TracedBox:
        box_id, p, src, dst, read = self
        src, read = _moved_src(where, src, read)
        return TracedBox(ids.get(box_id, box_id), p, src, where[dst], read)


class Apply(NamedTuple):
    """slots[dst] = fn(the value it reads); with fn the identity, it packs."""

    fn: Callable[[Value], Value]
    src: int | tuple
    dst: int
    read: Callable[[list], Value] | None = None

    def run(self, slots: list):
        fn, src, dst, read = self
        slots[dst] = fn(slots[src] if read is None else read(slots))

    def moved(self, where, ids: Mapping) -> Apply:
        fn, src, dst, read = self
        src, read = _moved_src(where, src, read)
        return Apply(fn, src, where[dst], read)


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


def _identity(v):
    return v


# the one step of the identity map; _Program.pack places it to pack a tuple
_IDENTITY = Apply(_identity, 0, 1)


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

    @cached_property
    def box_id_set(self) -> frozenset:
        return frozenset(self.box_ids)

    @cached_property
    def box_keys(self) -> tuple[bytes, ...]:
        """Each box's rng key, rng.box_key(box_id), in step order: a seeded
        pass's box keys, built once per kernel by the first such pass."""
        return tuple(map(rng.box_key, self.box_ids))

    @cached_property
    def pass_plan(self) -> tuple:
        """The pass plan, built by the first pass that runs the kernel; see
        _pass_plan."""
        return _pass_plan(self)

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

    def place(self, step, src, box_id: str) -> int:
        """Append the one step of a kernel that _one_step accepts, reading
        src, one slot or a tuple of them, and, for a box, under box_id;
        returns the slot it writes."""
        dst = self.fresh()
        read = None if type(src) is int else _reader(src)
        if type(step) is TracedBox:
            self.steps.append(TracedBox(box_id, step.primitive, src, dst, read))
        else:
            self.steps.append(Apply(step.fn, src, dst, read))
        return dst

    def pack(self, src) -> int:
        """The slot holding what src reads: src itself if it is one slot,
        else a new slot that an identity Apply fills with the tuple."""
        return src if type(src) is int else self.place(_IDENTITY, src, "")

    def kernel(self, dom: Space, cod: Space, out: int, wires: Mapping = _EMPTY) -> JointKernel:
        return JointKernel(dom, cod, tuple(self.steps), out, self.n_slots, wires)


def _one_step(k: JointKernel):
    """k's step if k is one box or one map from its input slot to its output
    slot, as from_primitive and lift_det build; None otherwise. A one-step
    kernel whose step reads no slot, as expose_residuals of a boxless
    kernel, is not one: placed at a box's wires, it would read them."""
    if k.n_slots == 2 and k.out == 1 and len(k.steps) == 1:
        step = k.steps[0]
        if (type(step) is TracedBox or type(step) is Apply) and step.src == 0:
            return step
    return None


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
    out = prog.pack((where_a[a.out], where_b[b.out]))
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
    out = prog.pack(tuple(b.dst for b in k.boxes))
    return prog.kernel(k.dom, k.residual, out, k.wires)


# ---------------------------------------------------------------------------
# running the program: one pass over the steps


def run_trace(k: JointKernel, z: Value, t: Trace) -> list:
    """Every slot's value when the program runs at input z with each box's
    value read from the trace t.

    No membership checks: callers check what they need.
    """
    slots = [None] * k.n_slots
    slots[0] = z
    for s in k.steps:
        if type(s) is TracedBox:
            slots[s.dst] = t[s.box_id]
        else:
            s.run(slots)
    return slots


def _mismatch(k: JointKernel, m: Mapping) -> tuple[list, list]:
    """The box ids m lacks and the keys of m that name no box, in order;
    one set comparison when m's keys are exactly the box ids."""
    if m.keys() == k.box_id_set:
        return [], []
    return [b for b in k.box_ids if b not in m], [b for b in m if b not in k.box_id_set]


def _check_trace_keys(k: JointKernel, t: Trace):
    missing, extra = _mismatch(k, t)
    if missing or extra:
        raise ShapeError(f"trace key mismatch: missing {missing}, extra {extra}")


# ---------------------------------------------------------------------------
# pass plans: what a pass reads of each step, bound once per kernel
#
# A plan entry is one plain tuple per step, unpacked whole by the pass loops:
#
#     (run, box_id, src, dst, read, point, push, density, abduct_law, ok, p)
#
# For a box, run is None, p is its primitive, point, push, density and
# abduct_law are p's, and ok is member_check(p.cod); for an Apply or Unpack,
# run is the step's bound run and the rest are None.

_NOT_A_BOX = (None,) * 10


def _pass_plan(k: JointKernel) -> tuple:
    """(entries, dom_ok, cod_ok): one entry per step (see above) and the
    checks of the input and of the output. A kernel never changes, so
    neither does its plan.

    Boxes of one family share its codomain object, so each check is chosen
    once per codomain object, found by id; the kernel holds every codomain
    while the plan is built, so no id is reused meanwhile."""
    entries, oks = [], {}
    for s in k.steps:
        if type(s) is TracedBox:
            box_id, p, src, dst, read = s
            cod = p.cod
            ok = oks.get(id(cod))
            if ok is None:
                ok = oks[id(cod)] = member_check(cod)
            entries.append((None, box_id, src, dst, read, p.point, p.push, p.density,
                            p.abduct_law, ok, p))
        else:
            entries.append((s.run, *_NOT_A_BOX))
    return tuple(entries), member_check(k.dom), member_check(k.cod)


def joint_log_density(k: JointKernel, z: Value, t: Trace) -> float:
    """Log density of a full trace: the sum of per-box factors in list order.

    Each box's parameter is its slot's value with every earlier box taking
    its trace value, so the factors multiply to the joint density of the
    conditional product.
    """
    steps, dom_ok, _ = k.pass_plan
    if not dom_ok(z):
        check_member(k.dom, z, "kernel input")
    _check_trace_keys(k, t)
    for run, box_id, _, _, _, _, _, _, _, ok, p in steps:
        if run is None and not ok(t[box_id]):
            check_member(p.cod, t[box_id], f"trace value for {box_id}")
    slots = [None] * k.n_slots
    slots[0] = z
    total = 0.0
    for run, box_id, src, dst, read, point, _, density, _, _, _ in steps:
        if run is not None:
            run(slots)
            continue
        m = t[box_id]
        ld = density(point(slots[src] if read is None else read(slots)), m)
        if ld == NEG_INF:
            return NEG_INF
        total += ld
        slots[dst] = m
    return total


def replay_with_uniforms(
    k: JointKernel, z: Value, u: Mapping[str, Sequence[float]]
) -> tuple[dict, Value]:
    """Deterministically run the kernel at fixed uniform blocks per box.

    The one pass for uniforms a caller supplies, so it checks all of them,
    in this order: the input; every box has a block and every block names a
    box; then, box by box, each block's numbers (converted with float), its
    length, which is one uniform, and its range [0, 1]; last the output,
    then each trace value.
    """
    steps, dom_ok, cod_ok = k.pass_plan
    if not dom_ok(z):
        check_member(k.dom, z, "kernel input")
    missing, extra = _mismatch(k, u)
    if missing:
        raise ShapeError(f"missing uniform blocks for boxes {missing}")
    if extra:
        raise ShapeError(f"uniform blocks for unknown boxes {extra}")
    slots = [None] * k.n_slots
    slots[0] = z
    t: dict = {}
    bad = None
    for run, box_id, src, dst, read, point, push, _, _, ok, p in steps:
        if run is not None:
            run(slots)
            continue
        try:
            block = tuple(map(float, u[box_id]))
        except OverflowError:  # an integer past the float range
            raise ShapeError(f"uniform outside [0, 1] for box {box_id}") from None
        if len(block) != 1:
            raise ShapeError(f"box {box_id} needs 1 uniforms, got {len(block)}")
        if not 0.0 <= block[0] <= 1.0:
            raise ShapeError(f"uniform {block[0]} outside [0, 1] for box {box_id}")
        t[box_id] = slots[dst] = m = push(
            block, point(slots[src] if read is None else read(slots)))
        # the first bad trace value is raised after the output's check
        if not ok(m) and bad is None:
            bad = box_id, p.cod
    x = slots[k.out]
    if not cod_ok(x):
        check_member(k.cod, x, "kernel output")
    if bad is not None:
        check_member(bad[1], t[bad[0]], f"trace value for {bad[0]}")
    return t, x


# the most cells, seeds times boxes, that sample_records draws at once
_DRAW_CELLS = 1024


def sample_records(
    k: JointKernel, z: Value, seeds: Iterable[int | bytes]
) -> Iterator[tuple[dict, Value, float]]:
    """Draw and score one record per seed: yields (trace, output, logpdf).

    Bit-reproducible per (kernel, z, seed). The log-densities are added in
    box order from 0.0, so logpdf has the bits of joint_log_density(k, z,
    trace), -inf included. The input is checked once, before the first
    draw; then, per record, the output and each trace value, in that order.
    The seeded uniforms are in [0, 1) and of the right length by
    construction, so they are not. The records' uniforms are drawn a block
    of seeds at a time, at most _DRAW_CELLS of them but at least one
    record's, so a pass over many seeds never holds them all.
    """
    steps, dom_ok, cod_ok = k.pass_plan
    if not dom_ok(z):
        check_member(k.dom, z, "kernel input")
    template = [None] * k.n_slots
    template[0] = z
    out, keys = k.out, k.box_keys
    # looked up once per pass, so a counter set on it before the pass sees
    # every draw; a block of records draws at once, its seeds' keys built
    # once per record
    draw, seed_key = rng.unit_uniforms, rng.seed_key
    rows = max(1, _DRAW_CELLS // max(1, len(keys)))
    seeds = iter(seeds)
    while block := list(map(seed_key, islice(seeds, rows))):
        # the block's cells, seed by seed and box by box in step order
        u = iter(draw(block, keys)).__next__
        for _ in block:
            slots = template.copy()
            t: dict = {}
            total, vanished, bad = 0.0, False, None
            for run, box_id, src, dst, read, point, push, density, _, ok, p in steps:
                if run is not None:
                    run(slots)
                    continue
                pt = point(slots[src] if read is None else read(slots))
                t[box_id] = slots[dst] = m = push((u(),), pt)
                ld = density(pt, m)
                # joint_log_density stops at the first -inf factor
                if ld == NEG_INF:
                    vanished = True
                total += ld
                # the first bad trace value is raised after the output's check
                if not ok(m) and bad is None:
                    bad = box_id, p.cod
            x = slots[out]
            if not cod_ok(x):
                check_member(k.cod, x, "kernel output")
            if bad is not None:
                check_member(bad[1], t[bad[0]], f"trace value for {bad[0]}")
            yield t, x, NEG_INF if vanished else total


def sample_block(
    k: JointKernel, z: Value, seed_keys: Iterable[int | bytes]
) -> tuple[dict, list, list]:
    """sample_records over a block of seeds as columns: (traces, outputs,
    logpdfs), traces each box id's column of trace values, in step order.

    Every column has sample_records' bits at each seed, -inf included. The
    input is checked first. One rng.unit_uniforms call draws the whole
    block, so its caller bounds the block; then _columns runs the block, a
    box mapping its point, push and density over its columns and checking
    its values with one all(map(ok, ...)). The output is checked last, and
    the logpdfs are added by _totals. When a law raises or a check fails,
    the block reruns through sample_records, so its bits and its errors are
    the row pass's.
    """
    _, dom_ok, cod_ok = k.pass_plan
    if not dom_ok(z):
        check_member(k.dom, z, "kernel input")
    seeds, keys = list(map(rng.seed_key, seed_keys)), k.box_keys
    # the block's cells, seed by seed and box by box in step order, so box
    # j's column is u[j::width]
    u, width = rng.unit_uniforms(seeds, keys), len(keys)
    draws = (zip(u[j::width]) for j in range(width))
    traces, lds = {}, []

    def box(entry, x):
        _, box_id, _, _, _, point, push, density, _, ok, _ = entry
        pts = list(map(point, x))
        traces[box_id] = ms = list(map(push, next(draws), pts))
        lds.append(list(map(density, pts, ms)))
        return ms if all(map(ok, ms)) else None

    cols = _columns(k, z, len(seeds), box)
    if cols is None or not all(map(cod_ok, cols[k.out])):
        records = list(sample_records(k, z, seeds))
        return (_by_box(k, [t for t, _, _ in records]),
                [x for _, x, _ in records], [ld for _, _, ld in records])
    return traces, cols[k.out], _totals(len(seeds), lds)


def logpdf_block(k: JointKernel, z: Value, traces: Sequence[Trace]) -> list:
    """joint_log_density(k, z, t) for each trace t of a block, as columns:
    _columns runs the block, each box checking its column of trace values
    with one all(map(ok, ...)) and mapping its point and density over them,
    and the logpdfs are added by _totals. Where _columns refuses the block
    (see there) or a value is no point of its box's space, the block reruns
    through joint_log_density, so its bits and errors are the row pass's."""
    lds = []

    def box(entry, x):
        _, box_id, _, _, _, point, _, density, _, ok, _ = entry
        ms = list(map(itemgetter(box_id), traces))
        lds.append(list(map(density, map(point, x), ms)))
        return ms if all(map(ok, ms)) else None

    if _columns(k, z, len(traces), box, traces) is None:
        return [joint_log_density(k, z, t) for t in traces]
    return _totals(len(traces), lds)


def abduct_block(k: JointKernel, z: Value, traces: Sequence[Trace]) -> dict:
    """abduct_uniforms(k, z, t) for each trace t of a block, as columns: box
    id -> the column of its uniform blocks, in step order. _columns runs the
    block, each box checking its column of trace values with one
    all(map(ok, ...)) and mapping its point and abduct law over them. Where
    _columns refuses the block (see there), a box has no abduct law or a
    value is no point of its box's space, the block reruns through
    abduct_uniforms, so its bits and errors are the row pass's."""
    us = {}

    def box(entry, x):
        _, box_id, _, _, _, point, _, _, law, ok, _ = entry
        ms = list(map(itemgetter(box_id), traces))
        if law is None or not all(map(ok, ms)):
            return None
        us[box_id] = list(map(tuple, map(law, map(point, x), ms)))
        return ms

    if _columns(k, z, len(traces), box, traces) is None:
        return _by_box(k, [abduct_uniforms(k, z, t) for t in traces])
    return us


def replay_block(
    k: JointKernel, z: Value, us: Sequence[Mapping[str, Sequence[float]]]
) -> tuple[dict, list]:
    """replay_with_uniforms(k, z, u) for each u of a block, as columns:
    (traces, outputs), traces each box id's column of trace values, in step
    order. _columns runs the block, each box converting its column of
    blocks' one number each with one map of float, checking them against
    [0, 1] and mapping its point and push over them; its values, and last
    the outputs, are checked with one all(map(ok, ...)) each. Where _columns
    refuses the block (see there), a block is not one number in [0, 1] or a
    value or output is no point of its space, the block reruns through
    replay_with_uniforms, so its bits and errors are the row pass's."""
    n, traces = len(us), {}

    def box(entry, x):
        _, box_id, _, _, _, point, push, _, _, ok, _ = entry
        blocks = list(map(itemgetter(box_id), us))
        # an empty block raises in itemgetter(0), so the lengths' sum says
        # that each block is one number
        xs = list(map(float, map(itemgetter(0), blocks)))
        if sum(map(len, blocks)) != n or not all([0.0 <= x <= 1.0 for x in xs]):
            return None
        traces[box_id] = ms = list(map(push, zip(xs), map(point, x)))
        return ms if all(map(ok, ms)) else None

    cols = _columns(k, z, n, box, us)
    if cols is None or not all(map(k.pass_plan[2], cols[k.out])):
        records = [replay_with_uniforms(k, z, u) for u in us]
        return _by_box(k, [t for t, _ in records]), [x for _, x in records]
    return traces, cols[k.out]


def _by_box(k: JointKernel, records: list) -> dict:
    """Records keyed by box id, as columns: box id -> each record's entry."""
    return {b: list(map(itemgetter(b), records)) for b in k.box_ids}


def _totals(n: int, lds: list) -> list:
    """The n records' logpdfs from the boxes' columns of log-densities,
    added column by column in box order from 0.0; -inf where any factor is,
    as joint_log_density stops at the first -inf factor."""
    totals = [0.0] * n
    for column in lds:
        totals = list(map(add, totals, column))
    for column in lds:
        if NEG_INF in column:
            totals = [NEG_INF if ld == NEG_INF else t for t, ld in zip(totals, column)]
    return totals


def _read_column(cols: list, src, read, n: int):
    """The column of what a step reads, as _reader reads it from a row."""
    if read is None:
        return cols[src]
    if len(src) == 2:
        return list(zip(cols[src[0]], cols[src[1]]))
    if len(src) == 1:
        return cols[src[0]]
    if not src:
        return [UNIT_VALUE] * n
    return list(map(nest_values, zip(*[cols[i] for i in src])))


def _columns(k: JointKernel, z: Value, n: int, box: Callable, given: Sequence = ()):
    """The block interpreter: each slot's column of values when k's program
    runs on n records at input z, or None, for the row pass to rerun the
    block, where z is no point of k's domain, a record of given has keys
    other than the box ids, a box refuses its block or a law raises.

    Each Apply and Unpack runs once over its columns. A box's part is
    box(entry, x), its pass plan entry and the column of what it reads; it
    returns the box's column of values, or None where a check fails. So
    every block pass is this one walk over the steps, and only what a box
    does changes. A box reads each record of given by its id, so a missing
    id raises, and one sum of the records' lengths finds any other key."""
    steps, dom_ok, _ = k.pass_plan
    if not dom_ok(z) or sum(map(len, given)) != len(given) * len(k.boxes):
        return None
    cols = [None] * k.n_slots
    cols[0] = [z] * n
    try:
        for step, entry in zip(k.steps, steps):
            if entry[0] is None:
                cols[step.dst] = box(entry, _read_column(cols, step.src, step.read, n))
                if cols[step.dst] is None:
                    return None
            elif type(step) is Unpack:
                src, dsts = step
                parts = list(zip(*[unnest_values(v, len(dsts)) for v in cols[src]]))
                # a block of no records gives each dst an empty column
                for i, c in zip(dsts, parts or [()] * len(dsts)):
                    cols[i] = list(c)
            else:
                fn, src, dst, read = step
                x = _read_column(cols, src, read, n)
                cols[dst] = x if fn is _identity else list(map(fn, x))
    except Exception:  # noqa: BLE001 - a law raised at some record: the rows raise it
        return None
    return cols


def sample_scored(k: JointKernel, z: Value, seed: int) -> tuple[dict, Value, float]:
    """Draw one record and score it in the same pass: (trace, output, logpdf);
    sample_records at one seed."""
    return next(sample_records(k, z, (seed,)))


def sample_with_trace(k: JointKernel, z: Value, seed: int) -> tuple[dict, Value]:
    """Draw one (trace, output) pair; sample_scored without the logpdf."""
    t, x, _ = sample_scored(k, z, seed)
    return t, x


def abduct_uniforms(k: JointKernel, z: Value, t: Trace) -> dict:
    """Uniform blocks that replay to the trace t exactly: box id -> tuple.

    Checks that z is a point of the kernel's domain and that t has every
    box and no other, then, box by box, that the box's primitive has an
    abduct law, that the value is a point of its space, and, in the law,
    that it is in the support.
    """
    steps, dom_ok, _ = k.pass_plan
    if not dom_ok(z):
        check_member(k.dom, z, "kernel input")
    missing, extra = _mismatch(k, t)
    if missing:
        raise ShapeError(f"trace is missing boxes {missing}")
    if extra:
        raise ShapeError(f"trace has unknown boxes {extra}")
    slots = [None] * k.n_slots
    slots[0] = z
    u: dict = {}
    for run, box_id, src, dst, read, point, _, _, law, ok, p in steps:
        if run is not None:
            run(slots)
            continue
        if law is None:
            raise ShapeError(f"primitive {p.name!r} of box {box_id!r} has no abduct")
        m = t[box_id]
        if not ok(m):
            p.check_value(m)  # raises
        u[box_id] = tuple(law(point(slots[src] if read is None else read(slots)), m))
        slots[dst] = m
    return u


def _exact_factor(p: PrimitiveKernel, pt, m: Value) -> Fraction:
    if p.pmf_law is not None:
        return p.pmf_law(pt, m)
    ld = p.density(pt, m)
    return Fraction(0) if ld == NEG_INF else Fraction(math.exp(ld))


# the most rows that one box of an elimination makes; past it, it stops
_ROW_LIMIT = 2 ** 18


def _eliminate(k: JointKernel, z: Value, keep: set, hint: str = "") -> dict:
    """The exact table of a finite kernel at input z: each row, the items
    (slot, value) of its live slots, -> its probability, a Fraction.

    Forward elimination along the program (variable elimination with the
    step order as the elimination order). A slot lives from its write to
    its last read, and the slots in keep to the end. A box extends each row
    by each positive point of its codomain, times _exact_factor; an Apply
    or Unpack runs on the row, a slot -> value dict. Once a slot dies it
    leaves the row, and rows that now agree merge by addition, so a row's
    probability is the exact sum over the traces that reach it, and the
    rows come in the order of the first such trace, depth-first over the
    boxes, each box's points in order. Checks the input, then that every
    box is finite; a box that makes more than _ROW_LIMIT rows, counted
    before they merge, raises. hint ends both messages."""
    check_member(k.dom, z, "kernel input")
    for b in k.boxes:
        if not is_finite_space(b.primitive.cod):
            raise ShapeError(f"box {b.box_id} has non-finite codomain {b.primitive.cod!r}{hint}")
    # the slots that die at each step, found backwards: those it reads or
    # writes that no later step reads, the kept ones aside
    live, dying = set(keep), []
    for s in reversed(k.steps):
        touched = {*(s.src if type(s.src) is tuple else (s.src,)),
                   *(s.dsts if type(s) is Unpack else (s.dst,))}
        dying.append(touched - live)
        live |= touched
    # every row writes its slots in program order, so rows holding the same
    # values hold the same items
    table = {((0, z),) if 0 in live else (): Fraction(1)}
    for s, dead in zip(k.steps, reversed(dying)):
        made = []
        for row, prob in table.items():
            slots = dict(row)
            if type(s) is not TracedBox:
                s.run(slots)
                made.append((slots, prob))
                continue
            _, p, src, dst, read = s
            pt = p.point(slots[src] if read is None else read(slots))
            for m in finite_points(p.cod):
                f = _exact_factor(p, pt, m)
                if f:
                    slots[dst] = m
                    made.append((slots.copy(), prob * f))
            if len(made) > _ROW_LIMIT:
                raise ShapeError(f"exact elimination needs more than {_ROW_LIMIT} rows{hint}")
        table = {}
        for slots, prob in made:
            for j in dead:
                del slots[j]
            key = tuple(slots.items())
            table[key] = table.get(key, 0) + prob
    return table


def marginal_pmf_finite(k: JointKernel, z: Value) -> dict:
    """Exact output pmf of a finite kernel at input z, by _eliminate keeping
    the output alone; keyed in the order of each output's first trace."""
    return {dict(row)[k.out]: float(prob) for row, prob in _eliminate(k, z, {k.out}).items()}
