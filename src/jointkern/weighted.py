"""Weighted kernels: a writer monad over joint kernels.

A WeightedJointKernel pairs a base kernel with a bag of nonnegative weight
factors. A factor is a function of the values of the base program's slots
it names (by default slot 0, the kernel input), and those slots are all it
reads, so one replay of the base feeds every factor. A plain callable
f(t, z) names every box's slot of the base it is given with, and slot 0:
it reads that kernel's trace t. Kleisli composition composes the bases and
multiplies the weights, moving each factor's slots along with its kernel's
steps; the unnormalized density multiplies the weight into the base
density. spw_check audits strict proper weighting: for test
functions h, the seeded Monte Carlo mean of w*h must match a reference
integral within three standard errors. Unless the caller gives them, the
references are exact: one forward elimination of a finite base
(kernels._eliminate) that keeps the slots the weights and the test
functions read.

Factors are kept in linear space but always accumulated as logs, so long
products cannot underflow.

spw_check draws its samples in blocks, which the columns module runs; it
imports that module when it runs, so no other query loads it. Each block
is one column pass of the base with the weights and test functions run
once over the block's columns. The weights keep log_weight's rule: each
factor runs on the rows that no earlier factor zeroed, over the columns of
its slots, through its column form, fn.columns(value columns, m), if it
has one, and row by row otherwise. Each sample's w * h has the bits of
drawing it alone with kernels.sample_records and weighing it with
log_weight, the row path (_sample_rows), which stays the path that
raises: a block whose column pass raises anything, because it met a
sample the row path would refuse or one it cannot vouch for, reruns its
own seeds through the row path, and the next block goes back to columns.
A block refuses every sample the row path refuses, so the first refused
sample, if any, lies in the first block that raises, and the row path
raises its error.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import ParameterError, ShapeError
from .kernels import (
    NEG_INF, DetMap, JointKernel, Trace, _compose, _eliminate, _tensor, joint_log_density,
    run_trace, sample_records,
)
from .spaces import (
    UNIT_VALUE, Product, Real, Value, check_member, nest_values, unnest_values,
)

__all__ = [
    "WeightFactor", "WeightedJointKernel", "weighted", "with_weight_map",
    "constant_weight", "kleisli_compose", "kleisli_tensor",
    "unnormalized_log_density", "expected_value_by_enumeration", "spw_check",
]


@dataclass(frozen=True)
class WeightFactor:
    """One nonnegative factor fn(*values) of the values of the base kernel's
    slots, which are all it reads (slot 0 is the kernel input, so fn(z) by
    default). fn may carry a column form, fn.columns(cols, m): the column
    of the factor over a block, cols the slots' columns."""

    fn: Callable[..., float]
    slots: tuple = (0,)


@dataclass(frozen=True)
class WeightedJointKernel:
    """A joint kernel carrying multiplicative nonnegative weight factors.

    A plain callable f(t, z) among the factors becomes a WeightFactor over
    every box's slot of base and slot 0, so t holds this base's boxes.
    """

    base: JointKernel
    weight_factors: tuple = ()

    def __post_init__(self):
        ids, every = self.base.box_ids, (*(b.dst for b in self.base.boxes), 0)
        object.__setattr__(self, "weight_factors", tuple(
            f if isinstance(f, WeightFactor)
            else WeightFactor(lambda *v, f=f: f(dict(zip(ids, v)), v[-1]), every)
            for f in self.weight_factors))

    def log_weight(self, t: Trace, z: Value, slots: list | None = None) -> float:
        """Sum of log factors; -inf when any factor is zero.

        slots, when given, are the base program's slot values at t and z,
        as a replay that drew t returns them, indexed by slot number, and t
        is not read; otherwise they are replayed from t.
        """
        if slots is None:
            slots = run_trace(self.base, z, t)
        total = 0.0
        for f in self.weight_factors:
            w = float(f.fn(*[slots[i] for i in f.slots]))
            if not math.isfinite(w):
                raise ShapeError(f"non-finite weight factor {w!r}")
            if w < 0.0:
                raise ShapeError(f"negative weight factor {w!r}")
            if w == 0.0:
                return NEG_INF
            total += math.log(w)
        return total

    @property
    def weight(self) -> DetMap:
        """The weight as one deterministic map (residual, input) -> Real(1)."""
        ids = self.base.box_ids

        def fn(v):
            m, z = v
            t = dict(zip(ids, unnest_values(m, len(ids))))
            return _weight(self.log_weight(t, z), "")

        return DetMap(Product(self.base.residual, self.base.dom), Real(1), fn, "weight")


def _weight(lw: float, where: str) -> float:
    """exp(lw), 0.0 at -inf; past the float range, a ShapeError ending in where."""
    try:
        return math.exp(lw)
    except OverflowError:
        raise ShapeError(f"non-finite weight exp({lw!r}){where}") from None


def weighted(base: JointKernel, factors: Sequence = ()) -> WeightedJointKernel:
    return WeightedJointKernel(base, tuple(factors))


def constant_weight(base: JointKernel, c: float) -> WeightedJointKernel:
    if c == 1.0:
        return WeightedJointKernel(base, ())
    return WeightedJointKernel(base, (WeightFactor(lambda _c=float(c): _c, ()),))


def with_weight_map(base: JointKernel, det: DetMap) -> WeightedJointKernel:
    """Adopt a weight in the packaged shape (residual, input) -> Real(1)."""
    want = Product(base.residual, base.dom)
    if det.dom != want or det.cod != Real(1):
        raise ShapeError(
            f"weight map must be {want!r} -> Real(1), got {det.dom!r} -> {det.cod!r}")
    ids = base.box_ids

    def factor(t, z):
        return det((nest_values([t[b] for b in ids]), z))

    # a plain factor: it reads every box's slot and the input
    return WeightedJointKernel(base, (factor,))


def _moved(factors: tuple, where: tuple) -> tuple:
    return tuple(WeightFactor(f.fn, tuple(where[i] for i in f.slots)) for f in factors)


def kleisli_compose(a: WeightedJointKernel, b: WeightedJointKernel) -> WeightedJointKernel:
    """Compose bases; weights multiply, b's factors reading a's output."""
    base, where = _compose(a.base, b.base)
    return WeightedJointKernel(base, a.weight_factors + _moved(b.weight_factors, where))


def kleisli_tensor(a: WeightedJointKernel, b: WeightedJointKernel) -> WeightedJointKernel:
    base, where_a, where_b = _tensor(a.base, b.base)
    return WeightedJointKernel(
        base, _moved(a.weight_factors, where_a) + _moved(b.weight_factors, where_b))


def unnormalized_log_density(wk: WeightedJointKernel, z: Value, t: Trace) -> float:
    """log weight + base log density; -inf when either vanishes."""
    ld = joint_log_density(wk.base, z, t)
    if ld == NEG_INF:
        return NEG_INF
    lw = wk.log_weight(t, z)
    return NEG_INF if lw == NEG_INF else lw + ld


_GIVE_REF = "; give the reference values instead (--ref)"


def _expected_values(wk: WeightedJointKernel, z: Value, hs: Sequence[DetMap]) -> list[float]:
    """Exact E[w * h(output)] for each h, over one elimination of the base
    (kernels._eliminate) that keeps the output and every factor's slots.
    Each final row is weighed with log_weight over its slots, and each sum
    runs in exact Fraction arithmetic. Merged traces share every slot that
    the weight and h read, so the sums equal those over every trace. The
    elimination's errors end in a message that names --ref."""
    keep = {wk.base.out, *(i for f in wk.weight_factors for i in f.slots)}
    accs = [Fraction(0)] * len(hs)
    for row, prob in _eliminate(wk.base, z, keep, _GIVE_REF).items():
        row = dict(row)
        lw = wk.log_weight(None, z, row)
        if lw == NEG_INF:
            continue
        w = _weight(lw, " in the exact reference")
        x = row[wk.base.out]
        accs = [acc + prob * Fraction(w * float(h(x))) for acc, h in zip(accs, hs)]
    return [float(acc) for acc in accs]


def expected_value_by_enumeration(wk: WeightedJointKernel, z: Value, h: DetMap) -> float:
    """Exact E[w * h(output)] by elimination (_expected_values); finite
    boxes only, and at most kernels._ROW_LIMIT rows made by any box."""
    return _expected_values(wk, z, [h])[0]


def spw_check(
    wk: WeightedJointKernel,
    test_functions: Sequence[DetMap],
    reference: Sequence[float] | None,
    n: int,
    seed: int,
    z: Value = UNIT_VALUE,
) -> list[dict]:
    """Strict-proper-weighting audit at the kernel input z.

    Estimates E[w * h(x)] from n seeded samples at z for each test function
    and compares against the reference value (or the exact elimination at
    z when reference is None). Passes when the estimate sits within three
    standard errors. Returns one report dict per test function.

    Everything that can be rejected without sampling is checked before the
    first draw: n, an integer; that z is a point of the kernel's domain;
    and the references, which must be finite numbers. The elimination
    stops with a ShapeError past kernels._ROW_LIMIT rows, and so does a box
    that is not finite. The samples run in blocks (see the module
    docstring), with the floats and errors of one sample at a time.
    """
    n = _read(operator.index, n, "spw_check needs an integer n")
    if n < 1000:
        raise ParameterError(f"spw_check needs n >= 1000, got {n}")
    check_member(wk.base.dom, z, "kernel input")
    if reference is None:
        refs = _expected_values(wk, z, test_functions)
    else:
        refs = [_read(float, r, "reference values must be finite numbers") for r in reference]
        if len(refs) != len(test_functions):
            raise ShapeError("one reference value per test function is required")
        bad = [r for r in refs if not math.isfinite(r)]
        if bad:
            raise ParameterError(f"reference values must be finite, got {bad[0]!r}")

    from . import columns

    cols = columns._sample_blocks(wk, [h.fn for h in test_functions], z, seed, n)
    report = []
    for col, ref in zip(cols, refs):
        est, sd = columns._mean_std(col)
        se = sd / math.sqrt(n)
        report.append({
            "estimate": est,
            "stderr": se,
            "reference": ref,
            "pass": bool(abs(est - ref) <= 3.0 * se),
        })
    return report


def _read(convert: Callable, v, what: str):
    """convert(v); where it refuses v, a ParameterError: what, then v."""
    try:
        return convert(v)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{what}, got {v!r}") from None


def _sample_rows(wk: WeightedJointKernel, fns: list, z: Value, seeds: list, start: int,
                 cols: list[array]):
    """Append w * float(h(x)) of each sample to the float array of its test
    function h in cols, one sample at a time; seeds are the samples' keys,
    the first of them sample start. Each sample is drawn with
    sample_records and weighed with log_weight, which replays its slots;
    the first it refuses raises, and a weight past the float range names
    its sample."""
    log_weight = wk.log_weight
    for i, (t, x, _) in enumerate(sample_records(wk.base, z, seeds), start):
        w = _weight(log_weight(t, z), f" at sample {i}")
        for fn, col in zip(fns, cols):
            col.append(w * float(fn(x)))
