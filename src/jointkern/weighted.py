"""Weighted kernels: a writer monad over joint kernels.

A WeightedJointKernel pairs a base kernel with a bag of nonnegative weight
factors. A factor reads the full trace and the values of some slots of the
base program (by default slot 0, the kernel input), so one replay of the
base feeds every factor. Kleisli composition composes the bases and
multiplies the weights, moving each factor's slots along with its kernel's
steps; the unnormalized density multiplies the weight into the base
density. spw_check audits strict proper weighting: for test
functions h, the seeded Monte Carlo mean of w*h must match a reference
integral within three standard errors.

Factors are kept in linear space but always accumulated as logs, so long
products cannot underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError, ShapeError
from .kernels import (
    NEG_INF, DetMap, JointKernel, Trace, _compose, _tensor, enumerate_traces,
    _replay, _uniforms, joint_log_density, run_trace,
)
from .rng import derive_seed
from .spaces import UNIT, UNIT_VALUE, Product, Real, Value, nest_values, unnest_values

__all__ = [
    "WeightFactor", "WeightedJointKernel", "weighted", "with_weight_map",
    "constant_weight", "kleisli_compose", "kleisli_tensor",
    "unnormalized_log_density", "expected_value_by_enumeration", "spw_check",
]


@dataclass(frozen=True)
class WeightFactor:
    """One nonnegative factor fn(t, *values), values read from the base
    kernel's slots (slot 0 is the kernel input, so fn(t, z) by default)."""

    fn: Callable[..., float]
    slots: tuple = (0,)


@dataclass(frozen=True)
class WeightedJointKernel:
    """A joint kernel carrying multiplicative nonnegative weight factors.

    Plain callables f(t, z) among the factors become WeightFactor(f).
    """

    base: JointKernel
    weight_factors: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "weight_factors", tuple(
            f if isinstance(f, WeightFactor) else WeightFactor(f)
            for f in self.weight_factors))

    def log_weight(self, t: Trace, z: Value, slots: list | None = None) -> float:
        """Sum of log factors; -inf when any factor is zero.

        slots, when given, are the base program's slot values at t and z,
        as a replay that drew t returns them; otherwise they are recomputed.
        """
        if slots is None:
            slots = run_trace(self.base, z, t)
        total = 0.0
        for f in self.weight_factors:
            w = float(f.fn(t, *[slots[i] for i in f.slots]))
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
            lw = self.log_weight(t, z)
            return 0.0 if lw == NEG_INF else math.exp(lw)

        return DetMap(Product(self.base.residual, self.base.dom), Real(1), fn, "weight")


def weighted(base: JointKernel, factors: Sequence = ()) -> WeightedJointKernel:
    return WeightedJointKernel(base, tuple(factors))


def constant_weight(base: JointKernel, c: float) -> WeightedJointKernel:
    if c == 1.0:
        return WeightedJointKernel(base, ())
    return WeightedJointKernel(base, (lambda t, z, _c=float(c): _c,))


def with_weight_map(base: JointKernel, det: DetMap) -> WeightedJointKernel:
    """Adopt a weight in the packaged shape (residual, input) -> Real(1)."""
    want = Product(base.residual, base.dom)
    if det.dom != want or det.cod != Real(1):
        raise ShapeError(
            f"weight map must be {want!r} -> Real(1), got {det.dom!r} -> {det.cod!r}")
    ids = base.box_ids

    def factor(t, z):
        return det((nest_values([t[b] for b in ids]), z))

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


def expected_value_by_enumeration(wk: WeightedJointKernel, z: Value, h: DetMap) -> float:
    """Exact E[w * h(output)] over all traces; finite residuals only."""
    acc = Fraction(0)
    for t, prob in enumerate_traces(wk.base, z):
        lw = wk.log_weight(t, z)
        if lw == NEG_INF:
            continue
        val = math.exp(lw) * float(h(wk.base.mech(t, z)))
        acc += prob * Fraction(val)
    return float(acc)


def spw_check(
    wk: WeightedJointKernel,
    test_functions: Sequence[DetMap],
    reference: Sequence[float] | None,
    n: int,
    seed: int,
) -> list[dict]:
    """Strict-proper-weighting audit for a kernel with unit domain.

    Estimates E[w * h(x)] from n seeded samples for each test function and
    compares against the reference value (or an exact enumeration when
    reference is None). Passes when the estimate sits within three standard
    errors. Returns one report dict per test function.
    """
    if n < 1000:
        raise ParameterError(f"spw_check needs n >= 1000, got {n}")
    if wk.base.dom != UNIT:
        raise ShapeError(f"spw_check needs a kernel with unit domain, got {wk.base.dom!r}")
    if reference is None:
        refs = [expected_value_by_enumeration(wk, UNIT_VALUE, h) for h in test_functions]
    else:
        refs = [float(r) for r in reference]
        if len(refs) != len(test_functions):
            raise ShapeError("one reference value per test function is required")

    rows = np.empty((n, len(test_functions)))
    for i in range(n):
        t, slots = _replay(wk.base, UNIT_VALUE, _uniforms(wk.base, derive_seed(seed, i)))
        x = slots[wk.base.out]
        lw = wk.log_weight(t, UNIT_VALUE, slots)
        w = 0.0 if lw == NEG_INF else math.exp(lw)
        if not math.isfinite(w):
            raise ShapeError(f"non-finite weight {w!r} at sample {i}")
        for j, h in enumerate(test_functions):
            rows[i, j] = w * float(h(x))

    out = []
    for j in range(len(test_functions)):
        col = rows[:, j]
        est = float(np.mean(col))
        se = float(np.std(col, ddof=1) / math.sqrt(n))
        ref = refs[j]
        out.append({
            "estimate": est,
            "stderr": se,
            "reference": ref,
            "pass": bool(abs(est - ref) <= 3.0 * se),
        })
    return out
