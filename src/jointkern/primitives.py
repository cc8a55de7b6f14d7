"""Built-in primitive distributions.

FAMILIES describes each builtin family once: its parameters (name, default,
the shape an expression for it must check against, and the rule a value must
obey), how the checked values make the parameter point, its codomain, and
its laws at that point. The laws are a density against the right base
measure (counting or Lebesgue), a monotone inverse-CDF pushforward from one
uniform, an exact right-inverse (abduct) and, for discrete families, an
exact rational pmf, in which float parameters are read as their shortest
decimal literal so finite enumeration is exact (see marginal_pmf_finite).
Discrete abduction returns the midpoint of the CDF interval of the observed
point, so round-trips do not sit on floating-point boundaries.

instantiate builds every kernel from its family's entry. A parameter value
is a constant, checked once there, or a callable of the kernel input whose
result goes through the same rule on every call: an out-of-range parameter
produced upstream is a bug, not a zero-density event, so it raises
ParameterError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import Callable

from scipy.special import ndtr, ndtri

from .errors import ParameterError, ShapeError
from .kernels import NEG_INF, PrimitiveKernel
from .spaces import UNIT, Countable, Finite, Real, Space, membership

__all__ = [
    "bernoulli", "categorical", "uniform01", "uniform", "normal",
    "exponential", "poisson", "dirac_countable", "instantiate", "BUILTIN_NAMES",
    "FAMILIES",
]

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_REAL = Real(1)
_COUNTABLE = Countable()
_TWO = Finite(2)


@dataclass(frozen=True)
class Param:
    """One family parameter; see the module docstring. default None marks
    a required parameter; many=True takes a list, rule checking each entry."""

    default: object
    shape: Space
    rule: Callable
    many: bool = False


@dataclass(frozen=True)
class Family:
    """A builtin family. params maps each parameter's name to its Param, in
    the order point takes them; point maps the checked values to the point;
    cod is the codomain, or a function of the raw values giving it;
    laws(point, observed) returns (log_density, pushforward, abduct, pmf or
    None), where point(z) is the point at z, and observed(z, m) is too,
    once m is checked to be a point of the codomain."""

    params: dict
    point: Callable
    cod: object
    laws: Callable


# ---------------------------------------------------------------------------
# parameter rules


def _real(what: str, ok=None, needs: str = ""):
    """The rule for a finite real that also satisfies ok, when given."""

    def rule(v) -> float:
        v = float(v)
        if not math.isfinite(v):
            raise ParameterError(f"{what} must be finite, got {v!r}")
        if ok is not None and not ok(v):
            raise ParameterError(f"{what} {needs}, got {v}")
        return v

    return rule


def _integer(what: str):
    def rule(v) -> int:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParameterError(f"{what} must be an integer, got {v!r}")
        return v

    return rule


# ---------------------------------------------------------------------------
# laws


def _same(v):
    return v


def _decimal_fraction(x: float) -> Fraction:
    # reads 0.7 as 7/10, i.e. what the decimal literal denotes
    return Fraction(repr(float(x)))


def _interval_midpoint(lo: float, hi: float) -> float:
    if not lo < hi:
        raise ShapeError("observed point has zero probability under its parameter")
    mid = (lo + hi) / 2.0
    if not lo <= mid < hi:
        mid = lo
    return mid


def _bernoulli(point, observed):
    def log_density(z, m):
        p = observed(z, m)
        if m == 1:
            return math.log(p) if p > 0.0 else NEG_INF
        return math.log1p(-p) if p < 1.0 else NEG_INF

    def pushforward(u, z):
        return 1 if u[0] < point(z) else 0

    def abduct(z, m):
        p = observed(z, m)
        if m == 1:
            return (_interval_midpoint(0.0, p),)
        return (_interval_midpoint(p, 1.0),)

    def pmf(z, m):
        pe = _decimal_fraction(observed(z, m))
        return pe if m == 1 else 1 - pe

    return log_density, pushforward, abduct, pmf


class _Probs:
    """A categorical point: exact probabilities, and their float cumulative
    sums, computed when a law first reads them."""

    def __init__(self, probs):
        # normalized by the exact rational sum, so enumeration masses add to
        # exactly 1
        qs = [_decimal_fraction(v) for v in probs]
        total = sum(qs)
        if abs(float(total) - 1.0) > 1e-9:
            raise ParameterError(f"categorical probabilities sum to {float(total)}, not 1")
        self.qs = [q / total for q in qs]

    @cached_property
    def cum(self) -> list[float]:
        return [float(c) for c in accumulate(self.qs)]


def _categorical_cod(probs) -> Finite:
    if not probs:
        raise ParameterError("categorical needs at least one probability")
    return Finite(len(probs))


def _categorical(point, observed):
    def log_density(z, m):
        q = observed(z, m).qs[m]
        return math.log(float(q)) if q > 0 else NEG_INF

    def pushforward(u, z):
        pt = point(z)
        for i, c in enumerate(pt.cum):
            if u[0] < c:
                return i
        # u == 1.0 (or float slack): last index with positive mass
        qs = pt.qs
        for i in range(len(qs) - 1, -1, -1):
            if qs[i] > 0:
                return i
        raise ShapeError("categorical has no positive-probability index")

    def abduct(z, m):
        cum = observed(z, m).cum
        lo = cum[m - 1] if m > 0 else 0.0
        return (_interval_midpoint(lo, cum[m]),)

    def pmf(z, m):
        return observed(z, m).qs[m]

    return log_density, pushforward, abduct, pmf


def _ordered(a, b):
    if not a < b:
        raise ParameterError(f"uniform needs a < b, got a={a}, b={b}")
    return a, b


def _uniform(point, observed):
    def log_density(z, m):
        a, b = observed(z, m)
        return -math.log(b - a) if a <= m <= b else NEG_INF

    def pushforward(u, z):
        a, b = point(z)
        return a + u[0] * (b - a)

    def abduct(z, m):
        a, b = observed(z, m)
        if not a <= m <= b:
            raise ShapeError(f"{m} outside the support [{a}, {b}]")
        return (min(max((m - a) / (b - a), 0.0), 1.0),)

    return log_density, pushforward, abduct, None


def _normal(point, observed):
    def log_density(z, m):
        mu, sigma = observed(z, m)
        r = (m - mu) / sigma
        return -0.5 * r * r - math.log(sigma) - _HALF_LOG_TWO_PI

    def pushforward(u, z):
        mu, sigma = point(z)
        if not 0.0 < u[0] < 1.0:
            raise ShapeError(f"normal pushforward has no finite value at u={u[0]}")
        return mu + sigma * float(ndtri(u[0]))

    def abduct(z, m):
        mu, sigma = observed(z, m)
        return (float(ndtr((m - mu) / sigma)),)

    return log_density, pushforward, abduct, None


def _exponential(point, observed):
    def log_density(z, m):
        rate = observed(z, m)
        return math.log(rate) - rate * m if m >= 0.0 else NEG_INF

    def pushforward(u, z):
        rate = point(z)
        if u[0] >= 1.0:
            raise ShapeError("exponential pushforward has no finite value at u=1")
        return -math.log1p(-u[0]) / rate

    def abduct(z, m):
        rate = observed(z, m)
        if m < 0.0:
            raise ShapeError(f"{m} outside the support [0, inf)")
        return (-math.expm1(-rate * m),)

    return log_density, pushforward, abduct, None


def _poisson_terms(rate):
    term = math.exp(-rate)
    j = 0
    while True:
        yield j, term
        j += 1
        term *= rate / j


def _poisson(point, observed):
    """rate 0 is the point mass at 0. The sampler walks the CDF with the
    same partial sums abduction uses, so discrete round-trips are exact."""

    def log_density(z, m):
        rate = observed(z, m)
        if m < 0:
            return NEG_INF
        if rate == 0.0:
            return 0.0 if m == 0 else NEG_INF
        return m * math.log(rate) - rate - math.lgamma(m + 1)

    def pushforward(u, z):
        rate = point(z)
        if rate == 0.0:
            return 0
        if u[0] >= 1.0:
            raise ShapeError("poisson pushforward has no finite value at u=1")
        acc = 0.0
        cap = int(rate + 60.0 * math.sqrt(rate + 1.0)) + 200
        for j, term in _poisson_terms(rate):
            acc += term
            if u[0] < acc or j >= cap:
                return j

    def abduct(z, m):
        rate = observed(z, m)
        if m < 0:
            raise ShapeError(f"{m} outside the support of poisson")
        if rate == 0.0:
            if m != 0:
                raise ShapeError(f"{m} outside the support of poisson(0)")
            return (0.5,)
        acc = 0.0
        lo = 0.0
        for j, term in _poisson_terms(rate):
            lo = acc
            acc += term
            if j == m:
                return (_interval_midpoint(lo, acc),)

    return log_density, pushforward, abduct, None


def _dirac(point, observed):
    def log_density(z, m):
        return 0.0 if m == observed(z, m) else NEG_INF

    def abduct(z, m):
        if m != observed(z, m):
            raise ShapeError(f"{m} outside the support of dirac_countable")
        return (0.5,)

    def pmf(z, m):
        return Fraction(1) if m == observed(z, m) else Fraction(0)

    return log_density, lambda u, z: point(z), abduct, pmf


_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_UNIFORM = Family(
    {"a": Param(0.0, _REAL, _real("uniform a")), "b": Param(1.0, _REAL, _real("uniform b"))},
    _ordered, _REAL, _uniform)

FAMILIES = {
    "bernoulli": Family(
        {"p": Param(0.5, _REAL,
                    _real("bernoulli p", lambda v: 0.0 <= v <= 1.0, "must lie in [0,1]"))},
        _same, _TWO, _bernoulli),
    "categorical": Family(
        {"probs": Param(None, _REAL, _real("categorical probability", *_NONNEGATIVE),
                        many=True)},
        _Probs, _categorical_cod, _categorical),
    "uniform01": replace(_UNIFORM, params={}, point=lambda: (0.0, 1.0)),
    "uniform": _UNIFORM,
    "normal": Family(
        {"mu": Param(0.0, _REAL, _real("normal mu")),
         "sigma": Param(1.0, _REAL, _real("normal sigma", *_POSITIVE))},
        lambda mu, sigma: (mu, sigma), _REAL, _normal),
    "exponential": Family(
        {"rate": Param(1.0, _REAL, _real("exponential rate", *_POSITIVE))},
        _same, _REAL, _exponential),
    "poisson": Family(
        {"rate": Param(1.0, _REAL, _real("poisson rate", *_NONNEGATIVE))},
        _same, _COUNTABLE, _poisson),
    "dirac_countable": Family(
        {"value": Param(0, _COUNTABLE, _integer("dirac_countable point"))},
        _same, _COUNTABLE, _dirac),
}

BUILTIN_NAMES = tuple(FAMILIES)


# ---------------------------------------------------------------------------
# the builder


def _listed(*entries) -> list:
    return list(entries)


def _point(make, pairs):
    """make(*checked values) when no value is a callable of z, else z -> the
    same at z, with each wired value read and checked on the call; pairs
    hold each value with its rule. Constants are checked here, once. This
    runs on every call, so one or two values are read directly, not through
    a list, and the lambdas bind what they read as defaults: fewer objects
    per kernel, faster reads."""
    rules, values, wired = [], [], []
    for rule, value in pairs:
        wired.append(callable(value))
        rules.append(rule)
        values.append(value if wired[-1] else rule(value))
    if not any(wired):
        return make(*values)
    if len(values) == 1:
        (rule,), (get,) = rules, values
        if make is _same:
            return lambda z, rule=rule, get=get: rule(get(z))
        return lambda z, make=make, rule=rule, get=get: make(rule(get(z)))
    if len(values) == 2:
        (r0, r1), (v0, v1) = rules, values
        if not wired[1]:
            return lambda z, make=make, r0=r0, v0=v0, v1=v1: make(r0(v0(z)), v1)
        if not wired[0]:
            return lambda z, make=make, v0=v0, r1=r1, v1=v1: make(v0, r1(v1(z)))
        return lambda z, make=make, r0=r0, v0=v0, r1=r1, v1=v1: make(r0(v0(z)), r1(v1(z)))
    return lambda z: make(*[r(v(z)) if w else v for r, v, w in zip(rules, values, wired)])


def bernoulli(p=0.5, dom: Space = UNIT) -> PrimitiveKernel:
    """Coin flip on Finite(2); samples 1 iff u < p."""
    return instantiate("bernoulli", {"p": p}, dom)


def categorical(probs, dom: Space = UNIT, size: int | None = None) -> PrimitiveKernel:
    """Finite distribution over {0..k-1}; probabilities normalized exactly.

    probs is a sequence whose entries are numbers or callables of the kernel
    input. The probabilities must sum to 1 within 1e-9; they are then
    renormalized by their exact rational sum, so enumeration masses always
    add to exactly 1.
    """
    probs = list(probs)
    if size is not None and size != len(probs):
        raise ParameterError(f"categorical size {size} != number of probabilities {len(probs)}")
    return instantiate("categorical", {"probs": probs}, dom)


def uniform01() -> PrimitiveKernel:
    """The uniform distribution on [0, 1]."""
    return instantiate("uniform01", {})


def uniform(a=0.0, b=1.0, dom: Space = UNIT) -> PrimitiveKernel:
    """Uniform on the interval [a, b], a < b; named uniform01 on [0, 1]."""
    if (a, b) == (0.0, 1.0):
        return instantiate("uniform01", {}, dom)
    return instantiate("uniform", {"a": a, "b": b}, dom)


def normal(mu=0.0, sigma=1.0, dom: Space = UNIT) -> PrimitiveKernel:
    """Gaussian with mean mu and standard deviation sigma > 0."""
    return instantiate("normal", {"mu": mu, "sigma": sigma}, dom)


def exponential(rate=1.0, dom: Space = UNIT) -> PrimitiveKernel:
    """Exponential with the given rate > 0, supported on [0, inf)."""
    return instantiate("exponential", {"rate": rate}, dom)


def poisson(rate=1.0, dom: Space = UNIT) -> PrimitiveKernel:
    """Poisson counts on the nonnegative integers; rate >= 0.

    rate 0 is the point mass at 0.
    """
    return instantiate("poisson", {"rate": rate}, dom)


def dirac_countable(value=0, dom: Space = UNIT) -> PrimitiveKernel:
    """Point mass at an integer; density 1 at the point under counting measure."""
    return instantiate("dirac_countable", {"value": value}, dom)


def instantiate(name: str, params: dict, dom: Space = UNIT) -> PrimitiveKernel:
    """Build a built-in by name from a parameter mapping (numbers or
    callables); a parameter left out takes its family's default. Every
    builtin kernel is built here, from its family's entry."""
    fam = FAMILIES.get(name)
    if fam is None:
        raise ParameterError(f"unknown primitive {name!r}")
    values, pairs = [], []
    for pname, param in fam.params.items():
        value = params.get(pname, param.default)
        if value is None:
            raise ParameterError(f"{name} needs a {pname} parameter")
        values.append(value)
        if param.many:
            # the entries of a list parameter, each checked by its rule
            value = _point(_listed, [(param.rule, v) for v in value])
            pairs.append((_same, value))
        else:
            pairs.append((param.rule, value))
    cod = fam.cod(*values) if callable(fam.cod) else fam.cod
    point = _point(fam.point, pairs)
    if not callable(point):
        point = lambda z, _pt=point: _pt

    # bound as defaults, not closure cells, as in _point
    def observed(z, m, name=name, cod=cod, point=point):
        if not membership(cod, m):
            raise ShapeError(f"{name}: value {m!r} is not a point of {cod!r}")
        return point(z)

    return PrimitiveKernel(name, dom, cod, 1, *fam.laws(point, observed))
