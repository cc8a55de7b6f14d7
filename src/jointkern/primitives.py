"""Built-in primitive distributions.

FAMILIES describes each builtin family once: its parameters (name, default,
the shape an expression for it must check against, and the rule a value must
obey), how the checked values make the parameter point, its codomain, and
its laws at that point. The laws are a density against the right base
measure (counting or Lebesgue), a monotone inverse-CDF pushforward from one
uniform, an exact right-inverse (abduct) and, for discrete families, an
exact rational pmf, in which float parameters are read as their shortest
decimal literal so exact elimination is exact (see marginal_pmf_finite).
Discrete abduction returns the midpoint of the CDF interval of the observed
point, so round-trips do not sit on floating-point boundaries.

instantiate builds every kernel from its family's entry: one function of
the kernel input, the point, plus the family's laws as they are. A
parameter value is a constant, checked once there, or a callable of the
kernel input whose result goes through the same rule each time the point
is read: an out-of-range parameter produced upstream is a bug, not a
zero-density event, so it raises ParameterError.

Each kernel keeps the parameter values it was built from
(PrimitiveKernel.params), from which spw's column engine (the columns
module) builds the column form of its draws, by family name.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable

from scipy.special import ndtr, ndtri

from .errors import ParameterError, ShapeError
from .kernels import NEG_INF, PrimitiveKernel
from .spaces import UNIT, Countable, Finite, Real, Space

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
    a required parameter; many=True takes a list, rule checking each entry,
    and the family's point reads the checked entries as one tuple. ok, for
    a real parameter, is the range test its rule makes of a finite
    value; it takes a float or a float array."""

    default: object
    shape: Space
    rule: Callable
    many: bool = False
    ok: Callable | None = None


@dataclass(frozen=True)
class Family:
    """A builtin family. params maps each parameter's name to its Param, in
    the order point takes them; point maps the checked values to the point;
    cod is the codomain, or a function of the raw values giving it. The
    laws are functions of the point pt: density(pt, m), push(u, pt),
    abduct(pt, m) and, for discrete families, pmf(pt, m); every kernel of
    the family carries them unchanged, so each formula is written once."""

    params: dict
    point: Callable
    cod: object
    density: Callable
    push: Callable
    abduct: Callable
    pmf: Callable | None = None


# ---------------------------------------------------------------------------
# parameter rules


def _real(default, what: str, ok=None, needs: str = "", many: bool = False) -> Param:
    """A real parameter, whose rule takes a finite real that also satisfies
    ok, when given."""

    def rule(v) -> float:
        try:
            v = float(v)
        except OverflowError:  # an integer past the float range
            raise ParameterError(
                f"{what} must be finite, got an integer too large for a float") from None
        if not math.isfinite(v):
            raise ParameterError(f"{what} must be finite, got {v!r}")
        if ok is not None and not ok(v):
            raise ParameterError(f"{what} {needs}, got {v}")
        return v

    return Param(default, _REAL, rule, many, ok)


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


def _bernoulli():
    def density(p, m):
        if m == 1:
            return math.log(p) if p > 0.0 else NEG_INF
        return math.log1p(-p) if p < 1.0 else NEG_INF

    def push(u, p):
        return 1 if u[0] < p else 0

    def abduct(p, m):
        if m == 1:
            return (_interval_midpoint(0.0, p),)
        return (_interval_midpoint(p, 1.0),)

    def pmf(p, m):
        pe = _decimal_fraction(p)
        return pe if m == 1 else 1 - pe

    return density, push, abduct, pmf


class _Probs:
    """A categorical point: exact probabilities, and their float cumulative
    sums, computed when a law first reads them.

    Each entry is read once as the integer ratio of its shortest decimal
    literal (as _decimal_fraction reads it), and the entries are put over
    one common denominator, so the exact sum is an integer: qs are each
    entry over that sum, for pmf and the elimination, and the density reads
    each entry over it, and cum each running sum, by int true division,
    which rounds as float() of the Fraction does."""

    def __init__(self, probs):
        # normalized by the exact rational sum, so enumeration masses add to
        # exactly 1
        ratios = [Decimal(repr(float(v))).as_integer_ratio() for v in probs]
        den = math.lcm(*[d for _, d in ratios])
        self._ns = ns = [n * (den // d) for n, d in ratios]
        self._total = total = sum(ns)
        if abs(total / den - 1.0) > 1e-9:
            raise ParameterError(f"categorical probabilities sum to {total / den}, not 1")

    @cached_property
    def qs(self) -> list[Fraction]:
        return [Fraction(n, self._total) for n in self._ns]

    @cached_property
    def cum(self) -> list[float]:
        return [c / self._total for c in accumulate(self._ns)]


def _categorical_cod(probs) -> Finite:
    if not probs:
        raise ParameterError("categorical needs at least one probability")
    return Finite(len(probs))


def _categorical():
    def density(pt, m):
        n = pt._ns[m]
        return math.log(n / pt._total) if n > 0 else NEG_INF

    def push(u, pt):
        for i, c in enumerate(pt.cum):
            if u[0] < c:
                return i
        # u == 1.0 (or float slack): last index with positive mass
        ns = pt._ns
        for i in range(len(ns) - 1, -1, -1):
            if ns[i] > 0:
                return i
        raise ShapeError("categorical has no positive-probability index")

    def abduct(pt, m):
        cum = pt.cum
        lo = cum[m - 1] if m > 0 else 0.0
        return (_interval_midpoint(lo, cum[m]),)

    def pmf(pt, m):
        return pt.qs[m]

    return density, push, abduct, pmf


def _ordered(a, b):
    if not a < b:
        raise ParameterError(f"uniform needs a < b, got a={a}, b={b}")
    return a, b


def _uniform():
    def density(pt, m):
        a, b = pt
        return -math.log(b - a) if a <= m <= b else NEG_INF

    def push(u, pt):
        a, b = pt
        return a + u[0] * (b - a)

    def abduct(pt, m):
        a, b = pt
        if not a <= m <= b:
            raise ShapeError(f"{m} outside the support [{a}, {b}]")
        return (min(max((m - a) / (b - a), 0.0), 1.0),)

    return density, push, abduct


def _normal():
    def density(pt, m):
        mu, sigma = pt
        r = (m - mu) / sigma
        return -0.5 * r * r - math.log(sigma) - _HALF_LOG_TWO_PI

    def push(u, pt):
        mu, sigma = pt
        if not 0.0 < u[0] < 1.0:
            raise ShapeError(f"normal pushforward has no finite value at u={u[0]}")
        return mu + sigma * float(ndtri(u[0]))

    def abduct(pt, m):
        mu, sigma = pt
        return (float(ndtr((m - mu) / sigma)),)

    return density, push, abduct


def _exponential():
    def density(rate, m):
        return math.log(rate) - rate * m if m >= 0.0 else NEG_INF

    def push(u, rate):
        if u[0] >= 1.0:
            raise ShapeError("exponential pushforward has no finite value at u=1")
        return -math.log1p(-u[0]) / rate

    def abduct(rate, m):
        if m < 0.0:
            raise ShapeError(f"{m} outside the support [0, inf)")
        return (-math.expm1(-rate * m),)

    return density, push, abduct


def _poisson_terms(rate):
    term = math.exp(-rate)
    j = 0
    while True:
        yield j, term
        j += 1
        term *= rate / j


# the largest rate whose exp(-rate), the first term of the CDF walk, is a
# normal float; past it the walk's terms underflow and the draws go wrong
_POISSON_MAX_RATE = -math.log(sys.float_info.min)  # 708.3964185322641


def _poisson():
    """rate 0 is the point mass at 0. The sampler walks the CDF with the
    same partial sums abduction uses, so discrete round-trips are exact."""

    def density(rate, m):
        if m < 0:
            return NEG_INF
        if rate == 0.0:
            return 0.0 if m == 0 else NEG_INF
        return m * math.log(rate) - rate - math.lgamma(m + 1)

    def push(u, rate):
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

    def abduct(rate, m):
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

    return density, push, abduct, None


def _dirac():
    def density(v, m):
        return 0.0 if m == v else NEG_INF

    def abduct(v, m):
        if m != v:
            raise ShapeError(f"{m} outside the support of dirac_countable")
        return (0.5,)

    def pmf(v, m):
        return Fraction(1) if m == v else Fraction(0)

    return density, lambda u, v: v, abduct, pmf


_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_UNIFORM = Family({"a": _real(0.0, "uniform a"), "b": _real(1.0, "uniform b")},
                  _ordered, _REAL, *_uniform())


def _pair(mu, sigma):
    return mu, sigma


# the ok tests combine with &, so they hold for arrays as for floats
FAMILIES = {
    "bernoulli": Family(
        {"p": _real(0.5, "bernoulli p", lambda v: (0.0 <= v) & (v <= 1.0),
                    "must lie in [0,1]")},
        _same, _TWO, *_bernoulli()),
    "categorical": Family(
        {"probs": _real(None, "categorical probability", *_NONNEGATIVE, many=True)},
        # one point per distinct probability tuple, as wired values repeat
        lru_cache(maxsize=256)(_Probs), _categorical_cod, *_categorical()),
    "uniform01": replace(_UNIFORM, params={}, point=lambda: (0.0, 1.0)),
    "uniform": _UNIFORM,
    "normal": Family(
        {"mu": _real(0.0, "normal mu"), "sigma": _real(1.0, "normal sigma", *_POSITIVE)},
        _pair, _REAL, *_normal()),
    "exponential": Family(
        {"rate": _real(1.0, "exponential rate", *_POSITIVE)},
        _same, _REAL, *_exponential()),
    "poisson": Family(
        {"rate": _real(1.0, "poisson rate", lambda v: (0.0 <= v) & (v <= _POISSON_MAX_RATE),
                       f"must lie in [0, {_POISSON_MAX_RATE!r}]")},
        _same, _COUNTABLE, *_poisson()),
    "dirac_countable": Family(
        {"value": Param(0, _COUNTABLE, _integer("dirac_countable point"))},
        _same, _COUNTABLE, *_dirac()),
}

BUILTIN_NAMES = tuple(FAMILIES)


# ---------------------------------------------------------------------------
# the builder


def _listed(*entries) -> tuple:
    return entries


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
    return PrimitiveKernel(name, dom, cod, fam.density, fam.push, fam.abduct, fam.pmf, point,
                           tuple(values))
