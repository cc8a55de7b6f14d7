"""Measurable spaces, points, and the standardized base measure.

Spaces are built from five constructors: Finite(k), Countable, Real(n), and
binary Product/Coproduct. The monoidal unit is Finite(1) (alias UNIT) whose
single point is the integer 0.

Points are plain Python data:
  Finite(k), Countable  -> int (bools excluded)
  Real(1)               -> finite float
  Real(n), n > 1        -> tuple of n finite floats
  Product(A, B)         -> 2-tuple (a, b)
  Coproduct(A, B)       -> Inl(a) or Inr(b)

The base measure is counting measure on discrete spaces, Lebesgue measure on
Real(n), the product of component measures on Product, and the sum of
component measures on Coproduct. Measurable sets are represented by a small
generator algebra (SetDescriptor) which is all the mass computations need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .errors import ShapeError

__all__ = [
    "Finite", "Countable", "Real", "Product", "Coproduct", "Space",
    "UNIT", "UNIT_VALUE", "Inl", "Inr", "Value",
    "FinitePoints", "IntervalBox", "ProductSet", "CoproductSet", "SetDescriptor",
    "membership", "member_check", "check_member", "base_measure_mass", "sigma_finite_cover",
    "cover_index_bound", "descriptor_contains", "is_finite_space", "finite_points",
    "nest_product", "spine", "nest_values", "unnest_values",
    "zigzag", "zigzag_index", "cantor_pair", "cantor_unpair",
]


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class Finite:
    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 1:
            raise ShapeError(f"Finite size must be a positive integer, got {self.size!r}")


@dataclass(frozen=True)
class Countable:
    """The integers under counting measure."""


@dataclass(frozen=True)
class Real:
    dim: int = 1

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ShapeError(f"Real dim must be a positive integer, got {self.dim!r}")


@dataclass(frozen=True)
class Product:
    left: "Space"
    right: "Space"

    # a product of n factors nests n - 1 deep along its left side, so
    # equality, hash and repr walk that spine in a loop, not one frame per
    # factor; equality keeps its own loop, as spine() would cost each pair
    # of spaces a list
    def __eq__(self, other):
        if other.__class__ is not Product:
            return NotImplemented
        a, b = self, other
        while a is not b and a.left.__class__ is Product and b.left.__class__ is Product:
            if a.right != b.right:
                return False
            a, b = a.left, b.left
        return (a.left, a.right) == (b.left, b.right)

    def __hash__(self):
        levels = spine(self)
        h = hash((levels[-1].left, levels[-1].right))
        for p in levels[-2::-1]:
            h = hash((h, p.right))
        return h

    def __repr__(self):
        # the dataclass text, Product(left=..., right=...), built along the spine
        levels = spine(self)
        return "".join(["Product(left=" * len(levels), repr(levels[-1].left),
                        *[f", right={p.right!r})" for p in reversed(levels)]])


@dataclass(frozen=True)
class Coproduct:
    left: "Space"
    right: "Space"


Space = Union[Finite, Countable, Real, Product, Coproduct]

UNIT = Finite(1)
UNIT_VALUE = 0


# ---------------------------------------------------------------------------
# values


@dataclass(frozen=True)
class Inl:
    value: "Value"


@dataclass(frozen=True)
class Inr:
    value: "Value"


Value = Union[int, float, tuple, Inl, Inr]


_INF = math.inf


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real_scalar(v) -> bool:
    return isinstance(v, float) and math.isfinite(v)


def membership(space: Space, v: Value) -> bool:
    """True iff v's shape matches space (and indices are in range for Finite)."""
    if isinstance(space, Finite):
        return _is_int(v) and 0 <= v < space.size
    if isinstance(space, Countable):
        return _is_int(v)
    if isinstance(space, Real):
        if space.dim == 1:
            return _is_real_scalar(v)
        return (
            isinstance(v, tuple)
            and len(v) == space.dim
            and all(_is_real_scalar(x) for x in v)
        )
    if isinstance(space, Product):
        levels = spine(space)
        for p in levels:
            if not (isinstance(v, tuple) and len(v) == 2 and membership(p.right, v[1])):
                return False
            v = v[0]
        return membership(levels[-1].left, v)
    if isinstance(space, Coproduct):
        if isinstance(v, Inl):
            return membership(space.left, v.value)
        if isinstance(v, Inr):
            return membership(space.right, v.value)
        return False
    raise ShapeError(f"not a Space: {space!r}")


def member_check(space: Space) -> Callable[[Value], bool]:
    """A predicate equal to membership(space, .), chosen once for space, so
    a pass that checks many values of one space skips membership's dispatch.
    Finite, Countable and Real(1) test an exact int or float inline and
    leave any other value, a subclass instance among them, to membership's
    own test; every other space is membership itself."""
    cls = space.__class__
    if cls is Finite:
        n = space.size
        return lambda v: (v.__class__ is int or _is_int(v)) and 0 <= v < n
    if cls is Countable:
        return lambda v: v.__class__ is int or _is_int(v)
    if cls is Real and space.dim == 1:
        return lambda v: v.__class__ is float and -_INF < v < _INF or _is_real_scalar(v)
    return lambda v: membership(space, v)


def check_member(space: Space, v: Value, what: str = "value"):
    if not membership(space, v):
        raise ShapeError(f"{what} {v!r} is not a point of {space!r}")


# ---------------------------------------------------------------------------
# set descriptors


@dataclass(frozen=True)
class FinitePoints:
    """A finite set of points of a discrete space."""

    points: tuple

    def __init__(self, points):
        object.__setattr__(self, "points", tuple(points))


@dataclass(frozen=True)
class IntervalBox:
    """A closed box in Real(n): one [lo, hi] interval per dimension."""

    intervals: tuple

    def __init__(self, intervals):
        ivs = tuple((float(lo), float(hi)) for lo, hi in intervals)
        for lo, hi in ivs:
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ShapeError(f"bad interval [{lo}, {hi}]")
        object.__setattr__(self, "intervals", ivs)


@dataclass(frozen=True)
class ProductSet:
    left: "SetDescriptor"
    right: "SetDescriptor"


@dataclass(frozen=True)
class CoproductSet:
    """A measurable split of a coproduct; either side may be None (empty)."""

    left_part: "SetDescriptor | None"
    right_part: "SetDescriptor | None"


SetDescriptor = Union[FinitePoints, IntervalBox, ProductSet, CoproductSet]


def _is_discrete(space: Space) -> bool:
    if isinstance(space, (Finite, Countable)):
        return True
    if isinstance(space, (Product, Coproduct)):
        return _is_discrete(space.left) and _is_discrete(space.right)
    return False


def _check_descriptor(space: Space, s: SetDescriptor):
    if isinstance(s, FinitePoints):
        if not _is_discrete(space):
            raise ShapeError(f"FinitePoints is only valid on discrete spaces, not {space!r}")
        for p in s.points:
            check_member(space, p, "descriptor point")
        return
    if isinstance(s, IntervalBox):
        if not isinstance(space, Real):
            raise ShapeError(f"IntervalBox descriptor on non-real space {space!r}")
        if len(s.intervals) != space.dim:
            raise ShapeError(
                f"IntervalBox has {len(s.intervals)} intervals for Real({space.dim})"
            )
        return
    if isinstance(s, ProductSet):
        if not isinstance(space, Product):
            raise ShapeError(f"ProductSet descriptor on non-product space {space!r}")
        _check_descriptor(space.left, s.left)
        _check_descriptor(space.right, s.right)
        return
    if isinstance(s, CoproductSet):
        if not isinstance(space, Coproduct):
            raise ShapeError(f"CoproductSet descriptor on non-coproduct space {space!r}")
        if s.left_part is not None:
            _check_descriptor(space.left, s.left_part)
        if s.right_part is not None:
            _check_descriptor(space.right, s.right_part)
        return
    raise ShapeError(f"not a SetDescriptor: {s!r}")


def base_measure_mass(space: Space, s: SetDescriptor) -> float:
    """Mass of the set described by s under the space's base measure.

    Counting measure counts distinct points; Lebesgue mass of a box is the
    product of its side lengths; product masses multiply and coproduct masses
    add. The result may be math.inf for unbounded constructions, but every
    generator here has finite mass by shape.
    """
    _check_descriptor(space, s)
    return _mass(s)


def _mass(s: SetDescriptor) -> float:
    if isinstance(s, FinitePoints):
        return float(len(set(s.points)))
    if isinstance(s, IntervalBox):
        out = 1.0
        for lo, hi in s.intervals:
            out *= hi - lo
        return out
    if isinstance(s, ProductSet):
        return _mass(s.left) * _mass(s.right)
    if isinstance(s, CoproductSet):
        left = _mass(s.left_part) if s.left_part is not None else 0.0
        right = _mass(s.right_part) if s.right_part is not None else 0.0
        return left + right
    raise ShapeError(f"not a SetDescriptor: {s!r}")


def descriptor_contains(space: Space, s: SetDescriptor, v: Value) -> bool:
    """Point-in-set test for descriptors (v must be a point of space)."""
    check_member(space, v)
    _check_descriptor(space, s)
    return _contains(space, s, v)


def _contains(space, s, v) -> bool:
    if isinstance(s, FinitePoints):
        return v in set(s.points)
    if isinstance(s, IntervalBox):
        coords = (v,) if space.dim == 1 else v
        return all(lo <= x <= hi for (lo, hi), x in zip(s.intervals, coords))
    if isinstance(s, ProductSet):
        return _contains(space.left, s.left, v[0]) and _contains(space.right, s.right, v[1])
    if isinstance(s, CoproductSet):
        if isinstance(v, Inl):
            return s.left_part is not None and _contains(space.left, s.left_part, v.value)
        return s.right_part is not None and _contains(space.right, s.right_part, v.value)
    raise ShapeError(f"not a SetDescriptor: {s!r}")


# ---------------------------------------------------------------------------
# sigma-finite covers

# Countable enumeration 0, -1, 1, -2, 2, ...  and exact Cantor pairing give a
# deterministic countable cover for every space.


def zigzag(n: int) -> int:
    """n-th integer in the enumeration 0, -1, 1, -2, 2, ..."""
    if n < 0:
        raise ShapeError("cover index must be nonnegative")
    if n == 0:
        return 0
    return -(n + 1) // 2 if n % 2 == 1 else n // 2


def zigzag_index(k: int) -> int:
    """Inverse of zigzag: the index at which integer k appears."""
    if k == 0:
        return 0
    return 2 * k if k > 0 else -2 * k - 1


def cantor_pair(i: int, j: int) -> int:
    return (i + j) * (i + j + 1) // 2 + j


def cantor_unpair(n: int) -> tuple[int, int]:
    w = (math.isqrt(8 * n + 1) - 1) // 2
    j = n - w * (w + 1) // 2
    return w - j, j


def _cantor_untuple(n: int, d: int) -> tuple[int, ...]:
    if d == 1:
        return (n,)
    i, rest = cantor_unpair(n)
    return (i,) + _cantor_untuple(rest, d - 1)


def _cantor_tuple(ix: tuple[int, ...]) -> int:
    if len(ix) == 1:
        return ix[0]
    return cantor_pair(ix[0], _cantor_tuple(ix[1:]))


def sigma_finite_cover(space: Space, index: int) -> SetDescriptor:
    """The index-th piece of a countable finite-mass cover of the space.

    Finite spaces are covered by themselves at every index; Countable by
    zigzag singletons; Real(n) by closed unit hypercubes whose corner indices
    are zigzag per axis, combined by Cantor pairing; products pair component
    pieces diagonally; coproducts alternate left/right injections.
    """
    if not isinstance(index, int) or index < 0:
        raise ShapeError(f"cover index must be a nonnegative integer, got {index!r}")
    if isinstance(space, Finite):
        return FinitePoints(range(space.size))
    if isinstance(space, Countable):
        return FinitePoints((zigzag(index),))
    if isinstance(space, Real):
        axes = _cantor_untuple(index, space.dim)
        return IntervalBox([(float(zigzag(i)), float(zigzag(i)) + 1.0) for i in axes])
    if isinstance(space, Product):
        i, j = cantor_unpair(index)
        return ProductSet(sigma_finite_cover(space.left, i), sigma_finite_cover(space.right, j))
    if isinstance(space, Coproduct):
        if index % 2 == 0:
            return CoproductSet(sigma_finite_cover(space.left, index // 2), None)
        return CoproductSet(None, sigma_finite_cover(space.right, index // 2))
    raise ShapeError(f"not a Space: {space!r}")


def cover_index_bound(space: Space, v: Value) -> int:
    """An index at which sigma_finite_cover's piece contains v."""
    check_member(space, v)
    return _bound(space, v)


def _bound(space, v) -> int:
    if isinstance(space, Finite):
        return 0
    if isinstance(space, Countable):
        return zigzag_index(v)
    if isinstance(space, Real):
        coords = (v,) if space.dim == 1 else v
        axes = tuple(zigzag_index(math.floor(x)) for x in coords)
        return _cantor_tuple(axes)
    if isinstance(space, Product):
        return cantor_pair(_bound(space.left, v[0]), _bound(space.right, v[1]))
    if isinstance(space, Coproduct):
        if isinstance(v, Inl):
            return 2 * _bound(space.left, v.value)
        return 2 * _bound(space.right, v.value) + 1
    raise ShapeError(f"not a Space: {space!r}")


# ---------------------------------------------------------------------------
# finite enumeration and product nesting helpers


def is_finite_space(space: Space) -> bool:
    if isinstance(space, Finite):
        return True
    if isinstance(space, (Product, Coproduct)):
        return is_finite_space(space.left) and is_finite_space(space.right)
    return False


def finite_points(space: Space) -> list:
    """All points of a finite space, in a fixed deterministic order."""
    if isinstance(space, Finite):
        return list(range(space.size))
    if isinstance(space, Product):
        return [
            (a, b)
            for a in finite_points(space.left)
            for b in finite_points(space.right)
        ]
    if isinstance(space, Coproduct):
        return [Inl(a) for a in finite_points(space.left)] + [
            Inr(b) for b in finite_points(space.right)
        ]
    raise ShapeError(f"cannot enumerate non-finite space {space!r}")


def nest_product(spaces) -> Space:
    """Left-nested product of a list of spaces; UNIT for the empty list."""
    spaces = list(spaces)
    if not spaces:
        return UNIT
    out = spaces[0]
    for s in spaces[1:]:
        out = Product(out, s)
    return out


def spine(space: Space) -> list:
    """The products along space's left side, outermost first: space,
    space.left, ... while each is a Product; empty if space is none."""
    levels = []
    while space.__class__ is Product:
        levels.append(space)
        space = space.left
    return levels


def nest_values(values) -> Value:
    """Pack a list of values as the matching left-nested tuple."""
    values = list(values)
    if not values:
        return UNIT_VALUE
    out = values[0]
    for v in values[1:]:
        out = (out, v)
    return out


def unnest_values(v: Value, n: int) -> list:
    """Inverse of nest_values for a list of known length n."""
    if n == 0:
        return []
    out = []
    for _ in range(n - 1):
        out.append(v[1])
        v = v[0]
    out.append(v)
    out.reverse()
    return out
