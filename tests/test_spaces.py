import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from jointkern import (
    Coproduct,
    CoproductSet,
    Countable,
    Finite,
    FinitePoints,
    Inl,
    Inr,
    IntervalBox,
    Product,
    ProductSet,
    Real,
    ShapeError,
    UNIT,
    UNIT_VALUE,
    base_measure_mass,
    cantor_pair,
    check_member,
    cantor_unpair,
    cover_index_bound,
    descriptor_contains,
    finite_points,
    member_check,
    membership,
    nest_product,
    nest_values,
    sigma_finite_cover,
    spine,
    unnest_values,
    value_decoder,
    value_to_jsonable,
    zigzag,
    zigzag_index,
)


def test_space_constructor_guards():
    with pytest.raises(ShapeError):
        Finite(0)
    with pytest.raises(ShapeError):
        Real(0)
    assert UNIT == Finite(1)
    assert membership(UNIT, UNIT_VALUE)


def test_membership_basic():
    assert membership(Finite(2), 1)
    assert not membership(Finite(2), 2)
    assert membership(Product(Finite(2), Real(1)), (0, 3.5))
    assert not membership(Finite(2), True)
    assert not membership(Real(1), 1)
    assert membership(Real(1), 1.0)
    assert not membership(Real(1), float("nan"))
    assert not membership(Real(1), float("inf"))
    assert membership(Real(3), (0.0, 1.0, -2.0))
    assert not membership(Real(3), (0.0, 1.0))
    assert membership(Coproduct(Finite(2), Real(1)), Inl(1))
    assert membership(Coproduct(Finite(2), Real(1)), Inr(0.5))
    assert not membership(Coproduct(Finite(2), Real(1)), 1)
    assert membership(Countable(), -17)


def test_mass_examples():
    assert base_measure_mass(Finite(2), FinitePoints([0, 1])) == 2.0
    assert base_measure_mass(Real(1), IntervalBox([(0, 0.5)])) == 0.5
    got = base_measure_mass(
        Product(Finite(3), Real(1)),
        ProductSet(FinitePoints([0, 1]), IntervalBox([(0, 2)])))
    assert got == 4.0
    got = base_measure_mass(
        Coproduct(Finite(1), Real(1)),
        CoproductSet(FinitePoints([0]), IntervalBox([(0, 1)])))
    assert got == 2.0


def test_mass_counts_distinct_points():
    assert base_measure_mass(Finite(3), FinitePoints([0, 0, 1])) == 2.0


def test_mass_shape_errors():
    with pytest.raises(ShapeError):
        base_measure_mass(Real(1), FinitePoints([0.5]))
    with pytest.raises(ShapeError):
        base_measure_mass(Finite(2), IntervalBox([(0, 1)]))
    with pytest.raises(ShapeError):
        base_measure_mass(Real(2), IntervalBox([(0, 1)]))
    with pytest.raises(ShapeError):
        IntervalBox([(1, 0)])
    with pytest.raises(ShapeError):
        base_measure_mass(Finite(2), FinitePoints([5]))


def test_product_and_coproduct_mass_laws_random():
    rng = random.Random(42)
    for _ in range(500):
        n = rng.randint(1, 6)
        pts = FinitePoints([rng.randrange(8) for _ in range(n)])
        lo, hi = sorted(rng.uniform(-5, 5) for _ in range(2))
        box = IntervalBox([(lo, hi)])
        a = base_measure_mass(Finite(8), pts)
        b = base_measure_mass(Real(1), box)
        prod = base_measure_mass(Product(Finite(8), Real(1)), ProductSet(pts, box))
        assert abs(prod - a * b) <= 1e-12
        cop = base_measure_mass(Coproduct(Finite(8), Real(1)), CoproductSet(pts, box))
        assert abs(cop - (a + b)) <= 1e-12


def test_disjoint_additivity():
    rng = random.Random(7)
    for _ in range(200):
        cut = rng.randrange(1, 9)
        left = FinitePoints(range(cut))
        right = FinitePoints(range(cut, 10))
        whole = FinitePoints(range(10))
        s = base_measure_mass(Finite(10), left) + base_measure_mass(Finite(10), right)
        assert abs(s - base_measure_mass(Finite(10), whole)) <= 1e-12

        a, b, c = sorted(rng.uniform(-3, 3) for _ in range(3))
        s = base_measure_mass(Real(1), IntervalBox([(a, b)])) + \
            base_measure_mass(Real(1), IntervalBox([(b, c)]))
        assert abs(s - base_measure_mass(Real(1), IntervalBox([(a, c)]))) <= 1e-12


def test_zigzag_roundtrip():
    seen = [zigzag(n) for n in range(11)]
    assert seen == [0, -1, 1, -2, 2, -3, 3, -4, 4, -5, 5]
    for k in range(-50, 51):
        assert zigzag(zigzag_index(k)) == k


def test_cantor_roundtrip():
    for n in range(200):
        i, j = cantor_unpair(n)
        assert cantor_pair(i, j) == n
    assert cantor_pair(0, 0) == 0


def test_cover_examples():
    piece = sigma_finite_cover(Real(1), 0)
    assert piece == IntervalBox([(0.0, 1.0)])
    assert base_measure_mass(Real(1), piece) == 1.0

    piece = sigma_finite_cover(Finite(5), 0)
    assert piece == FinitePoints(range(5))
    assert base_measure_mass(Finite(5), piece) == 5.0

    for n in (0, 3, 17):
        piece = sigma_finite_cover(Product(Real(1), Real(1)), n)
        assert base_measure_mass(Product(Real(1), Real(1)), piece) == 1.0


def test_cover_soundness_random_points():
    rng = random.Random(2024)
    spaces = [
        Finite(4),
        Countable(),
        Real(1),
        Real(2),
        Product(Finite(3), Real(1)),
        Coproduct(Countable(), Real(1)),
        Product(Real(1), Product(Finite(2), Countable())),
    ]

    def sample_point(sp):
        if isinstance(sp, Finite):
            return rng.randrange(sp.size)
        if isinstance(sp, Countable):
            return rng.randint(-40, 40)
        if isinstance(sp, Real):
            if sp.dim == 1:
                return rng.uniform(-20, 20)
            return tuple(rng.uniform(-20, 20) for _ in range(sp.dim))
        if isinstance(sp, Product):
            return (sample_point(sp.left), sample_point(sp.right))
        if rng.random() < 0.5:
            return Inl(sample_point(sp.left))
        return Inr(sample_point(sp.right))

    for _ in range(1000):
        sp = rng.choice(spaces)
        v = sample_point(sp)
        idx = cover_index_bound(sp, v)
        piece = sigma_finite_cover(sp, idx)
        assert descriptor_contains(sp, piece, v)
        assert math.isfinite(base_measure_mass(sp, piece))


def test_cover_pieces_always_finite_mass():
    rng = random.Random(5)
    spaces = [Countable(), Real(1), Real(3), Product(Countable(), Real(2)),
              Coproduct(Real(1), Finite(2))]
    for sp in spaces:
        for _ in range(50):
            piece = sigma_finite_cover(sp, rng.randrange(10000))
            assert math.isfinite(base_measure_mass(sp, piece))


def test_cover_index_guards():
    with pytest.raises(ShapeError):
        sigma_finite_cover(Real(1), -1)
    with pytest.raises(ShapeError):
        cover_index_bound(Finite(2), 5)


def test_finite_points_enumeration():
    assert finite_points(Finite(3)) == [0, 1, 2]
    assert finite_points(Product(Finite(2), Finite(2))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    pts = finite_points(Coproduct(Finite(1), Finite(2)))
    assert pts == [Inl(0), Inr(0), Inr(1)]
    with pytest.raises(ShapeError):
        finite_points(Countable())


def test_nesting_helpers():
    assert nest_product([]) == UNIT
    assert nest_product([Finite(2)]) == Finite(2)
    assert nest_product([Finite(2), Real(1), Countable()]) == \
        Product(Product(Finite(2), Real(1)), Countable())
    assert nest_values([]) == UNIT_VALUE
    assert nest_values([1, 2.0, 3]) == ((1, 2.0), 3)
    assert unnest_values(((1, 2.0), 3), 3) == [1, 2.0, 3]
    assert unnest_values(5, 1) == [5]
    assert unnest_values(UNIT_VALUE, 0) == []


def test_wide_product_equality_hash_and_membership():
    # a 5000-factor product nests 4999 deep on its left side; equality, hash,
    # membership and repr walk that spine without recursing per factor
    factors = [Finite(2), Real(1), Countable(), Finite(3)] * 1250
    wide, same = nest_product(factors), nest_product(list(factors))
    assert wide is not same and wide == same and hash(wide) == hash(same)
    assert wide != nest_product(factors[:-1] + [Finite(4)])
    assert wide != nest_product(factors[1:] + [Finite(2)])
    assert wide != nest_product(factors[:-1])
    assert len({wide, same}) == 1
    values = [1, 0.5, -7, 2] * 1250
    assert membership(wide, nest_values(values))
    assert not membership(wide, nest_values(values[:-1] + [3]))
    assert not membership(wide, nest_values(values[:-1]))
    # so an error that names the wide space is a ShapeError
    assert repr(wide) == "".join(["Product(left=" * 4999, "Finite(size=2)", *[
        f", right={f!r})" for f in factors[1:]]])
    with pytest.raises(ShapeError, match="is not a point of Product"):
        check_member(wide, 5)
    # a product is unequal to any other value, and keeps the dataclass
    # equality of a one-level spine
    for other in [Finite(2), (Finite(2), Real(1)), None, "Product"]:
        assert Product(Finite(2), Real(1)) != other
    assert Product(Finite(2), Real(1)) == Product(Finite(2), Real(1))
    assert hash(Product(Finite(2), Real(1))) == hash((Finite(2), Real(1)))
    assert Product(Product(Finite(2), Real(1)), Real(1)) != Product(Real(1), Real(1))
    # and its repr keeps the dataclass text
    assert repr(Product(Product(Finite(2), Real(1)), Coproduct(Countable(), Real(2)))) == (
        "Product(left=Product(left=Finite(size=2), right=Real(dim=1)), "
        "right=Coproduct(left=Countable(), right=Real(dim=2)))")
    assert repr(Product(Finite(2), Product(Real(1), Finite(3)))) == (
        "Product(left=Finite(size=2), right=Product(left=Real(dim=1), right=Finite(size=3)))")


SPACES = st.recursive(
    st.one_of(st.integers(1, 4).map(Finite), st.just(Countable()), st.integers(1, 3).map(Real)),
    lambda inner: st.builds(lambda cls, a, b: cls(a, b),
                            st.sampled_from([Product, Coproduct]), inner, inner),
    max_leaves=10)


def _rebuilt(space):
    """An equal space that shares no object with space."""
    if isinstance(space, (Product, Coproduct)):
        return type(space)(_rebuilt(space.left), _rebuilt(space.right))
    return type(space)(*vars(space).values())


def _dataclass_text(space) -> str:
    """The repr a frozen dataclass gives, built recursively."""
    if isinstance(space, (Product, Coproduct)):
        return (f"{type(space).__name__}(left={_dataclass_text(space.left)}, "
                f"right={_dataclass_text(space.right)})")
    return repr(space)


@settings(derandomize=True, max_examples=300)
@given(SPACES)
def test_equal_spaces_hash_and_print_alike(space):
    other = _rebuilt(space)
    assert other == space and hash(other) == hash(space)
    assert repr(other) == repr(space) == _dataclass_text(space)


# a factor of a wide product and one of its points
LEAF_POINTS = st.one_of(
    st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(Finite(n)), st.integers(0, n - 1))),
    st.integers(-10 ** 6, 10 ** 6).map(lambda m: (Countable(), m)),
    st.floats(-1e6, 1e6).map(lambda x: (Real(1), x)),
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=3).map(
        lambda xs: (Real(len(xs)), tuple(xs))),
)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.lists(LEAF_POINTS, min_size=1, max_size=6))
def test_spine_membership_and_decoding_of_a_3000_factor_product(pattern):
    n = 3000
    factors = [pattern[i % len(pattern)] for i in range(n)]
    spaces = [sp for sp, _ in factors]
    values = [v for _, v in factors]
    space = nest_product(spaces)
    levels = spine(space)
    assert len(levels) == n - 1 and levels[0] is space
    assert [p.right for p in reversed(levels)] == spaces[1:]
    assert levels[-1].left == spaces[0] and spine(levels[-1].left) == []
    assert membership(space, nest_values(values))
    # the JSON form nests as the point does; built in a loop, as its
    # reading must be
    j = value_to_jsonable(values[0])
    for v in values[1:]:
        j = [j, value_to_jsonable(v)]
    assert unnest_values(value_decoder(space)(j), n) == values
    bad = j
    for _ in range(n // 2):
        bad = bad[0]
    bad[1] = "x"
    with pytest.raises(ShapeError, match="got 'x'"):
        value_decoder(space)(j)


class _Int(int):
    """An int subclass: a point of Finite and Countable, as bool is not."""


# values that are points of few spaces or none: bools, an int subclass,
# non-finite floats, -0.0, other types, lists and tuples
ODD_VALUES = [True, False, _Int(0), _Int(5), -1, 0, 1, 2, 3, 10 ** 30, 0.0, -0.0, 1.0, 0.5,
              math.nan, math.inf, -math.inf, "x", None, [], [0, 1], (), (0,), (0.5, 0.5, 0.5)]


def _near_points(space):
    """Points of space, int-subclass points and -0.0 among them, where any
    part may be an odd value instead, a tuple a list or of another length,
    and an Inl an Inr."""
    odd = st.sampled_from(ODD_VALUES)
    if isinstance(space, Finite):
        return st.integers(0, space.size - 1) | st.just(_Int(space.size - 1)) | odd
    if isinstance(space, Countable):
        return st.integers() | st.just(_Int(-3)) | odd
    if isinstance(space, Real):
        scalar = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0) | odd
        if space.dim == 1:
            return scalar
        parts = st.tuples(*[scalar] * space.dim)
        return parts | parts.map(list) | st.lists(scalar, max_size=space.dim + 1).map(tuple)
    if isinstance(space, Product):
        pair = st.tuples(_near_points(space.left), _near_points(space.right))
        return pair | pair.map(list) | pair.map(lambda p: p + (0,)) | odd
    left, right = _near_points(space.left), _near_points(space.right)
    return left.map(Inl) | right.map(Inr) | left.map(Inr) | right.map(Inl) | odd


def _as_lists(v):
    """v with every tuple a list, as JSON would give it."""
    if isinstance(v, tuple):
        return [_as_lists(x) for x in v]
    if isinstance(v, (Inl, Inr)):
        return type(v)(_as_lists(v.value))
    return v


@settings(derandomize=True, max_examples=300)
@given(st.data())
def test_member_check_is_membership(data):
    space = data.draw(st.sampled_from([UNIT, Finite(3), Countable(), Real(1), Real(2)]) | SPACES)
    ok = member_check(space)
    values = data.draw(st.lists(_near_points(space), min_size=1, max_size=8))
    for v in values + ODD_VALUES + [Inl(v) for v in ODD_VALUES] + [Inr(v) for v in ODD_VALUES]:
        assert ok(v) is membership(space, v), (space, v)


def test_member_check_of_a_3000_factor_product():
    factors = [Finite(2), Real(1), Countable(), Coproduct(Finite(1), Real(2))] * 750
    values = [1, 0.5, -7, Inr((0.0, 1.0))] * 750
    ok = member_check(nest_product(factors))
    assert ok(nest_values(values))
    assert not ok(nest_values(values[:-1] + [Inr((0.0, math.nan))]))
    assert not ok(nest_values(values[:-1] + [Inl(1)]))
    assert not ok(nest_values([True] + values[1:]))
    assert not ok(nest_values(values[:-1]))
    listed = values[0]
    for v in values[1:]:
        listed = [listed, _as_lists(v)]
    assert not ok(listed)
