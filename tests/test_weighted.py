import math

import pytest

from jointkern import (
    DetMap,
    Finite,
    NEG_INF,
    ParameterError,
    Product,
    Real,
    ShapeError,
    UNIT,
    UNIT_VALUE,
    WeightFactor,
    WeightedJointKernel,
    bernoulli,
    compose,
    constant_weight,
    evaluate,
    expected_value_by_enumeration,
    from_primitive,
    joint_log_density,
    kleisli_compose,
    kleisli_tensor,
    lift_det,
    spw_check,
    uniform,
    unnormalized_log_density,
    weighted,
    with_weight_map,
)

from support import chain_parts

TWO = Finite(2)


def chain_kernel():
    d, interp = chain_parts()
    return evaluate(d, interp)


def indicator_y1(t, z):
    return 2.0 if t["b2"] >= 1 else 0.0


def test_log_weight():
    wk = weighted(chain_kernel(), [indicator_y1])
    assert wk.log_weight({"b1": 0, "b2": 1}, UNIT_VALUE) == pytest.approx(math.log(2.0))
    assert wk.log_weight({"b1": 0, "b2": 0}, UNIT_VALUE) == NEG_INF
    assert weighted(chain_kernel()).log_weight({"b1": 0, "b2": 0}, UNIT_VALUE) == 0.0


def test_log_weight_rejects_bad_factors():
    wk = weighted(chain_kernel(), [lambda t, z: -1.0])
    with pytest.raises(ShapeError, match="negative"):
        wk.log_weight({"b1": 0, "b2": 0}, UNIT_VALUE)
    wk = weighted(chain_kernel(), [lambda t, z: float("nan")])
    with pytest.raises(ShapeError, match="non-finite"):
        wk.log_weight({"b1": 0, "b2": 0}, UNIT_VALUE)
    wk = weighted(chain_kernel(), [lambda t, z: float("inf")])
    with pytest.raises(ShapeError, match="non-finite"):
        wk.log_weight({"b1": 0, "b2": 0}, UNIT_VALUE)


def test_constant_weight():
    wk = constant_weight(chain_kernel(), 1.0)
    assert wk.weight_factors == ()
    wk = constant_weight(chain_kernel(), 0.5)
    assert wk.log_weight({"b1": 1, "b2": 0}, UNIT_VALUE) == pytest.approx(math.log(0.5))


def test_weight_map_roundtrip():
    base = chain_kernel()
    wk = weighted(base, [indicator_y1])
    det = wk.weight
    assert det.dom == Product(base.residual, base.dom)
    assert det.cod == Real(1)
    assert det(((0, 1), UNIT_VALUE)) == 2.0
    assert det(((0, 0), UNIT_VALUE)) == 0.0

    again = with_weight_map(base, det)
    for t in ({"b1": 0, "b2": 1}, {"b1": 1, "b2": 0}):
        assert again.log_weight(t, UNIT_VALUE) == wk.log_weight(t, UNIT_VALUE)


def test_with_weight_map_shape_guard():
    base = chain_kernel()
    bad = DetMap(TWO, Real(1), lambda v: 1.0, "w")
    with pytest.raises(ShapeError, match="weight map must be"):
        with_weight_map(base, bad)


def test_unnormalized_log_density():
    wk = weighted(chain_kernel(), [indicator_y1])
    got = unnormalized_log_density(wk, UNIT_VALUE, {"b1": 1, "b2": 1})
    assert got == pytest.approx(math.log(2.0 * 0.35), abs=1e-12)
    assert unnormalized_log_density(wk, UNIT_VALUE, {"b1": 1, "b2": 0}) == NEG_INF
    # zero base density wins before the weight is even consulted
    wk0 = weighted(
        from_primitive(bernoulli(1.0), "b"), [lambda t, z: 1.0])
    assert unnormalized_log_density(wk0, UNIT_VALUE, {"b": 0}) == NEG_INF


def test_expected_value_chain():
    # E[2 * 1[y = 1] * y] = 2 * P(y = 1) = 0.9
    wk = weighted(chain_kernel(), [indicator_y1])
    h = DetMap(TWO, Real(1), float, "id")
    assert expected_value_by_enumeration(wk, UNIT_VALUE, h) == pytest.approx(
        0.9, abs=1e-12)
    one = DetMap(TWO, Real(1), lambda x: 1.0, "one")
    assert expected_value_by_enumeration(wk, UNIT_VALUE, one) == pytest.approx(
        0.9, abs=1e-12)


def test_kleisli_compose_shifts_factors():
    left = weighted(from_primitive(bernoulli(0.5), "b1"),
                    [lambda t, z: 3.0 if t["b1"] >= 1 else 1.0])
    step = from_primitive(bernoulli(lambda x: 0.2 if x < 1 else 0.7, dom=TWO), "b2")
    # the right factor reads its own input, which is the left output
    right = weighted(step, [lambda t, z: 5.0 if z >= 1 else 1.0])
    wk = kleisli_compose(left, right)
    assert wk.base.box_ids == ("b1", "b2")
    assert wk.log_weight({"b1": 1, "b2": 0}, UNIT_VALUE) == pytest.approx(
        math.log(15.0))
    assert wk.log_weight({"b1": 0, "b2": 1}, UNIT_VALUE) == pytest.approx(0.0)

    # unweighted composition agrees with plain kernel composition
    plain = compose(left.base, right.base)
    for t in ({"b1": 0, "b2": 0}, {"b1": 1, "b2": 1}):
        assert joint_log_density(wk.base, UNIT_VALUE, t) == joint_log_density(
            plain, UNIT_VALUE, t)


def test_kleisli_compose_associative():
    def mk(box, c):
        return weighted(from_primitive(bernoulli(0.5, dom=TWO), box),
                        [lambda t, z, _c=c: _c])

    first = weighted(from_primitive(bernoulli(0.5), "a"), [lambda t, z: 2.0])
    b, c = mk("b", 3.0), mk("c", 7.0)
    left = kleisli_compose(kleisli_compose(first, b), c)
    right = kleisli_compose(first, kleisli_compose(b, c))
    t = {"a": 1, "b": 0, "c": 1}
    assert left.log_weight(t, UNIT_VALUE) == pytest.approx(math.log(42.0))
    assert right.log_weight(t, UNIT_VALUE) == pytest.approx(math.log(42.0))
    assert left.base.box_ids == right.base.box_ids


def test_kleisli_tensor():
    a = weighted(from_primitive(bernoulli(0.5, dom=TWO), "a"),
                 [lambda t, z: 2.0 if z >= 1 else 1.0])
    b = weighted(from_primitive(bernoulli(0.5, dom=TWO), "b"),
                 [lambda t, z: 3.0 if z >= 1 else 1.0])
    wk = kleisli_tensor(a, b)
    assert wk.base.dom == Product(TWO, TWO)
    t = {"a": 0, "b": 0}
    assert wk.log_weight(t, (1, 1)) == pytest.approx(math.log(6.0))
    assert wk.log_weight(t, (1, 0)) == pytest.approx(math.log(2.0))
    assert wk.log_weight(t, (0, 0)) == pytest.approx(0.0)


def test_spw_check_passes_for_proper_weights():
    wk = weighted(chain_kernel(), [indicator_y1])
    h = DetMap(TWO, Real(1), float, "id")
    one = DetMap(TWO, Real(1), lambda x: 1.0, "one")
    reports = spw_check(wk, [h, one], None, n=20000, seed=0)
    assert len(reports) == 2
    for rep, ref in zip(reports, (0.9, 0.9)):
        assert rep["reference"] == pytest.approx(ref, abs=1e-12)
        assert rep["pass"]
        assert abs(rep["estimate"] - rep["reference"]) <= 3.0 * rep["stderr"]


def test_spw_check_unweighted_mean():
    wk = weighted(chain_kernel())
    h = DetMap(TWO, Real(1), float, "id")
    (rep,) = spw_check(wk, [h], None, n=20000, seed=1)
    assert rep["reference"] == pytest.approx(0.45, abs=1e-12)
    assert rep["pass"]


def test_spw_check_flags_wrong_reference():
    wk = weighted(chain_kernel(), [indicator_y1])
    h = DetMap(TWO, Real(1), float, "id")
    (rep,) = spw_check(wk, [h], [0.6], n=20000, seed=2)
    assert not rep["pass"]
    assert rep["reference"] == 0.6


def test_spw_check_continuous_with_reference():
    # weight 2x and h(x) = x under uniform(0, 2): E[2x^2] = 8/3
    base = from_primitive(uniform(0.0, 2.0), "u")
    wk = weighted(base, [lambda t, z: 2.0 * t["u"]])
    h = DetMap(Real(1), Real(1), float, "id")
    (rep,) = spw_check(wk, [h], [8.0 / 3.0], n=20000, seed=3)
    assert rep["pass"]


def test_spw_check_runs_the_program_once_per_sample():
    calls = [0]

    def shift(b):
        calls[0] += 1
        return 1.0 + b

    base = compose(from_primitive(bernoulli(0.5), "b"), lift_det(DetMap(TWO, Real(1), shift)))
    # the factor reads the det step's slot, so scoring it needs that slot's value
    wk = weighted(base, [WeightFactor(lambda t, x: x, (base.out,))])
    h = DetMap(Real(1), Real(1), float, "id")
    (rep,) = spw_check(wk, [h], [2.5], n=1000, seed=4)
    assert calls[0] == 1000
    assert rep["pass"]


def test_spw_check_guards():
    wk = weighted(chain_kernel())
    h = DetMap(TWO, Real(1), float, "id")
    with pytest.raises(ParameterError, match="n >= 1000"):
        spw_check(wk, [h], None, n=10, seed=0)
    with pytest.raises(ShapeError, match="one reference value"):
        spw_check(wk, [h], [0.1, 0.2], n=2000, seed=0)
    nonunit = weighted(from_primitive(bernoulli(0.5, dom=TWO), "b"))
    with pytest.raises(ShapeError, match="unit domain"):
        spw_check(nonunit, [h], [0.5], n=2000, seed=0)


def test_spw_check_deterministic():
    wk = weighted(chain_kernel(), [indicator_y1])
    h = DetMap(TWO, Real(1), float, "id")
    a = spw_check(wk, [h], None, n=2000, seed=5)
    b = spw_check(wk, [h], None, n=2000, seed=5)
    assert a == b
