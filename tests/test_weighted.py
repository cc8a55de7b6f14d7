import math
import tracemalloc
from pathlib import Path

import numpy as np
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
    derive_seed,
    from_primitive,
    joint_log_density,
    kleisli_compose,
    kleisli_tensor,
    lift_det,
    parse_model,
    sample_scored,
    spw_check,
    uniform,
    unnormalized_log_density,
    weighted,
    with_weight_map,
)

import jointkern.kernels as kernels_module

from support import chain_parts, count_draws

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


def test_a_plain_factor_reads_its_own_stage_trace():
    seen = []
    left = weighted(from_primitive(bernoulli(0.5), "a"),
                    [lambda t, z: seen.append(("left", t, z)) or 3.0])
    step = from_primitive(bernoulli(lambda x: 0.2 if x < 1 else 0.7, dom=TWO), "b")
    right = weighted(step, [lambda t, z: seen.append(("right", t, z)) or 5.0])
    wk = kleisli_compose(left, right)
    assert wk.log_weight({"a": 1, "b": 0}, UNIT_VALUE) == pytest.approx(math.log(15.0))
    # after composition each factor sees its own stage's boxes and input
    assert seen == [("left", {"a": 1}, UNIT_VALUE), ("right", {"b": 0}, 1)]


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
    wk = weighted(base, [WeightFactor(lambda x: x, (base.out,))])
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
    # the input is any point of the kernel's domain, checked before any draw
    nonunit = weighted(from_primitive(bernoulli(0.5, dom=TWO), "b"))
    with pytest.raises(ShapeError, match=r"^kernel input 5 is not a point of Finite\(size=2\)$"):
        spw_check(nonunit, [h], [0.5], n=2000, seed=0, z=5)
    (rep,) = spw_check(nonunit, [h], [0.5], n=2000, seed=0, z=1)
    assert rep["pass"]


def test_spw_check_deterministic():
    wk = weighted(chain_kernel(), [indicator_y1])
    h = DetMap(TWO, Real(1), float, "id")
    a = spw_check(wk, [h], None, n=2000, seed=5)
    b = spw_check(wk, [h], None, n=2000, seed=5)
    assert a == b


# ---------------------------------------------------------------------------
# spw_check against an independent per-seed recomputation

MODELS = Path(__file__).parent / "models"


def fixture_kernel(name: str) -> WeightedJointKernel:
    m = parse_model(str(MODELS / f"{name}.json"))
    return m.weighted_kernel()


def composed_kernel() -> WeightedJointKernel:
    left = weighted(from_primitive(bernoulli(0.3), "a"),
                    [lambda t, z: 3.0 if t["a"] >= 1 else 0.5])
    step = from_primitive(bernoulli(lambda x: 0.2 if x < 1 else 0.7, dom=TWO), "b")
    # the right factor reads its input, the left output, and can vanish
    right = weighted(step, [lambda t, z: 0.0 if z == t["b"] else 4.0])
    return kleisli_compose(left, right)


TEST_FUNCTIONS = [
    lambda x: x,
    lambda x: x * x + 1.0,
    lambda x: 3 - 2 * x,  # an int for an int x: spw_check converts with float
]

CASES = {
    "weighted": (lambda: fixture_kernel("weighted"), TWO),
    "uniform2x": (lambda: fixture_kernel("uniform2x"), Real(1)),
    "kleisli": (composed_kernel, TWO),
}


def recomputed(wk, hs, n: int, seed: int) -> list:
    """(estimate, stderr) per test function, each sample drawn and weighed
    on its own: sample_scored at its seed, then log_weight with the slots
    recomputed from the trace, then one row per sample."""
    rows = []
    for i in range(n):
        t, x, _ = sample_scored(wk.base, UNIT_VALUE, derive_seed(seed, i))
        lw = wk.log_weight(t, UNIT_VALUE)
        w = 0.0 if lw == NEG_INF else math.exp(lw)
        rows.append([w * float(h(x)) for h in hs])
    rows = np.array(rows)
    return [(float(np.mean(rows[:, j])), float(np.std(rows[:, j], ddof=1) / math.sqrt(n)))
            for j in range(len(hs))]


@pytest.mark.parametrize("n", [1000, 2001])
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_spw_check_bits_match_a_per_seed_recomputation(case, count, n):
    make, cod = CASES[case]
    wk = make()
    hs = [DetMap(cod, Real(1), f, f"h{j}") for j, f in enumerate(TEST_FUNCTIONS[:count])]
    refs = [1.0] * count
    got = [(r["estimate"], r["stderr"]) for r in spw_check(wk, hs, refs, n=n, seed=11)]
    assert got == recomputed(wk, hs, n, 11)


def counted_factors(wk: WeightedJointKernel) -> tuple[WeightedJointKernel, list]:
    """wk with every call of each factor counted; returns it and the counts."""
    calls = [0] * len(wk.weight_factors)

    def counted(j, fn):
        def factor(*args):
            calls[j] += 1
            return fn(*args)
        return factor

    return WeightedJointKernel(wk.base, tuple(
        WeightFactor(counted(j, f.fn), f.slots) for j, f in enumerate(wk.weight_factors))), calls


def test_spw_check_weighs_each_sample_once_and_draws_each_box_once(monkeypatch):
    # the left factor never vanishes, so both factors weigh every sample
    wk, calls = counted_factors(composed_kernel())
    draws = count_draws(monkeypatch)
    h = DetMap(TWO, Real(1), float, "id")
    spw_check(wk, [h, h, h], [0.5, 0.5, 0.5], n=1500, seed=3)
    assert calls == [1500, 1500]
    assert draws[0] == 1500 * len(wk.base.boxes)


def test_spw_check_rejects_bad_references_before_any_draw(monkeypatch):
    draws = count_draws(monkeypatch)
    wk = weighted(chain_kernel(), [indicator_y1])
    h = DetMap(TWO, Real(1), float, "id")
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ParameterError, match="reference values must be finite"):
            spw_check(wk, [h, h], [0.5, bad], n=1000, seed=0)
    assert draws[0] == 0


def test_spw_check_names_a_reference_that_is_no_number(monkeypatch):
    draws = count_draws(monkeypatch)
    wk = weighted(chain_kernel(), [indicator_y1])
    h = DetMap(TWO, Real(1), float, "id")
    for bad, shown in (("x", "'x'"), (None, "None"), (10 ** 400, str(10 ** 400))):
        with pytest.raises(ParameterError,
                           match=rf"^reference values must be finite numbers, got {shown}$"):
            spw_check(wk, [h], [bad], 1000, 1)
    assert draws[0] == 0


def test_spw_check_names_an_n_that_is_no_integer(monkeypatch):
    draws = count_draws(monkeypatch)
    wk = weighted(chain_kernel(), [indicator_y1])
    h = DetMap(TWO, Real(1), float, "id")
    for bad in (1000.5, 2000.0, "2000"):
        with pytest.raises(ParameterError, match=rf"^spw_check needs an integer n, got {bad!r}$"):
            spw_check(wk, [h], None, bad, 1)
    assert draws[0] == 0
    # an integer of another type is read as one
    assert spw_check(wk, [h], [0.9], np.int64(1000), 1)[0]["reference"] == 0.9


def test_spw_check_rejects_a_weight_past_the_float_range():
    # each factor is a float; their product is not
    wk = weighted(chain_kernel(), [lambda t, z: 1e300, lambda t, z: 1e300])
    h = DetMap(TWO, Real(1), float, "id")
    with pytest.raises(ShapeError, match=r"^non-finite weight exp\(1381\..*\) at sample 0$"):
        spw_check(wk, [h], [1.0], n=1000, seed=0)
    with pytest.raises(ShapeError, match=r"^non-finite weight .* in the exact reference$"):
        spw_check(wk, [h], None, n=1000, seed=0)


def test_weight_map_rejects_a_weight_past_the_float_range():
    # the same exp that spw_check and the exact reference guard
    wk = weighted(chain_kernel(), [lambda t, z: 1e300, lambda t, z: 1e300])
    with pytest.raises(ShapeError, match=r"^non-finite weight exp\(1381\.[0-9]*\)$"):
        wk.weight(((0, 1), UNIT_VALUE))
    assert weighted(chain_kernel(), [lambda t, z: 0.0]).weight(((0, 1), UNIT_VALUE)) == 0.0


def test_spw_check_stores_one_float_per_sample_and_test_function():
    wk = fixture_kernel("uniform2x")
    h = DetMap(Real(1), Real(1), float, "id")
    n = 10_000
    spw_check(wk, [h], [8.0 / 3.0], n=1000, seed=0)  # warm every cache first
    tracemalloc.start()
    try:
        spw_check(wk, [h], [8.0 / 3.0], n=n, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 8-byte array, plus numpy's copy of it for the standard deviation
    assert peak / n <= 20.0


# ---------------------------------------------------------------------------
# exact references: one elimination for every test function, bounded

def test_exact_references_enumerate_once_for_every_test_function():
    wk = weighted(chain_kernel(), [indicator_y1])
    hs = [DetMap(TWO, Real(1), float, "id"), DetMap(TWO, Real(1), lambda x: 1.0, "one"),
          DetMap(TWO, Real(1), lambda x: 0.1 + x / 3, "third")]
    alone = [expected_value_by_enumeration(wk, UNIT_VALUE, h) for h in hs]
    wk, calls = counted_factors(wk)
    reports = spw_check(wk, hs, None, n=1000, seed=0)
    # the four traces once, then the 1000 samples
    assert calls == [4 + 1000]
    assert [r["reference"] for r in reports] == alone


def test_exact_reference_stops_past_the_enumeration_limit(monkeypatch):
    wk = weighted(chain_kernel(), [indicator_y1])
    h = DetMap(TWO, Real(1), float, "id")
    monkeypatch.setattr(kernels_module, "_ROW_LIMIT", 4)
    assert expected_value_by_enumeration(wk, UNIT_VALUE, h) == pytest.approx(0.9, abs=1e-12)
    monkeypatch.setattr(kernels_module, "_ROW_LIMIT", 3)
    with pytest.raises(ShapeError, match=r"more than 3 rows.*--ref"):
        expected_value_by_enumeration(wk, UNIT_VALUE, h)
    with pytest.raises(ShapeError, match=r"--ref"):
        spw_check(wk, [h], None, n=1000, seed=0)
    # given references need no elimination
    (rep,) = spw_check(wk, [h], [0.9], n=1000, seed=0)
    assert rep["reference"] == 0.9
