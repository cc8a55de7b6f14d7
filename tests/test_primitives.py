import json
import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.integrate import quad

from jointkern import (
    Countable,
    Finite,
    NEG_INF,
    ParameterError,
    Real,
    ShapeError,
    UNIT_VALUE,
    bernoulli,
    categorical,
    dirac_countable,
    exponential,
    instantiate,
    normal,
    poisson,
    uniform,
    uniform01,
)
from jointkern.cli import main
from jointkern.primitives import _Probs

Z = UNIT_VALUE


def test_bernoulli_density_matches_reference():
    p = bernoulli(0.3)
    assert p.log_density(Z, 1) == pytest.approx(stats.bernoulli.logpmf(1, 0.3), abs=1e-12)
    assert p.log_density(Z, 0) == pytest.approx(stats.bernoulli.logpmf(0, 0.3), abs=1e-12)
    assert bernoulli(0.5).log_density(Z, 1) == pytest.approx(math.log(0.5), abs=1e-15)
    assert bernoulli(0.0).log_density(Z, 1) == NEG_INF
    assert bernoulli(1.0).log_density(Z, 0) == NEG_INF


def test_categorical_density_matches_reference():
    probs = [0.1, 0.2, 0.3, 0.4]
    p = categorical(probs)
    for i, q in enumerate(probs):
        assert p.log_density(Z, i) == pytest.approx(math.log(q), abs=1e-12)
    assert categorical([0.5, 0.0, 0.5]).log_density(Z, 1) == NEG_INF


def test_a_wired_categorical_builds_one_point_per_probability_vector():
    # inputs 0 and 1 give equal probabilities, so their records read one point
    p = categorical([lambda x: 0.5 if x < 2 else 0.25, lambda x: 0.5 if x < 2 else 0.75],
                    dom=Finite(3))
    assert p.point(0) is p.point(1)
    assert p.point(2) is not p.point(0)
    assert p.point(0).qs == [Fraction(1, 2)] * 2
    assert p.point(2).qs == [Fraction(1, 4), Fraction(3, 4)]
    assert [p.pushforward((0.3,), x) for x in range(3)] == [0, 0, 1]


def test_normal_density_matches_reference():
    p = normal(0.0, 1.0)
    assert p.log_density(Z, 0.0) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)
    rng = random.Random(3)
    for _ in range(20):
        mu, sigma, x = rng.uniform(-3, 3), rng.uniform(0.1, 4), rng.uniform(-9, 9)
        got = normal(mu, sigma).log_density(Z, x)
        assert got == pytest.approx(stats.norm.logpdf(x, mu, sigma), abs=1e-10)


def test_exponential_density_matches_reference():
    rng = random.Random(4)
    for _ in range(20):
        rate, x = rng.uniform(0.1, 5), rng.uniform(0, 8)
        got = exponential(rate).log_density(Z, x)
        assert got == pytest.approx(stats.expon.logpdf(x, scale=1 / rate), abs=1e-10)
    assert exponential(2.0).log_density(Z, -0.5) == NEG_INF


def test_poisson_density_matches_reference():
    rng = random.Random(5)
    for _ in range(20):
        rate, m = rng.uniform(0.1, 20), rng.randrange(0, 40)
        got = poisson(rate).log_density(Z, m)
        assert got == pytest.approx(stats.poisson.logpmf(m, rate), abs=1e-9)
    assert poisson(2.0).log_density(Z, -1) == NEG_INF
    assert poisson(0.0).log_density(Z, 0) == 0.0
    assert poisson(0.0).log_density(Z, 3) == NEG_INF


def test_uniform_density():
    p = uniform(2.0, 6.0)
    assert p.log_density(Z, 3.0) == pytest.approx(math.log(0.25), abs=1e-12)
    assert p.log_density(Z, 1.0) == NEG_INF
    assert uniform01().name == "uniform01"
    assert uniform(0.0, 1.0).name == "uniform01"
    assert uniform(0.0, 2.0).name == "uniform"


def test_dirac_density():
    p = dirac_countable(7)
    assert p.log_density(Z, 7) == 0.0
    assert p.log_density(Z, 6) == NEG_INF
    assert p.cod == Countable()


def test_normalization_within_tolerance():
    rng = random.Random(6)
    for _ in range(10):
        pv = rng.random()
        total = sum(math.exp(bernoulli(pv).log_density(Z, m)) for m in (0, 1))
        assert abs(total - 1.0) <= 1e-6

        qs = [rng.randint(1, 9) for _ in range(4)]
        qs = [q / sum(qs) for q in qs]
        cat = categorical(qs)
        total = sum(math.exp(cat.log_density(Z, m)) for m in range(4))
        assert abs(total - 1.0) <= 1e-6

        mu, sigma = rng.uniform(-2, 2), rng.uniform(0.2, 3)
        pdf = normal(mu, sigma)
        total, _ = quad(lambda x: math.exp(pdf.log_density(Z, x)),
                        mu - 12 * sigma, mu + 12 * sigma)
        assert abs(total - 1.0) <= 1e-6

        rate = rng.uniform(0.2, 4)
        pdf = exponential(rate)
        total, _ = quad(lambda x: math.exp(pdf.log_density(Z, x)), 0, 60 / rate)
        assert abs(total - 1.0) <= 1e-6

        rate = rng.uniform(0.0, 25)
        pmf = poisson(rate)
        total = sum(math.exp(pmf.log_density(Z, m)) for m in range(int(rate + 40 * math.sqrt(rate + 1))))
        assert abs(total - 1.0) <= 1e-6

        a = rng.uniform(-4, 0)
        b = a + rng.uniform(0.5, 5)
        pdf = uniform(a, b)
        total, _ = quad(lambda x: math.exp(pdf.log_density(Z, x)), a, b)
        assert abs(total - 1.0) <= 1e-6


def test_pushforward_conventions():
    assert bernoulli(0.5).pushforward([0.6], Z) == 0
    assert bernoulli(0.7).pushforward([0.6], Z) == 1
    assert uniform01().pushforward([0.25], Z) == 0.25
    got = exponential(2.0).pushforward([1 - math.exp(-2.0)], Z)
    assert got == pytest.approx(1.0, rel=1e-12)
    assert categorical([0.2, 0.3, 0.5]).pushforward([0.49], Z) == 1
    assert categorical([0.2, 0.3, 0.5]).pushforward([0.5], Z) == 2
    assert normal(0.0, 1.0).pushforward([0.5], Z) == pytest.approx(0.0, abs=1e-12)
    assert poisson(3.0).pushforward([math.exp(-3.0) / 2], Z) == 0
    assert dirac_countable(-4).pushforward([0.99], Z) == -4


def test_pushforward_u_boundaries():
    # closed-form discrete samplers fold u = 1 into the last positive index
    assert bernoulli(0.5).pushforward([1.0], Z) == 0
    assert categorical([0.5, 0.5, 0.0]).pushforward([1.0], Z) == 1
    for p in (normal(0.0, 1.0), exponential(1.0), poisson(2.0)):
        with pytest.raises(ShapeError):
            p.pushforward([1.0], Z)
    with pytest.raises(ShapeError):
        normal(0.0, 1.0).pushforward([0.0], Z)


def test_abduct_examples():
    assert bernoulli(0.5).abduct(Z, 1) == (0.25,)
    assert bernoulli(0.5).abduct(Z, 0) == (0.75,)
    assert uniform01().abduct(Z, 0.42) == (0.42,)
    assert normal(0.0, 1.0).abduct(Z, 0.0) == (0.5,)
    with pytest.raises(ShapeError):
        bernoulli(1.0).abduct(Z, 0)
    with pytest.raises(ShapeError):
        uniform(0.0, 1.0).abduct(Z, 1.5)
    with pytest.raises(ShapeError):
        dirac_countable(3).abduct(Z, 4)


def test_roundtrip_battery():
    rng = random.Random(7)
    for _ in range(300):
        pv = rng.uniform(0.05, 0.95)
        p = bernoulli(pv)
        for m in (0, 1):
            assert p.pushforward(p.abduct(Z, m), Z) == m

        qs = [rng.randint(1, 9) for _ in range(5)]
        qs = [q / sum(qs) for q in qs]
        cat = categorical(qs)
        m = rng.randrange(5)
        assert cat.pushforward(cat.abduct(Z, m), Z) == m

        # observed points come from the sampler itself, as in abduction of a
        # recorded trace; far-tail integers whose CDF interval collapses in
        # binary64 are unreachable by any single-uniform pushforward
        lam = rng.uniform(0.1, 15)
        poi = poisson(lam)
        m = poi.pushforward([rng.uniform(0.0, 0.9999)], Z)
        assert poi.pushforward(poi.abduct(Z, m), Z) == m

        mu, sigma = rng.uniform(-3, 3), rng.uniform(0.2, 3)
        nrm = normal(mu, sigma)
        x = rng.uniform(mu - 5 * sigma, mu + 5 * sigma)
        back = nrm.pushforward(nrm.abduct(Z, x), Z)
        assert abs(back - x) <= 1e-9 * max(1.0, abs(x))

        rate = rng.uniform(0.2, 4)
        ex = exponential(rate)
        x = rng.uniform(0, 10 / rate)
        back = ex.pushforward(ex.abduct(Z, x), Z)
        assert abs(back - x) <= 1e-9 * max(1.0, abs(x))

        a = rng.uniform(-4, 0)
        b = a + rng.uniform(0.5, 5)
        un = uniform(a, b)
        x = rng.uniform(a, b)
        back = un.pushforward(un.abduct(Z, x), Z)
        assert abs(back - x) <= 1e-9 * max(1.0, abs(x))


def test_pushforward_monotone_in_u():
    rng = random.Random(8)
    prims = [
        categorical([0.2, 0.5, 0.3]),
        uniform(-1.0, 4.0),
        normal(0.5, 2.0),
        exponential(1.3),
        poisson(4.0),
        dirac_countable(2),
    ]
    for p in prims:
        us = sorted(rng.uniform(0.001, 0.999) for _ in range(50))
        vals = [p.pushforward([u], Z) for u in us]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    # bernoulli samples 1 iff u < p, so it is monotone the other way around;
    # the convention is what makes the counterfactual flip example work
    bern = bernoulli(0.37)
    us = sorted(rng.uniform(0.001, 0.999) for _ in range(50))
    vals = [bern.pushforward([u], Z) for u in us]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def _tv(counts: dict, probs: dict, n: int) -> float:
    keys = set(counts) | set(probs)
    return 0.5 * sum(abs(counts.get(k, 0) / n - probs.get(k, 0.0)) for k in keys)


def test_sampler_density_agreement_small():
    rng = random.Random(9)
    n = 20000

    p = categorical([0.1, 0.6, 0.3])
    counts: dict = {}
    for _ in range(n):
        v = p.pushforward([rng.random()], Z)
        counts[v] = counts.get(v, 0) + 1
    assert _tv(counts, {0: 0.1, 1: 0.6, 2: 0.3}, n) <= 0.02

    nrm = normal(1.0, 2.0)
    xs = sorted(nrm.pushforward([rng.random()], Z) for _ in range(n))
    ks = max(abs((i + 1) / n - stats.norm.cdf(x, 1.0, 2.0)) for i, x in enumerate(xs))
    assert ks <= 0.02


def test_parameter_validation():
    with pytest.raises(ParameterError):
        bernoulli(1.5)
    with pytest.raises(ParameterError):
        bernoulli(float("nan"))
    with pytest.raises(ParameterError):
        categorical([0.5, 0.6])
    with pytest.raises(ParameterError):
        categorical([0.5, -0.5, 1.0])
    with pytest.raises(ParameterError):
        categorical([])
    with pytest.raises(ParameterError):
        categorical([0.5, 0.5], size=3)
    with pytest.raises(ParameterError):
        normal(0.0, 0.0)
    with pytest.raises(ParameterError):
        exponential(0.0)
    with pytest.raises(ParameterError):
        poisson(-1.0)
    with pytest.raises(ParameterError):
        uniform(1.0, 1.0)
    with pytest.raises(ParameterError):
        dirac_countable(0.5)


def test_wired_parameter_validation_happens_per_call():
    p = bernoulli(lambda z: z, dom=Real(1))
    assert p.pushforward([0.3], 0.6) == 1
    with pytest.raises(ParameterError):
        p.pushforward([0.3], 1.5)
    with pytest.raises(ParameterError):
        p.log_density(1.5, 1)


def test_instantiate_dispatch():
    p = instantiate("bernoulli", {"p": 0.25})
    assert math.exp(p.log_density(Z, 1)) == pytest.approx(0.25, abs=1e-12)
    assert instantiate("uniform01", {}).name == "uniform01"
    assert instantiate("categorical", {"probs": [0.5, 0.5]}).cod == Finite(2)
    with pytest.raises(ParameterError):
        instantiate("categorical", {})
    with pytest.raises(ParameterError):
        instantiate("beta", {})


def test_poisson_rate_is_bounded_where_exp_of_minus_rate_is_normal():
    top = 708.3964185322641  # -ln of the least normal float
    p = poisson(top)
    # quantiles near top +- 2.33 standard deviations, and an exact round trip
    assert [p.pushforward([u], Z) for u in (0.01, 0.5, 0.99)] == [647, 708, 771]
    assert p.pushforward(p.abduct(Z, 708), Z) == 708
    bound = r"poisson rate must lie in \[0, 708.3964185322641\]"
    for rate in (math.nextafter(top, math.inf), 745.0, 1000.0):
        with pytest.raises(ParameterError, match=bound):
            poisson(rate)
    wired = poisson(lambda z: z, dom=Real(1))
    assert wired.pushforward([0.5], top) == 708
    with pytest.raises(ParameterError, match=bound):
        wired.pushforward([0.5], 1000.0)


def test_poisson_rate_bound_in_model_files(capsys, tmp_path):
    raw = {
        "version": 1,
        "signature": {"wires": {"B": {"space": {"finite": 2}}, "N": {"space": "countable"}},
                      "boxes": {"flip": {"dom": [], "cod": ["B"]},
                                "count": {"dom": ["B"], "cod": ["N"]}}},
        "diagram": {"wires": {"x": "B", "y": "N"}, "boxes": {"b1": "flip", "b2": "count"},
                    "dom": {"b1": [], "b2": ["x"]}, "cod": {"b1": ["x"], "b2": ["y"]},
                    "inputs": [], "outputs": ["y"]},
        "interpretation": {"flip": {"primitive": "bernoulli", "params": {"p": 0.5}},
                           "count": {"primitive": "poisson", "params": {"rate": 1000.0}}},
    }
    path = tmp_path / "poisson.json"
    path.write_text(json.dumps(raw))
    # a constant rate fails at parse
    assert main(["validate", str(path)]) == 4
    assert capsys.readouterr() == (
        "", "error: poisson rate must lie in [0, 708.3964185322641], got 1000.0\n")
    # a wired rate at the first record that reads it
    raw["interpretation"]["count"]["params"]["rate"] = "if $0 < 1 then 3.0 else 1000.0"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 0
    assert main(["sample", str(path), "--n", "20", "--seed", "0"]) == 4
    out, err = capsys.readouterr()
    assert err == "error: poisson rate must lie in [0, 708.3964185322641], got 1000.0\n"


def test_poisson_rate_zero_and_large_values():
    p = poisson(0.0)
    assert p.pushforward([0.7], Z) == 0
    assert p.abduct(Z, 0) == (0.5,)
    big = poisson(100.0)
    m = 137
    assert big.pushforward(big.abduct(Z, m), Z) == m


def _normalized_by_fractions(probs):
    """A categorical point as exact Fraction arithmetic normalizes it: each
    entry read as its shortest decimal literal, over their exact sum."""
    qs = [Fraction(repr(float(v))) for v in probs]
    total = sum(qs)
    if abs(float(total) - 1.0) > 1e-9:
        return f"categorical probabilities sum to {float(total)}, not 1"
    qs = [q / total for q in qs]
    return qs, [float(c) for c in accumulate(qs)]


# weights normalized in floats, so they sum to 1 within rounding; plus tiny,
# huge-exponent and zero entries, and vectors that miss 1 by a little or a lot
_VECTORS = st.one_of(
    st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8).filter(lambda ws: sum(ws) > 0).map(
        lambda ws: [w / sum(ws) for w in ws]),
    st.lists(st.sampled_from([0.0, 5e-324, 1e-300, 1e-17, 0.1, 0.2, 0.3, 1 / 3, 0.5, 0.7, 1.0]),
             min_size=1, max_size=6),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_VECTORS)
def test_categorical_normalization_is_exact(probs):
    want = _normalized_by_fractions(probs)
    try:
        pt = _Probs(probs)
    except ParameterError as e:
        assert str(e) == want
        return
    assert (pt.qs, pt.cum) == want
    assert [c.hex() for c in pt.cum] == [c.hex() for c in want[1]]
