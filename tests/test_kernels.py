import dataclasses
import math
import random
import struct
from pathlib import Path

import pytest

from jointkern import (
    DetMap,
    Finite,
    NEG_INF,
    PrimitiveKernel,
    Product,
    Real,
    ShapeError,
    UNIT,
    UNIT_VALUE,
    abduct_uniforms,
    bernoulli,
    compose,
    evaluate,
    exponential,
    expose_residuals,
    from_primitive,
    identity_kernel,
    intervene,
    joint_log_density,
    lift_det,
    marginal_pmf_finite,
    normal,
    poisson,
    rename_boxes,
    replay_with_uniforms,
    sample_records,
    sample_scored,
    sample_with_trace,
    structure_kernel,
    tensor,
    uniform,
)
import jointkern.rng as rng
from jointkern.model import parse_model

from support import (
    ck_composite, count_calls, count_draws, enumerate_traces, kernel_matrix, random_finite_kernel,
)

TWO = Finite(2)


def chain_kernel():
    first = from_primitive(bernoulli(0.5), "b1")
    second = from_primitive(
        bernoulli(lambda x: 0.2 if x < 1 else 0.7, dom=TWO), "b2")
    return compose(first, second)


def test_lift_det_examples():
    k = identity_kernel(TWO)
    assert k.residual == UNIT
    assert k.box_ids == ()
    t, x = sample_with_trace(k, 1, 99)
    assert (t, x) == ({}, 1)

    from jointkern import Countable
    shift = lift_det(DetMap(Countable(), Countable(), lambda v: v + 1, "succ"))
    assert sample_with_trace(shift, 4, 0)[1] == 5
    assert joint_log_density(shift, 4, {}) == 0.0


def test_structure_kernels():
    copy = structure_kernel("copy", TWO)
    assert sample_with_trace(copy, 1, 0)[1] == (1, 1)
    delete = structure_kernel("delete", Real(1))
    assert sample_with_trace(delete, 2.5, 0)[1] == UNIT_VALUE
    swap = structure_kernel("swap", TWO, Real(1))
    assert sample_with_trace(swap, (0, 3.0), 0)[1] == (3.0, 0)
    with pytest.raises(ShapeError):
        structure_kernel("swap", TWO)
    with pytest.raises(ShapeError):
        structure_kernel("merge", TWO)


def test_from_primitive_shape():
    k = from_primitive(bernoulli(0.5), "b")
    assert k.dom == UNIT and k.cod == TWO and k.residual == TWO
    t, x = sample_with_trace(k, UNIT_VALUE, 3)
    assert x == t["b"]
    assert joint_log_density(k, UNIT_VALUE, {"b": 1}) == pytest.approx(math.log(0.5), abs=1e-15)


def test_chain_density_and_marginal():
    k = chain_kernel()
    got = joint_log_density(k, UNIT_VALUE, {"b1": 1, "b2": 1})
    assert got == pytest.approx(math.log(0.35), abs=1e-12)
    pmf = marginal_pmf_finite(k, UNIT_VALUE)
    assert pmf == {0: 0.55, 1: 0.45}


def test_compose_errors():
    a = from_primitive(bernoulli(0.5), "a")
    b = from_primitive(normal(0.0, 1.0), "b")
    with pytest.raises(ShapeError):
        compose(a, b)  # Finite(2) does not feed Real-parameter-free normal's UNIT dom
    with pytest.raises(ShapeError):
        compose(a, from_primitive(bernoulli(0.3, dom=TWO), "a"))


def test_tensor_examples():
    a = from_primitive(bernoulli(0.5), "a")
    b = from_primitive(bernoulli(0.5), "b")
    k = tensor(a, b)
    for m1 in (0, 1):
        for m2 in (0, 1):
            ld = joint_log_density(k, (UNIT_VALUE, UNIT_VALUE), {"a": m1, "b": m2})
            assert math.exp(ld) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ShapeError):
        tensor(a, from_primitive(bernoulli(0.5), "a"))

    n2 = tensor(from_primitive(normal(0.0, 1.0), "n1"),
                from_primitive(normal(0.0, 1.0), "n2"))
    ld = joint_log_density(n2, (UNIT_VALUE, UNIT_VALUE), {"n1": 0.0, "n2": 0.0})
    assert ld == pytest.approx(-math.log(2 * math.pi), abs=1e-12)


def test_tensor_unit_law():
    k = from_primitive(bernoulli(0.3), "k")
    unit = identity_kernel(UNIT)
    both = tensor(k, unit)
    pmf = marginal_pmf_finite(both, (UNIT_VALUE, UNIT_VALUE))
    assert pmf == {(0, 0): 0.7, (1, 0): 0.3}


def test_category_laws_random_battery():
    rng = random.Random(11)
    for trial in range(20):
        s1, s2, s3, s4 = (rng.randint(1, 4) for _ in range(4))
        a = random_finite_kernel(rng, s1, s2, f"A{trial}")
        b = random_finite_kernel(rng, s2, s3, f"B{trial}")
        c = random_finite_kernel(rng, s3, s4, f"C{trial}")

        left_id = compose(identity_kernel(Finite(s1)), a)
        right_id = compose(a, identity_kernel(Finite(s2)))
        ab_c = compose(compose(a, b), c)
        a_bc = compose(a, compose(b, c))

        for z in range(s1):
            assert marginal_pmf_finite(left_id, z) == marginal_pmf_finite(a, z)
            assert marginal_pmf_finite(right_id, z) == marginal_pmf_finite(a, z)
            assert marginal_pmf_finite(ab_c, z) == marginal_pmf_finite(a_bc, z)
            for t, _ in enumerate_traces(ab_c, z):
                assert joint_log_density(ab_c, z, t) == joint_log_density(a_bc, z, t)


def test_comonoid_laws():
    rng = random.Random(13)
    for trial in range(20):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        k = random_finite_kernel(rng, n, m, f"K{trial}")
        space = Finite(m)

        # copy then delete-right recovers the kernel's own marginals
        dup = compose(k, structure_kernel("copy", space))
        drop_right = tensor(identity_kernel(space), structure_kernel("delete", space))
        thin = compose(dup, drop_right)
        for z in range(n):
            got = marginal_pmf_finite(thin, z)
            want = {(x, UNIT_VALUE): p for x, p in marginal_pmf_finite(k, z).items()}
            assert got == want

        # copy then swap is copy
        sym = compose(dup, structure_kernel("swap", space, space))
        for z in range(n):
            assert marginal_pmf_finite(sym, z) == marginal_pmf_finite(dup, z)


def test_delete_naturality():
    rng = random.Random(17)
    for trial in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        k = random_finite_kernel(rng, n, m, f"D{trial}")
        dropped = compose(k, structure_kernel("delete", Finite(m)))
        for z in range(n):
            assert marginal_pmf_finite(dropped, z) == {UNIT_VALUE: 1.0}


def test_chapman_kolmogorov_oracle():
    rng = random.Random(19)
    for trial in range(20):
        s1, s2, s3 = (rng.randint(1, 5) for _ in range(3))
        a = random_finite_kernel(rng, s1, s2, f"ka{trial}")
        b = random_finite_kernel(rng, s2, s3, f"kb{trial}")
        rows_a = kernel_matrix(a, s1)
        rows_b = kernel_matrix(b, s2)
        want = ck_composite(rows_a, rows_b)
        comp = compose(a, b)
        for z in range(s1):
            got = marginal_pmf_finite(comp, z if s1 > 1 else 0)
            for y in range(s3):
                assert abs(got.get(y, 0.0) - float(want[z].get(y, 0))) <= 1e-12


def test_density_errors_and_support():
    k = chain_kernel()
    with pytest.raises(ShapeError):
        joint_log_density(k, UNIT_VALUE, {"b1": 1})
    with pytest.raises(ShapeError):
        joint_log_density(k, UNIT_VALUE, {"b1": 1, "b2": 1, "zz": 0})
    with pytest.raises(ShapeError):
        joint_log_density(k, UNIT_VALUE, {"b1": 1, "b2": 2})
    # the input, then the trace's box set, then each value in box order,
    # all before the first factor
    with pytest.raises(ShapeError, match=r"^kernel input True is not a point of Finite\(size=1\)$"):
        joint_log_density(k, True, {"b1": True})
    with pytest.raises(ShapeError, match=r"^trace key mismatch: missing \['b2'\], extra \[\]$"):
        joint_log_density(k, UNIT_VALUE, {"b1": True})
    with pytest.raises(ShapeError, match=r"^trace value for b1 True is not a point of Finite\(size=2\)$"):
        joint_log_density(k, UNIT_VALUE, {"b1": True, "b2": 2})
    with pytest.raises(ShapeError, match=r"^trace value for b2 2 is not a point of Finite\(size=2\)$"):
        joint_log_density(k, UNIT_VALUE, {"b1": 0, "b2": 2})
    with pytest.raises(ShapeError, match=r"^trace value for b2 False is not a point"):
        joint_log_density(k, UNIT_VALUE, {"b1": 1, "b2": False})

    certain = from_primitive(bernoulli(1.0), "c")
    assert joint_log_density(certain, UNIT_VALUE, {"c": 0}) == NEG_INF


def test_replay_with_uniforms_contract():
    k = chain_kernel()
    t, x = replay_with_uniforms(k, UNIT_VALUE, {"b1": [0.6], "b2": [0.1]})
    assert t == {"b1": 0, "b2": 1} and x == 1
    with pytest.raises(ShapeError):
        replay_with_uniforms(k, UNIT_VALUE, {"b1": [0.6]})
    with pytest.raises(ShapeError):
        replay_with_uniforms(k, UNIT_VALUE, {"b1": [0.6], "b2": [0.1], "q": [0.5]})
    with pytest.raises(ShapeError):
        replay_with_uniforms(k, UNIT_VALUE, {"b1": [0.6, 0.5], "b2": [0.1]})
    with pytest.raises(ShapeError):
        replay_with_uniforms(k, UNIT_VALUE, {"b1": [1.5], "b2": [0.1]})
    # the output is checked after every block, then each box's value
    huge = normal(mu=1.7e308, sigma=1e308)
    g = from_primitive(huge, "g")
    with pytest.raises(ShapeError, match=r"^kernel output inf is not a point of Real\(dim=1\)$"):
        replay_with_uniforms(g, UNIT_VALUE, {"g": [0.99]})
    with pytest.raises(ShapeError, match=r"^uniform 1.5 outside"):
        replay_with_uniforms(tensor(g, from_primitive(huge, "h")), (UNIT_VALUE, UNIT_VALUE),
                             {"g": [0.99], "h": [1.5]})
    hidden = compose(g, lift_det(DetMap(Real(1), UNIT, lambda v: UNIT_VALUE, "drop")))
    with pytest.raises(ShapeError,
                       match=r"^trace value for g inf is not a point of Real\(dim=1\)$"):
        replay_with_uniforms(hidden, UNIT_VALUE, {"g": [0.99]})


def test_abduct_uniforms_checks_box_by_box():
    k = compose(from_primitive(bernoulli(0.5), "a"),
                from_primitive(_hand_built("coin", lambda z, m: 0.0, dom=TWO), "b"))
    # box a's value, then box b's law, then box b's value
    with pytest.raises(ShapeError, match=r"^bernoulli: value 2 is not a point of Finite\(size=2\)$"):
        abduct_uniforms(k, UNIT_VALUE, {"a": 2, "b": True})
    with pytest.raises(ShapeError, match=r"^bernoulli: value True is not a point"):
        abduct_uniforms(k, UNIT_VALUE, {"a": True, "b": 0})
    with pytest.raises(ShapeError, match=r"^primitive 'coin' of box 'b' has no abduct$"):
        abduct_uniforms(k, UNIT_VALUE, {"a": 1, "b": 5})
    n = compose(from_primitive(bernoulli(0.5), "a"),
                from_primitive(bernoulli(lambda x: 0.25, dom=TWO), "b"))
    for value in (2, -1, 1.0, "x", math.inf):
        with pytest.raises(ShapeError, match=rf"^bernoulli: value {value!r} is not a point"):
            abduct_uniforms(n, UNIT_VALUE, {"a": 0, "b": value})


def test_pmf_of_a_family_without_one_names_the_primitive():
    for p, m in ((poisson(3.0), 2), (normal(), 0.5)):
        with pytest.raises(ShapeError, match=rf"^primitive {p.name!r} has no pmf$"):
            p.pmf(UNIT_VALUE, m)


def test_abduct_of_a_primitive_without_the_law_names_it():
    coin = _hand_built("coin", lambda z, m: 0.0)
    with pytest.raises(ShapeError, match=r"^primitive 'coin' has no abduct$"):
        coin.abduct(UNIT_VALUE, 1)


def test_sampling_determinism_and_mean():
    k = chain_kernel()
    assert sample_with_trace(k, UNIT_VALUE, 12345) == sample_with_trace(k, UNIT_VALUE, 12345)
    assert sample_with_trace(k, UNIT_VALUE, 1) != sample_with_trace(k, UNIT_VALUE, 2)

    b = from_primitive(bernoulli(0.7), "b")
    n = 20000
    mean = sum(sample_with_trace(b, UNIT_VALUE, s)[1] for s in range(n)) / n
    assert abs(mean - 0.7) < 0.01


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _mixed_chain():
    """normal -> exponential -> uniform -> poisson, each box's parameter
    wired to the box before it."""
    k = from_primitive(normal(0.3, 2.0), "n")
    k = compose(k, from_primitive(exponential(lambda x: 1.0 + x * x, dom=Real(1)), "e"))
    k = compose(k, from_primitive(uniform(lambda x: -x, lambda x: x + 1.0, dom=Real(1)), "u"))
    return compose(k, from_primitive(poisson(lambda x: abs(x) * 3.0, dom=Real(1)), "p"))


def test_sample_scored_logpdf_is_joint_log_density_bit_for_bit():
    rng = random.Random(3)
    kernels = [chain_kernel(), _mixed_chain()]
    for i in range(4):
        kernels.append(compose(random_finite_kernel(rng, 1, 3, f"a{i}"),
                               random_finite_kernel(rng, 3, 2, f"b{i}")))
    for k in kernels:
        for seed in range(40):
            t, x, logpdf = sample_scored(k, UNIT_VALUE, seed)
            assert (t, x) == sample_with_trace(k, UNIT_VALUE, seed)
            assert x == k.mech(t, UNIT_VALUE)
            assert _bits(logpdf) == _bits(joint_log_density(k, UNIT_VALUE, t))


def _hand_built(name, density, push=lambda u, z: 0, dom=UNIT):
    """A primitive on Finite(2) given only its two laws, which read z as
    their parameter point."""
    return PrimitiveKernel(name, dom, TWO, density, push)


def test_hand_built_primitive_draws_through_its_two_laws():
    calls = []

    def log_density(z, m):
        calls.append(m)
        return math.log(0.25 if m == 1 else 0.75)

    p = _hand_built("coin", log_density, lambda u, z: 1 if u[0] < 0.25 else 0)
    assert p.pushforward((0.1,), UNIT_VALUE) == 1
    assert p.log_density(UNIT_VALUE, 1) == math.log(0.25)
    k = from_primitive(p, "c")
    for seed in range(20):
        t, x, logpdf = sample_scored(k, UNIT_VALUE, seed)
        assert calls[-1] == x == t["c"]
        assert logpdf == joint_log_density(k, UNIT_VALUE, t)


def test_sample_scored_stops_adding_at_the_first_zero_density():
    # joint_log_density returns -inf at the first -inf factor, so a later
    # nan (or +inf) factor must not turn the sum into nan
    for later in (math.nan, math.inf, -1.0):
        k = compose(from_primitive(_hand_built("zero", lambda z, m: NEG_INF), "a"),
                    from_primitive(_hand_built("odd", lambda z, m: later, dom=TWO), "b"))
        assert joint_log_density(k, UNIT_VALUE, {"a": 0, "b": 0}) == NEG_INF
        assert sample_scored(k, UNIT_VALUE, 0)[2] == NEG_INF


def test_sample_scored_checks_the_output_before_the_trace():
    huge = dict(mu=1.7e308, sigma=1e308)
    # seed 2 draws inf from both boxes
    hidden = compose(from_primitive(normal(**huge), "g"),
                     lift_det(DetMap(Real(1), UNIT, lambda v: UNIT_VALUE, "drop")))
    with pytest.raises(ShapeError, match=r"^trace value for g inf is not a point"):
        sample_scored(hidden, UNIT_VALUE, 2)
    both = tensor(from_primitive(normal(**huge), "g"), from_primitive(normal(**huge), "h"))
    with pytest.raises(ShapeError, match=r"^kernel output \(inf, inf\) is not a point"):
        sample_scored(both, (UNIT_VALUE, UNIT_VALUE), 2)
    with pytest.raises(ShapeError, match="kernel input"):
        sample_scored(hidden, 1, 2)


def test_sample_records_checks_the_input_once_before_any_draw(monkeypatch):
    draws = count_draws(monkeypatch)
    k = chain_kernel()
    with pytest.raises(ShapeError, match="^kernel input"):
        next(sample_records(k, 5, iter(range(10))))
    assert draws[0] == 0
    assert len(list(sample_records(k, UNIT_VALUE, range(10)))) == 10
    assert draws[0] == 20


def test_sample_records_checks_each_output():
    # a det step past the box sends each draw of 0 off the points of TWO
    coin = from_primitive(bernoulli(0.5), "b")
    k = compose(coin, lift_det(DetMap(TWO, TWO, lambda v: 5 - 5 * v, "off")))
    seeds = range(20)
    j = [sample_scored(coin, UNIT_VALUE, seed)[1] for seed in seeds].index(0)
    assert j > 0
    records = sample_records(k, UNIT_VALUE, seeds)
    for seed in seeds[:j]:
        assert next(records) == sample_scored(k, UNIT_VALUE, seed)
    with pytest.raises(ShapeError, match=r"^kernel output 5 is not a point"):
        next(records)


def test_rename_boxes():
    k = chain_kernel()
    r = rename_boxes(k, {"b1": "u", "b2": "v"})
    assert set(r.box_ids) == {"u", "v"}
    a = joint_log_density(k, UNIT_VALUE, {"b1": 1, "b2": 0})
    b = joint_log_density(r, UNIT_VALUE, {"u": 1, "v": 0})
    assert a == b
    with pytest.raises(ShapeError):
        rename_boxes(k, {"b1": "u"})
    with pytest.raises(ShapeError):
        rename_boxes(k, {"b1": "u", "b2": "u"})


def test_expose_residuals():
    k = chain_kernel()
    e = expose_residuals(k)
    assert e.cod == Product(TWO, TWO)
    pmf = marginal_pmf_finite(e, UNIT_VALUE)
    assert pmf[(1, 1)] == pytest.approx(0.35, abs=1e-15)
    for t, _ in enumerate_traces(k, UNIT_VALUE):
        assert joint_log_density(e, UNIT_VALUE, t) == joint_log_density(k, UNIT_VALUE, t)


def test_enumerate_traces_contract():
    k = chain_kernel()
    total = sum(p for _, p in enumerate_traces(k, UNIT_VALUE))
    assert total == 1
    with pytest.raises(ShapeError):
        list(enumerate_traces(from_primitive(normal(0.0, 1.0), "n"), UNIT_VALUE))


def test_enumerate_traces_deep_chain():
    # 1500 sure coins: one trace, far deeper than the recursion limit
    k = from_primitive(bernoulli(1.0), "b0")
    for i in range(1, 1500):
        k = compose(k, from_primitive(bernoulli(1.0, dom=TWO), f"b{i}"))
    traces = list(enumerate_traces(k, UNIT_VALUE))
    assert traces == [({f"b{i}": 1 for i in range(1500)}, 1)]
    assert list(traces[0][0]) == list(k.box_ids)
    assert marginal_pmf_finite(k, UNIT_VALUE) == {1: 1.0}


def _runs(k, seeds=range(8)):
    """Every pass's results on k: the sampled records of sample_records and
    sample_scored, then per record its logpdf, its abducted uniforms and
    their replay."""
    z = UNIT_VALUE if k.dom == UNIT else (UNIT_VALUE, UNIT_VALUE)
    records = list(sample_records(k, z, seeds))
    assert records == [sample_scored(k, z, seed) for seed in seeds]
    out = [records]
    for t, _, _ in records:
        u = abduct_uniforms(k, z, t)
        out += [joint_log_density(k, z, t), u, replay_with_uniforms(k, z, u)]
    return out


def _sources():
    """Two fresh kernels whose boxes all abduct, and a model's kernel parts."""
    m = parse_model(str(Path(__file__).parent / "models" / "chain.json"))
    return chain_kernel(), from_primitive(normal(0.3, 2.0), "n"), m


# each kernel built from the sources: one per way to make a kernel from others
DERIVED = {
    "compose": lambda a, b, m: compose(
        a, from_primitive(bernoulli(lambda x: 0.9 if x else 0.1, dom=TWO), "c")),
    "tensor": lambda a, b, m: tensor(a, b),
    "rename_boxes": lambda a, b, m: rename_boxes(a, {"b1": "x", "b2": "y"}),
    "expose_residuals": lambda a, b, m: expose_residuals(a),
    "intervene": lambda a, b, m: evaluate(
        m.diagram, intervene(m.diagram, m.interpretation, {"flip": 1})),
    "replace": lambda a, b, m: dataclasses.replace(
        b, steps=rename_boxes(b, {"n": "q"}).steps),
}


@pytest.mark.parametrize("how", list(DERIVED))
def test_a_derived_kernel_runs_its_own_steps(how):
    # the sources run first, so each has its plan before the derived kernel
    # is built; the derived kernel must run as one built from fresh sources
    a, b, m = _sources()
    for k in (a, b, m.kernel):
        _runs(k)
    k = DERIVED[how](a, b, m)
    want = _runs(DERIVED[how](*_sources()))
    assert _runs(k) == want
    entries = k.pass_plan[0]
    assert len(entries) == len(k.steps)
    for entry, step in zip(entries, k.steps):
        if entry[0] is None:
            assert (entry[1], entry[-1]) == (step.box_id, step.primitive)
        else:
            assert entry[0] == step.run
    assert set(want[0][0][0]) == set(k.box_ids)


def test_passes_that_alternate_between_kernels_match_fresh_kernels():
    def kernels():
        a, b, _ = _sources()
        return [(compose(a, from_primitive(bernoulli(0.3, dom=TWO), "c")), UNIT_VALUE),
                (tensor(a, b), (UNIT_VALUE, UNIT_VALUE))]

    def record(k, z, seed):
        t, x, lp = sample_scored(k, z, seed)
        u = abduct_uniforms(k, z, t)
        return t, x, lp, joint_log_density(k, z, t), u, replay_with_uniforms(k, z, u)

    pair = kernels()
    alternating = [[record(k, z, seed) for k, z in pair] for seed in range(10)]
    for i, (k, z) in enumerate(kernels()):
        assert [record(k, z, seed) for seed in range(10)] == [rs[i] for rs in alternating]


def test_box_keys_are_built_once_by_the_first_seeded_pass(monkeypatch):
    calls = count_calls(monkeypatch, rng, "box_key")
    m = parse_model(str(Path(__file__).parent / "models" / "chain.json"))
    k = evaluate(m.diagram, m.interpretation)
    assert calls[0] == 0
    records = list(sample_records(k, UNIT_VALUE, range(5)))
    assert calls[0] == len(k.boxes) == 2
    # a second seeded pass, and the unseeded ones, build no key
    assert list(sample_records(k, UNIT_VALUE, range(5))) == records
    for t, _, _ in records:
        u = abduct_uniforms(k, UNIT_VALUE, t)
        joint_log_density(k, UNIT_VALUE, t)
        replay_with_uniforms(k, UNIT_VALUE, u)
    assert calls[0] == 2
