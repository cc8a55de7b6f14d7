import math
import random
from fractions import Fraction

import pytest

from jointkern import (
    Finite,
    ShapeError,
    UNIT_VALUE,
    abduct_trace,
    bernoulli,
    compose,
    counterfactual,
    derive_seed,
    evaluate,
    from_primitive,
    intervene,
    joint_log_density,
    marginal_pmf_finite,
    sample_model,
    sample_with_trace,
)
from jointkern import Diagram, Hypergraph, HypMorphism, Interpretation

from support import chain_parts, enumerate_traces, fourbox_parts

TWO = Finite(2)


def test_intervene_marginal():
    d, interp = chain_parts()
    surgered = intervene(d, interp, {"flip": 1})
    assert marginal_pmf_finite(evaluate(d, surgered), UNIT_VALUE) == {0: 0.3, 1: 0.7}
    # base interpretation is untouched
    assert marginal_pmf_finite(evaluate(d, interp), UNIT_VALUE) == {0: 0.55, 1: 0.45}


def test_intervene_empty_is_identity():
    d, interp = chain_parts()
    assert intervene(d, interp, {}) is interp


def test_intervened_box_leaves_the_trace():
    d, interp = chain_parts()
    k = evaluate(d, intervene(d, interp, {"flip": 1}))
    assert k.box_ids == ("b2",)
    assert joint_log_density(k, UNIT_VALUE, {"b2": 1}) == pytest.approx(
        math.log(0.7), abs=1e-12)


def test_intervene_guards():
    d, interp = chain_parts()
    with pytest.raises(ShapeError, match="unknown box"):
        intervene(d, interp, {"nope": 1})
    with pytest.raises(ShapeError):
        intervene(d, interp, {"flip": 2})
    with pytest.raises(ShapeError):
        intervene(d, interp, {"flip": 0.5})


def test_intervention_sampling_frequency():
    d, interp = chain_parts()
    surgered = intervene(d, interp, {"flip": 1})
    n = 20000
    hits = sum(
        sample_model(d, surgered, UNIT_VALUE, derive_seed(11, i))[1]
        for i in range(n))
    assert hits / n == pytest.approx(0.7, abs=0.01)


def test_nondescendant_marginal_is_unchanged():
    # root3 feeds nothing downstream of root2, so forcing root2 must leave
    # the root3 output marginal exactly alone; the comparison is done on
    # exact rational probabilities so no float summation order can hide in it
    d, interp = fourbox_parts()

    def c_marginal(k) -> dict:
        out: dict = {}
        for t, prob in enumerate_traces(k, UNIT_VALUE):
            c, _s = k.mech(t, UNIT_VALUE)
            out[c] = out.get(c, Fraction(0)) + prob
        return out

    want = c_marginal(evaluate(d, interp))
    for forced in (0, 1):
        surgered = intervene(d, interp, {"root2": forced})
        got = c_marginal(evaluate(d, surgered))
        assert got == want


def test_abduct_chain_example():
    d, interp = chain_parts()
    u = abduct_trace(d, interp, UNIT_VALUE, {"b1": 1, "b2": 1})
    assert u == {"b1": (0.25,), "b2": (0.35,)}
    t, x = counterfactual(d, interp, {}, u, UNIT_VALUE)
    assert t == {"b1": 1, "b2": 1} and x == 1


def test_counterfactual_flip():
    d, interp = chain_parts()
    u = {"b1": (0.6,), "b2": (0.6,)}
    t, x = counterfactual(d, interp, {}, u, UNIT_VALUE)
    assert (t, x) == ({"b1": 0, "b2": 0}, 0)
    # same noise, flip forced on: the step succeeds at p = 0.7
    t2, x2 = counterfactual(d, interp, {"flip": 1}, u, UNIT_VALUE)
    assert (t2, x2) == ({"b2": 1}, 1)


def test_counterfactual_ignores_removed_boxes():
    d, interp = chain_parts()
    u = abduct_trace(d, interp, UNIT_VALUE, {"b1": 0, "b2": 1})
    t, x = counterfactual(d, interp, {"flip": 1}, u, UNIT_VALUE)
    assert "b1" not in t and x == t["b2"]
    # an entry naming no box of the diagram is an error, intervened or not
    for do in ({}, {"flip": 1}):
        with pytest.raises(ShapeError, match=r"unknown boxes \['zz'\]"):
            counterfactual(d, interp, do, {**u, "zz": (0.5,)}, UNIT_VALUE)


def test_counterfactual_ignores_removed_composite_boxes():
    # flip's kernel is a composite of two coins: its boxes are b1.a and b1.b
    d, interp = chain_parts()
    second = bernoulli(p=lambda z: 0.9 if z == 1 else 0.1, dom=TWO)
    kernels = dict(interp.box_kernels)
    kernels["flip"] = compose(from_primitive(bernoulli(0.5), "a"), from_primitive(second, "b"))
    interp = Interpretation(interp.wire_spaces, kernels, {"flip": ("B", "B"), "step": ("B",)})
    t, x = sample_model(d, interp, UNIT_VALUE, seed=3)
    assert set(t) == {"b1.a", "b1.b", "b2"}
    u = abduct_trace(d, interp, UNIT_VALUE, t)
    assert counterfactual(d, interp, {}, u, UNIT_VALUE) == (t, x)
    t2, x2 = counterfactual(d, interp, {"flip": 1}, u, UNIT_VALUE)
    assert set(t2) == {"b2"} and x2 == t2["b2"]
    with pytest.raises(ShapeError, match=r"unknown boxes \['b9.a'\]"):
        counterfactual(d, interp, {"flip": 1}, {**u, "b9.a": (0.5,)}, UNIT_VALUE)


def test_abduct_guards():
    d, interp = chain_parts()
    with pytest.raises(ShapeError, match="missing boxes"):
        abduct_trace(d, interp, UNIT_VALUE, {"b1": 1})
    with pytest.raises(ShapeError, match="unknown boxes"):
        abduct_trace(d, interp, UNIT_VALUE, {"b1": 1, "b2": 1, "b3": 0})
    with pytest.raises(ShapeError):
        # probability-zero observation has no preimage
        abduct_trace(d, interp, UNIT_VALUE, {"b1": 1, "b2": 2})


def test_abduct_replay_battery():
    d, interp = fourbox_parts()
    for i in range(200):
        t, x = sample_model(d, interp, UNIT_VALUE, derive_seed(5, i))
        u = abduct_trace(d, interp, UNIT_VALUE, t)
        t2, x2 = counterfactual(d, interp, {}, u, UNIT_VALUE)
        assert (t2, x2) == (t, x)


def test_abduction_flows_through_inputs():
    sig = Hypergraph(("B",), ("step",), {"step": ("B",)}, {"step": ("B",)})
    graph = Hypergraph(("p", "q"), ("g",), {"g": ("p",)}, {"g": ("q",)})
    d = Diagram(graph=graph, signature=sig,
                labeling=HypMorphism({"p": "B", "q": "B"}, {"g": "step"}),
                inputs=("p",), outputs=("q",))
    interp = Interpretation(
        {"B": TWO},
        {"step": from_primitive(
            bernoulli(lambda z: 0.2 if z < 1 else 0.7, dom=TWO), "step")},
        {"step": ("B",)})
    u = abduct_trace(d, interp, 1, {"g": 1})
    assert u == {"g": (0.35,)}
    # the same noise at the other input falls outside p = 0.2
    t, x = counterfactual(d, interp, {}, u, 0)
    assert (t, x) == ({"g": 0}, 0)


def test_counterfactual_under_do_distribution():
    # empirical check: abduct-then-replay under an empty do reproduces the
    # original sampler distribution
    d, interp = chain_parts()
    k = evaluate(d, interp)
    base = marginal_pmf_finite(k, UNIT_VALUE)
    counts = {0: 0, 1: 0}
    n = 20000
    for i in range(n):
        t, _ = sample_with_trace(k, UNIT_VALUE, derive_seed(3, i))
        u = abduct_trace(d, interp, UNIT_VALUE, t)
        _, x = counterfactual(d, interp, {}, u, UNIT_VALUE)
        counts[x] += 1
    tv = 0.5 * sum(abs(counts[v] / n - base[v]) for v in base)
    assert tv <= 0.02


def test_random_interventions_fourbox():
    # forcing med then sink pins the sink output outright
    d, interp = fourbox_parts()
    rng = random.Random(2)
    for _ in range(5):
        s_val = rng.randint(0, 1)
        surgered = intervene(d, interp, {"sink": s_val})
        pmf = marginal_pmf_finite(evaluate(d, surgered), UNIT_VALUE)
        assert all(key[1] == s_val for key in pmf)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
