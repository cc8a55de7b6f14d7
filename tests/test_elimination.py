"""The exact path against its oracle: forward elimination over the slot
program (kernels._eliminate) must give what walking every trace gives
(support.enumerate_traces), bit for bit and in the same key order, and
must stay cheap where enumeration is exponential. A weighted reference
keeps only the slots its factors name: a constant factor keeps none, and
a plain f(t, z) keeps every box's."""

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from jointkern import (
    NEG_INF, UNIT_VALUE, DetMap, Finite, Real, WeightFactor, constant_weight, evaluate,
    expected_value_by_enumeration, marginal_pmf_finite, model_from_dict, run_trace, weighted,
)
from jointkern.cli import main
from jointkern.weighted import _expected_values, _weight

from support import (
    audit_parts, dag_signature, enumerate_traces, generated_model, outcome, random_dag_diagram,
)
from test_acceptance import random_tables


def oracle_pmf(k, z) -> dict:
    acc: dict = {}
    for t, prob in enumerate_traces(k, z):
        x = k.mech(t, z)
        acc[x] = acc.get(x, Fraction(0)) + prob
    return {x: float(p) for x, p in acc.items()}


def oracle_expected_values(wk, z, hs) -> list:
    """E[w * h(output)] for each h, summed trace by trace."""
    accs = [Fraction(0)] * len(hs)
    for t, prob in enumerate_traces(wk.base, z):
        slots = run_trace(wk.base, z, t)
        lw = wk.log_weight(t, z, slots)
        if lw == NEG_INF:
            continue
        w = _weight(lw, " in the exact reference")
        x = slots[wk.base.out]
        accs = [acc + prob * Fraction(w * float(h(x))) for acc, h in zip(accs, hs)]
    return [float(acc) for acc in accs]


def test_marginals_match_the_oracle_on_random_dags():
    rng = random.Random(7)
    sig = dag_signature()
    for i in range(400):
        d = random_dag_diagram(rng, rng.randint(1, 10), sig, prefix=f"e{i}_")
        k = evaluate(d, random_tables(rng))
        got, want = marginal_pmf_finite(k, UNIT_VALUE), oracle_pmf(k, UNIT_VALUE)
        assert got == want and list(got) == list(want), i


def trace_factor(t, z):
    """A plain factor of the whole trace: 1 plus the ranks of the boxes at 1, over 8."""
    return 1.0 + sum(i for i, v in enumerate(t.values(), 1) if v == 1) / 8


# appended to each model's own factors: none, one of no slots, one of the trace
EXTRA_FACTORS = ((), (WeightFactor(lambda: 2.5, ()),), (trace_factor,))


def test_exact_references_match_the_oracle_on_generated_models():
    for seed in range(40):
        raw, z, n_out = generated_model(seed, finite=True)
        wk, hs, z = audit_parts(raw, z, n_out, 3)
        for extra in EXTRA_FACTORS:
            wx = weighted(wk.base, [*wk.weight_factors, *extra])
            got = outcome(lambda: _expected_values(wx, z, hs))
            assert got == outcome(lambda: oracle_expected_values(wx, z, hs)), (raw, extra)


def _bernoulli_chain(n: int) -> dict:
    """n bernoulli boxes in a line: a fair coin, then each box 1 with
    probability 0.7 after a 1 and 0.2 after a 0; the last box is the output."""
    return {
        "version": 1,
        "signature": {"wires": {"B": {"space": {"finite": 2}}},
                      "boxes": {"flip": {"dom": [], "cod": ["B"]},
                                "step": {"dom": ["B"], "cod": ["B"]}}},
        "diagram": {"wires": {f"w{i}": "B" for i in range(n)},
                    "boxes": {f"b{i}": "step" if i else "flip" for i in range(n)},
                    "dom": {f"b{i}": [f"w{i - 1}"] if i else [] for i in range(n)},
                    "cod": {f"b{i}": [f"w{i}"] for i in range(n)},
                    "inputs": [], "outputs": [f"w{n - 1}"]},
        "interpretation": {
            "flip": {"primitive": "bernoulli", "params": {"p": 0.5}},
            "step": {"primitive": "bernoulli", "params": {"p": "if $0 < 1 then 0.2 else 0.7"}}},
    }


def test_spw_takes_the_exact_reference_of_a_long_chain(capsys, tmp_path):
    # 2^40 traces, which enumeration refuses; elimination keeps two rows
    path = tmp_path / "chain40.json"
    path.write_text(json.dumps(_bernoulli_chain(40)))
    code = main(["spw", str(path), "--n", "1000", "--seed", "1"])
    assert code in (0, 1)
    (row,) = json.loads(capsys.readouterr().out)
    # P(w_i = 1) = 0.2 + 0.5 P(w_i-1 = 1), from the fair coin
    p = Fraction(1, 2)
    for _ in range(39):
        p = Fraction("0.2") + Fraction("0.5") * p
    assert row["reference"] == float(p)


def _finite_raw(layers: int, width: int) -> dict:
    spec = importlib.util.spec_from_file_location(
        "cli_corpus", Path(__file__).resolve().parent.parent / "tools" / "cli_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus._finite_raw(layers, width)


@pytest.mark.parametrize("n", [16, 40])
def test_a_constant_weight_keeps_two_rows_of_a_long_chain(n, monkeypatch):
    # the factor names no slot, so the table keeps the output alone
    k = model_from_dict(_finite_raw(n, 1)).kernel
    weighted_module = importlib.import_module("jointkern.weighted")
    calls, eliminate = [], weighted_module._eliminate
    monkeypatch.setattr(weighted_module, "_eliminate",
                        lambda *args: calls.append((args[2], eliminate(*args))) or calls[-1][1])
    h = DetMap(Finite(2), Real(1), float, "x")
    got = expected_value_by_enumeration(constant_weight(k, 2.0), UNIT_VALUE, h)
    # P(x_i = 1) = 0.2 + 0.5 P(x_i-1 = 1), from a fair coin
    p = Fraction(1, 2)
    for _ in range(n - 1):
        p = Fraction("0.2") + Fraction("0.5") * p
    assert got == float(2 * p)
    assert [len(t) for _, t in calls] == [2]
    # each row holds the kept slots alone: every dead slot has left it
    assert all({s for s, _ in row} == keep == {k.out} for keep, t in calls for row in t)
