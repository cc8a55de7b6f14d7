"""The exact path against its oracle: forward elimination over the slot
program (kernels._eliminate) must give what walking every trace gives
(support.enumerate_traces), bit for bit and in the same key order, and
must stay cheap where enumeration is exponential."""

import json
import random
from fractions import Fraction

from jointkern import NEG_INF, UNIT_VALUE, evaluate, marginal_pmf_finite, run_trace
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


def test_exact_references_match_the_oracle_on_generated_models():
    for seed in range(40):
        raw, z, n_out = generated_model(seed, finite=True)
        wk, hs, z = audit_parts(raw, z, n_out, 3)
        got = outcome(lambda: _expected_values(wk, z, hs))
        assert got == outcome(lambda: oracle_expected_values(wk, z, hs)), raw


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
