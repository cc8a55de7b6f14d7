"""Acceptance battery: one test per shipped guarantee, at the stated
tolerances and scales. Each test prints a single summary line on success, so
a verbose run reads as a pass/fail checklist."""

import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from jointkern import (
    Coproduct,
    CoproductSet,
    DetMap,
    Finite,
    FinitePoints,
    Countable,
    Inl,
    Inr,
    IntervalBox,
    Product,
    ProductSet,
    Real,
    UNIT_VALUE,
    abduct_trace,
    base_measure_mass,
    bernoulli,
    categorical,
    compose,
    compose_diagrams,
    counterfactual,
    cover_index_bound,
    descriptor_contains,
    diagram_structure,
    dirac_countable,
    evaluate,
    exponential,
    finite_points,
    from_primitive,
    gc_fixpoint,
    identity_kernel,
    intervene,
    joint_log_density,
    marginal_pmf_finite,
    model_log_density,
    nest_values,
    normal,
    poisson,
    sample_model,
    sigma_finite_cover,
    spw_check,
    structure_kernel,
    tensor,
    uniform,
    uniform01,
    validate_markov,
    weighted,
)
from jointkern import Diagram, Hypergraph, HypMorphism, Interpretation
from jointkern.cli import main

from support import (
    chain_parts,
    ck_composite,
    dag_signature,
    enumerate_traces,
    fourbox_parts,
    kernel_matrix,
    random_dag_diagram,
    random_dag_with_inputs,
    random_finite_kernel,
    random_probs,
)

MODELS = Path(__file__).parent / "models"
CHAIN_FILE = str(MODELS / "chain.json")


def rows_close(a: dict, b: dict, tol: float) -> float:
    """Max deviation between two pmf dicts (missing keys read as 0)."""
    dev = 0.0
    for key in set(a) | set(b):
        dev = max(dev, abs(a.get(key, 0.0) - b.get(key, 0.0)))
    assert dev <= tol, (a, b)
    return dev


# ---------------------------------------------------------------------------
# 1. category laws on random finite kernels


def test_criterion_01_markov_laws():
    t0 = time.monotonic()
    rng = random.Random(101)
    dev = 0.0
    for trial in range(200):
        s1, s2, s3, s4 = (rng.randint(1, 3) for _ in range(4))
        k1 = random_finite_kernel(rng, s1, s2, f"a{trial}")
        k2 = random_finite_kernel(rng, s2, s3, f"b{trial}")
        k3 = random_finite_kernel(rng, s3, s4, f"c{trial}")
        A, B, C, D = Finite(s1), Finite(s2), Finite(s3), Finite(s4)

        base = kernel_matrix(k1, s1)

        # identity on both sides
        left_id = kernel_matrix(compose(identity_kernel(A), k1), s1)
        right_id = kernel_matrix(compose(k1, identity_kernel(B)), s1)
        for z in range(s1):
            dev = max(dev, rows_close(left_id[z], base[z], 1e-12))
            dev = max(dev, rows_close(right_id[z], base[z], 1e-12))

        # associativity
        lhs = kernel_matrix(compose(compose(k1, k2), k3), s1)
        rhs = kernel_matrix(compose(k1, compose(k2, k3)), s1)
        for z in range(s1):
            dev = max(dev, rows_close(lhs[z], rhs[z], 1e-12))

        # comonoid: copying then dropping one leg is a no-op
        copy_then_drop = compose(
            compose(k1, structure_kernel("copy", B)),
            tensor(identity_kernel(B), structure_kernel("delete", B)))
        got = kernel_matrix(copy_then_drop, s1)
        for z in range(s1):
            row = {y: p for (y, _u), p in got[z].items()}
            dev = max(dev, rows_close(row, base[z], 1e-12))

        # copy commutes with swapping its legs
        dup = compose(k1, structure_kernel("copy", B))
        dup_swapped = compose(dup, structure_kernel("swap", B, B))
        for z in range(s1):
            dev = max(dev, rows_close(
                marginal_pmf_finite(dup, z if s1 > 1 else 0),
                marginal_pmf_finite(dup_swapped, z if s1 > 1 else 0), 1e-12))

        # swap coherence on tensors
        pair = compose(tensor(k1, k2), structure_kernel("swap", B, C))
        flip = compose(structure_kernel("swap", A, B),
                       tensor(k2, k1))
        for z1 in range(s1):
            for z2 in range(s2):
                dev = max(dev, rows_close(
                    marginal_pmf_finite(pair, (z1, z2)),
                    marginal_pmf_finite(flip, (z1, z2)), 1e-12))

        # deleting the output is the unique map to the unit
        dropped = compose(k1, structure_kernel("delete", B))
        for z in range(s1):
            got = marginal_pmf_finite(dropped, z if s1 > 1 else 0)
            dev = max(dev, rows_close(got, {UNIT_VALUE: 1.0}, 1e-12))

    dt = time.monotonic() - t0
    assert dt < 10.0, f"law suite took {dt:.1f}s"
    print(f"criterion 1 (markov-category laws): PASS - 200 random kernels, "
          f"max deviation {dev:.2e}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 2. composition against the Chapman-Kolmogorov enumeration oracle


def test_criterion_02_composition_oracle():
    rng = random.Random(202)
    dev = 0.0
    for trial in range(100):
        s1, s2, s3 = (rng.randint(1, 6) for _ in range(3))
        a = random_finite_kernel(rng, s1, s2, f"x{trial}")
        b = random_finite_kernel(rng, s2, s3, f"y{trial}")
        want = ck_composite(kernel_matrix(a, s1), kernel_matrix(b, s2))
        comp = compose(a, b)
        for z in range(s1):
            got = marginal_pmf_finite(comp, z if s1 > 1 else 0)
            for y in range(s3):
                dev = max(dev, abs(got.get(y, 0.0) - float(want[z].get(y, 0))))
    assert dev <= 1e-12

    d, interp = chain_parts()
    pmf = marginal_pmf_finite(evaluate(d, interp), UNIT_VALUE)
    assert pmf == {0: 0.55, 1: 0.45}
    assert pmf[1] == 0.45
    print(f"criterion 2 (composition oracle): PASS - 100 two-stage models, "
          f"max deviation {dev:.2e}; chain P(x=1) = {pmf[1]}")


# ---------------------------------------------------------------------------
# 3. base-measure identities and sigma-finite covers


def rand_leaf(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        size = rng.randint(1, 8)
        pts = sorted(set(rng.randrange(size) for _ in range(rng.randint(1, size))))
        return Finite(size), FinitePoints(pts)
    if kind == 1:
        pts = sorted(set(rng.randint(-30, 30) for _ in range(rng.randint(1, 6))))
        return Countable(), FinitePoints(pts)
    dim = rng.randint(1, 3)
    ivs = []
    for _ in range(dim):
        lo, hi = sorted(rng.uniform(-4, 4) for _ in range(2))
        ivs.append((lo, hi + 1e-9))
    return Real(dim), IntervalBox(ivs)


def rand_desc(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.5:
        return rand_leaf(rng)
    sa, da = rand_desc(rng, depth - 1)
    sb, db = rand_desc(rng, depth - 1)
    if rng.random() < 0.5:
        return Product(sa, sb), ProductSet(da, db)
    left = da if rng.random() < 0.8 else None
    right = db if rng.random() < 0.8 else None
    if left is None and right is None:
        left = da
    return Coproduct(sa, sb), CoproductSet(left, right)


def test_criterion_03_base_measure():
    rng = random.Random(303)
    dev = 0.0
    for _ in range(500):
        sa, da = rand_desc(rng, 2)
        sb, db = rand_desc(rng, 2)
        ma = base_measure_mass(sa, da)
        mb = base_measure_mass(sb, db)

        prod = base_measure_mass(Product(sa, sb), ProductSet(da, db))
        dev = max(dev, abs(prod - ma * mb))

        cop = base_measure_mass(Coproduct(sa, sb), CoproductSet(da, db))
        dev = max(dev, abs(cop - (ma + mb)))
        half = base_measure_mass(Coproduct(sa, sb), CoproductSet(da, None))
        dev = max(dev, abs(half - ma))
    assert dev <= 1e-12

    spaces = [
        Finite(4), Countable(), Real(1), Real(2),
        Product(Finite(3), Real(1)),
        Coproduct(Countable(), Real(1)),
        Product(Real(1), Product(Finite(2), Countable())),
    ]

    def sample_point(sp):
        if isinstance(sp, Finite):
            return rng.randrange(sp.size)
        if isinstance(sp, Countable):
            return rng.randint(-50, 50)
        if isinstance(sp, Real):
            if sp.dim == 1:
                return rng.uniform(-25, 25)
            return tuple(rng.uniform(-25, 25) for _ in range(sp.dim))
        if isinstance(sp, Product):
            return (sample_point(sp.left), sample_point(sp.right))
        return Inl(sample_point(sp.left)) if rng.random() < 0.5 else (
            Inr(sample_point(sp.right)))

    covered = 0
    for _ in range(1000):
        sp = rng.choice(spaces)
        v = sample_point(sp)
        idx = cover_index_bound(sp, v)
        piece = sigma_finite_cover(sp, idx)
        assert descriptor_contains(sp, piece, v)
        assert math.isfinite(base_measure_mass(sp, piece))
        covered += 1
    print(f"criterion 3 (base measure): PASS - 500 descriptor pairs, "
          f"max deviation {dev:.2e}; {covered}/1000 points covered by "
          f"finite-mass pieces")


# ---------------------------------------------------------------------------
# 4. primitive distributions: normalization, sampler fidelity, round-trips


def test_criterion_04_primitives():
    t0 = time.monotonic()
    Z = UNIT_VALUE
    n_draws = 100_000
    n_round = 10_000

    prims = {
        "bernoulli": bernoulli(0.37),
        "categorical": categorical([0.2, 0.3, 0.5]),
        "uniform01": uniform01(),
        "uniform": uniform(-1.5, 2.0),
        "normal": normal(0.7, 1.3),
        "exponential": exponential(1.7),
        "poisson": poisson(3.0),
        "dirac_countable": dirac_countable(5),
    }
    discrete_support = {
        "bernoulli": range(2),
        "categorical": range(3),
        "poisson": range(80),
        "dirac_countable": [5],
    }
    cdfs = {
        "uniform01": stats.uniform(0.0, 1.0).cdf,
        "uniform": stats.uniform(-1.5, 3.5).cdf,
        "normal": stats.norm(0.7, 1.3).cdf,
        "exponential": stats.expon(scale=1 / 1.7).cdf,
    }
    integration_range = {
        "uniform01": (0.0, 1.0),
        "uniform": (-1.5, 2.0),
        "normal": (0.7 - 12 * 1.3, 0.7 + 12 * 1.3),
        "exponential": (0.0, 50 / 1.7),
    }

    # normalization
    worst_norm = 0.0
    for name, p in prims.items():
        if name in discrete_support:
            total = sum(math.exp(p.log_density(Z, m)) for m in discrete_support[name])
        else:
            a, b = integration_range[name]
            total, _ = quad(lambda x: math.exp(p.log_density(Z, x)), a, b, limit=200)
        worst_norm = max(worst_norm, abs(total - 1.0))
    assert worst_norm <= 1e-6

    # sampler against density
    worst_fit = 0.0
    for name, p in prims.items():
        u = np.random.default_rng(404).random(n_draws)
        u[u <= 0.0] = 0.5
        draws = [p.pushforward([float(ui)], Z) for ui in u]
        if name in discrete_support:
            counts = Counter(draws)
            support = sorted(set(discrete_support[name]) | set(counts))
            mass = 0.0
            tv = 0.0
            for m in support:
                q = math.exp(p.log_density(Z, m))
                mass += q
                tv += abs(counts.get(m, 0) / n_draws - q)
            tv = 0.5 * (tv + (1.0 - mass))
            assert tv <= 0.02, (name, tv)
            worst_fit = max(worst_fit, tv)
        else:
            ks = stats.kstest(np.asarray(draws), cdfs[name]).statistic
            assert ks <= 0.02, (name, ks)
            worst_fit = max(worst_fit, ks)

    # abduct / pushforward round-trips on sampler-generated points
    rng = random.Random(405)
    for name, p in prims.items():
        if p.abduct_law is None:
            continue
        for _ in range(n_round):
            u0 = rng.uniform(0.0, 0.999999)
            m = p.pushforward([u0], Z)
            back = p.pushforward(list(p.abduct(Z, m)), Z)
            if name in discrete_support:
                assert back == m, (name, m, back)
            else:
                assert abs(back - m) <= 1e-9 * max(1.0, abs(m)), (name, m, back)

    dt = time.monotonic() - t0
    assert dt < 60.0, f"primitive battery took {dt:.1f}s"
    print(f"criterion 4 (primitives): PASS - normalization off by "
          f"{worst_norm:.2e}, worst TV/KS {worst_fit:.4f}, "
          f"{n_round} round-trips per builtin, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 5. densities factorize over boxes


def random_tables(rng: random.Random):
    f1_rows = {z: random_probs(rng, 2) for z in range(2)}
    f2_rows = {(a, b): random_probs(rng, 2) for a in range(2) for b in range(2)}
    interp = Interpretation(
        wire_spaces={"B": Finite(2)},
        box_kernels={
            "src": from_primitive(categorical(random_probs(rng, 2), size=2), "src"),
            "f1": from_primitive(categorical(
                [(lambda z, _j=j: f1_rows[z][_j]) for j in range(2)],
                dom=Finite(2), size=2), "f1"),
            "f2": from_primitive(categorical(
                [(lambda z, _j=j: f2_rows[z][_j]) for j in range(2)],
                dom=Product(Finite(2), Finite(2)), size=2), "f2"),
        },
        residual_labels={"src": ("B",), "f1": ("B",), "f2": ("B",)},
    )
    return interp


def test_criterion_05_factorized_density():
    rng = random.Random(505)
    sig = dag_signature()
    for trial in range(100):
        d = random_dag_diagram(rng, rng.randint(1, 6), sig, prefix=f"m{trial}_")
        interp = random_tables(rng)
        k = evaluate(d, interp)
        t, _ = sample_model(d, interp, UNIT_VALUE, seed=trial)

        # independent per-box sum straight off the graph
        g = d.graph
        vals = {}
        for b in k.box_ids:
            vals[g.cod[b][0]] = t[b]
        total = 0.0
        for b in k.box_ids:
            prim = interp.box_kernels[d.box_label[b]].boxes[0].primitive
            parent = nest_values([vals[w] for w in g.dom[b]])
            total += prim.log_density(parent, t[b])

        assert joint_log_density(k, UNIT_VALUE, t) == total

    d, interp = chain_parts()
    got = model_log_density(d, interp, UNIT_VALUE, {"b1": 1, "b2": 1})
    assert abs(got - math.log(0.35)) <= 1e-12
    print(f"criterion 5 (factorized density): PASS - 100 random models match "
          f"the per-box sum exactly; chain trace logpdf {got:.12f}")


# ---------------------------------------------------------------------------
# 6. interventions


def test_criterion_06_interventions():
    d, interp = chain_parts()
    surgered = intervene(d, interp, {"flip": 1})
    pmf = marginal_pmf_finite(evaluate(d, surgered), UNIT_VALUE)
    assert pmf == {0: 0.3, 1: 0.7}

    n = 100_000
    from jointkern import derive_seed
    hits = sum(sample_model(d, surgered, UNIT_VALUE, derive_seed(606, i))[1]
               for i in range(n))
    emp = hits / n
    assert abs(emp - 0.7) <= 0.005

    d4, i4 = fourbox_parts()

    def c_marginal(k) -> dict:
        out: dict = {}
        for t, prob in enumerate_traces(k, UNIT_VALUE):
            c, _s = k.mech(t, UNIT_VALUE)
            out[c] = out.get(c, Fraction(0)) + prob
        return out

    base = c_marginal(evaluate(d4, i4))
    for forced in (0, 1):
        got = c_marginal(evaluate(d4, intervene(d4, i4, {"root2": forced})))
        assert got == base
    print(f"criterion 6 (interventions): PASS - exact do-marginal "
          f"{{0: 0.3, 1: 0.7}}, empirical {emp:.4f} at 1e5 draws, "
          f"non-descendant marginal unchanged exactly")


# ---------------------------------------------------------------------------
# 7. counterfactuals


def normal_chain():
    sig = Hypergraph(("R",), ("nsrc", "nstep"),
                     {"nsrc": (), "nstep": ("R",)},
                     {"nsrc": ("R",), "nstep": ("R",)})
    graph = Hypergraph(("x", "y"), ("g1", "g2"),
                       {"g1": (), "g2": ("x",)},
                       {"g1": ("x",), "g2": ("y",)})
    d = Diagram(graph=graph, signature=sig,
                labeling=HypMorphism({"x": "R", "y": "R"},
                                     {"g1": "nsrc", "g2": "nstep"}),
                inputs=(), outputs=("y",))
    interp = Interpretation(
        {"R": Real(1)},
        {"nsrc": from_primitive(normal(0.0, 1.0), "nsrc"),
         "nstep": from_primitive(normal(lambda z: z, 1.0, dom=Real(1)), "nstep")},
        {"nsrc": ("R",), "nstep": ("R",)})
    return d, interp


def test_criterion_07_counterfactuals():
    # discrete: exact round-trips
    d4, i4 = fourbox_parts()
    for i in range(1000):
        t, x = sample_model(d4, i4, UNIT_VALUE, seed=70_000 + i)
        u = abduct_trace(d4, i4, UNIT_VALUE, t)
        assert counterfactual(d4, i4, {}, u, UNIT_VALUE) == (t, x)

    # continuous: round-trips within 1e-9
    dn, interp_n = normal_chain()
    worst = 0.0
    for i in range(1000):
        t, x = sample_model(dn, interp_n, UNIT_VALUE, seed=71_000 + i)
        u = abduct_trace(dn, interp_n, UNIT_VALUE, t)
        t2, x2 = counterfactual(dn, interp_n, {}, u, UNIT_VALUE)
        for b in t:
            err = abs(t2[b] - t[b]) / max(1.0, abs(t[b]))
            worst = max(worst, err)
        worst = max(worst, abs(x2 - x) / max(1.0, abs(x)))
    assert worst <= 1e-9

    # the fixed-noise scenario: forcing the first coin flips the output
    d, interp = chain_parts()
    u = {"b1": [0.6], "b2": [0.6]}
    assert counterfactual(d, interp, {}, u, UNIT_VALUE)[1] == 0
    assert counterfactual(d, interp, {"flip": 1}, u, UNIT_VALUE)[1] == 1

    # empty-do counterfactual sampling follows the model distribution
    base = marginal_pmf_finite(evaluate(d, interp), UNIT_VALUE)
    gen = np.random.default_rng(707)
    n = 100_000
    blocks = gen.random((n, 2))
    counts = {0: 0, 1: 0}
    for i in range(n):
        u = {"b1": [float(blocks[i, 0])], "b2": [float(blocks[i, 1])]}
        counts[counterfactual(d, interp, {}, u, UNIT_VALUE)[1]] += 1
    tv = 0.5 * sum(abs(counts[v] / n - base[v]) for v in base)
    assert tv <= 0.02
    print(f"criterion 7 (counterfactuals): PASS - 1000 exact and 1000 "
          f"continuous round-trips (worst {worst:.2e}), flip scenario holds, "
          f"empty-do TV {tv:.4f} at 1e5 draws")


# ---------------------------------------------------------------------------
# 8. strict proper weighting


def test_criterion_08_spw():
    base = from_primitive(uniform01(), "u")
    wk = weighted(base, [lambda t, z: 2.0 * t["u"]])
    h = DetMap(Real(1), Real(1), float, "id")
    (rep,) = spw_check(wk, [h], [2.0 / 3.0], n=100_000, seed=808)
    assert rep["pass"], rep
    assert abs(rep["estimate"] - 2.0 / 3.0) <= 3.0 * rep["stderr"]

    # weight-1 kernels against exact enumeration, one indicator per point
    checked = 0
    for d, interp in (chain_parts(), fourbox_parts()):
        k = evaluate(d, interp)
        wk1 = weighted(k)
        space = k.cod
        tests = [
            DetMap(space, Real(1), (lambda x, _p=p: 1.0 if x == _p else 0.0),
                   f"ind{i}")
            for i, p in enumerate(finite_points(space))
        ]
        reports = spw_check(wk1, tests, None, n=20_000, seed=809)
        assert all(row["pass"] for row in reports), reports
        checked += len(reports)
    print(f"criterion 8 (proper weighting): PASS - 2x-weighted uniform "
          f"estimate {rep['estimate']:.4f} ~ 2/3 (3 SE), {checked} indicator "
          f"functions pass against enumeration")


# ---------------------------------------------------------------------------
# 9. garbage collection of discarded boxes


def test_criterion_09_gc():
    sig = dag_signature()
    rng = random.Random(909)
    for trial in range(1000):
        d1 = random_dag_diagram(rng, rng.randint(1, 4), sig, prefix=f"p{trial}_")
        d2 = random_dag_with_inputs(rng, len(d1.outputs), rng.randint(0, 3),
                                    sig, f"q{trial}_")
        comp = compose_diagrams(d1, d2)
        assert validate_markov(comp) == []
        assert diagram_structure(gc_fixpoint(comp)) == diagram_structure(comp)

    # discarding the end of a two-box chain cascades through both boxes
    chain = Diagram(
        graph=Hypergraph(("x", "y"), ("s0", "g0"),
                         {"s0": (), "g0": ("x",)},
                         {"s0": ("x",), "g0": ("y",)}),
        signature=sig,
        labeling=HypMorphism({"x": "B", "y": "B"}, {"s0": "src", "g0": "f1"}),
        inputs=(), outputs=("y",))
    discard = Diagram(
        graph=Hypergraph(("i",), (), {}, {}),
        signature=sig,
        labeling=HypMorphism({"i": "B"}, {}),
        inputs=("i",), outputs=())
    comp = compose_diagrams(chain, discard)
    assert comp.graph.boxes == () and comp.graph.wires == ()
    print("criterion 9 (gc fixpoint): PASS - 1000 random composites have no "
          "dangling outputs and are gc-idempotent; two-stage cascade deletes "
          "both boxes")


# ---------------------------------------------------------------------------
# 10. command-line interface


def test_criterion_10_cli(capsys, tmp_path):
    # byte-identical reruns, stdout and files
    code = main(["sample", CHAIN_FILE, "--n", "5", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = main(["sample", CHAIN_FILE, "--n", "5", "--seed", "7"])
    out2 = capsys.readouterr().out
    assert code == code2 == 0 and out1 == out2

    f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["sample", CHAIN_FILE, "--n", "5", "--seed", "7", "--out", str(f1)])
    main(["sample", CHAIN_FILE, "--n", "5", "--seed", "7", "--out", str(f2)])
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes() == out1.encode()

    # sample -> logpdf round-trip: finite and self-consistent
    code = main(["logpdf", CHAIN_FILE, "--trace", str(f1)])
    out = capsys.readouterr().out
    assert code == 0
    logs = [float(line) for line in out.strip().split("\n")]
    recs = [json.loads(line) for line in f1.read_text().strip().split("\n")]
    assert all(math.isfinite(v) for v in logs)
    assert logs == [rec["logpdf"] for rec in recs]

    # every documented exit code, each driven by a fixture or flag
    seen = {
        0: main(["validate", CHAIN_FILE]),
        1: main(["spw", CHAIN_FILE, "--n", "2000", "--seed", "0",
                 "--h", "$0", "--ref", "0.8"]),
        2: main(["validate", str(MODELS / "no_such_file.json")]),
        3: main(["validate", str(MODELS / "syntax_error.json")]),
        4: main(["validate", str(MODELS / "type_error.json")]),
        5: main(["validate", str(MODELS / "cyclic_bad.json")]),
    }
    capsys.readouterr()
    for want, got in seen.items():
        assert got == want, f"exit code {want} case returned {got}"
    print("criterion 10 (cli): PASS - byte-identical reruns, logpdf "
          "round-trip self-consistent, exit codes 0-5 all exercised")
