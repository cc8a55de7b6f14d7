"""Every builtin family, driven from its table entry: one parameter rule for
constant and wired values, and each family end to end from a model file."""

import inspect
import json
import math

import pytest

from jointkern import BUILTIN_NAMES, ParameterError, UNIT_VALUE, instantiate
from jointkern import primitives
from jointkern.cli import main
from jointkern.primitives import FAMILIES

Z = UNIT_VALUE

# a point of each family's codomain, for log_density and abduct
OBSERVED = {"bernoulli": 1, "categorical": 0, "uniform01": 0.5, "uniform": 0.5,
            "normal": 0.0, "exponential": 0.5, "poisson": 1, "dirac_countable": 0}

WIRED = [(name, p) for name, fam in FAMILIES.items() for p in fam.params]


def _params(param: str, value) -> dict:
    """Valid parameters for the family, with value in place of param
    (for probs, in place of its first entry)."""
    if param == "probs":
        return {"probs": [value, 0.5, 0.5]}
    return {param: value}


def test_table_covers_the_builtins():
    assert BUILTIN_NAMES == tuple(FAMILIES)
    assert set(OBSERVED) == set(FAMILIES)


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n != "uniform01"])
def test_constructor_defaults_are_the_table_defaults(name):
    sig = inspect.signature(getattr(primitives, name)).parameters
    for pname, param in FAMILIES[name].params.items():
        default = sig[pname].default
        assert (None if default is inspect.Parameter.empty else default) == param.default


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name,param", WIRED)
def test_wired_nonfinite_parameter_is_rejected_like_a_constant(name, param, bad):
    with pytest.raises(ParameterError):
        instantiate(name, _params(param, bad))
    prim = instantiate(name, _params(param, lambda z: bad))
    m = OBSERVED[name]
    with pytest.raises(ParameterError):
        prim.log_density(Z, m)
    with pytest.raises(ParameterError):
        prim.pushforward([0.3], Z)
    with pytest.raises(ParameterError):
        prim.abduct(Z, m)


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def family_model(name: str, params: dict, cod_space) -> dict:
    """Box f of the family reads wires x (uniform on [0, 1]) and k (a fair
    bit), so a parameter expression can use $0 or, for integers, $1."""
    return {
        "version": 1,
        "signature": {
            "wires": {"R": {"space": {"real": 1}}, "B": {"space": {"finite": 2}},
                      "Y": {"space": cod_space}},
            "boxes": {"src": {"dom": [], "cod": ["R"]}, "bit": {"dom": [], "cod": ["B"]},
                      "f": {"dom": ["R", "B"], "cod": ["Y"]}},
        },
        "diagram": {
            "wires": {"x": "R", "k": "B", "y": "Y"},
            "boxes": {"b0": "src", "b1": "bit", "b2": "f"},
            "dom": {"b0": [], "b1": [], "b2": ["x", "k"]},
            "cod": {"b0": ["x"], "b1": ["k"], "b2": ["y"]},
            "inputs": [], "outputs": ["y"],
        },
        "interpretation": {
            "src": {"primitive": "uniform01"},
            "bit": {"primitive": "bernoulli", "params": {"p": 0.5}},
            "f": {"primitive": name, "params": params},
        },
    }


# per family: its codomain, constant parameters, and the same parameters as
# expressions over the upstream wires
CASES = {
    "bernoulli": ({"finite": 2}, {"p": 0.3}, {"p": "0.2 + 0.5 * $0"}),
    "categorical": ({"finite": 3}, {"probs": [0.2, 0.3, 0.5]},
                    {"probs": ["0.1 + 0.2 * $0", "0.4", "0.5 - 0.2 * $0"]}),
    "uniform01": ({"real": 1}, {}, {}),
    "uniform": ({"real": 1}, {"a": -1.0, "b": 2.0}, {"a": "$0 - 1.0", "b": "$0 + 1.0"}),
    "normal": ({"real": 1}, {"mu": 0.5, "sigma": 1.5}, {"mu": "$0", "sigma": "0.5 + $0"}),
    "exponential": ({"real": 1}, {"rate": 2.0}, {"rate": "1.0 + $0"}),
    "poisson": ("countable", {"rate": 3.0}, {"rate": "1.0 + 2.0 * $0"}),
    "dirac_countable": ("countable", {"value": 3}, {"value": "$1 + 2"}),
}


@pytest.mark.parametrize("wired", [False, True], ids=["constant", "wired"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_family_from_a_model_file(capsys, tmp_path, name, wired):
    cod_space, const, exprs = CASES[name]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(family_model(name, exprs if wired else const, cod_space)))
    code, out, _ = run(capsys, "sample", path, "--n", 30, "--seed", 11)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    traces = tmp_path / "t.jsonl"
    traces.write_text(out)

    code, out, _ = run(capsys, "logpdf", path, "--trace", traces)
    assert code == 0
    assert [float(x) for x in out.split()] == [r["logpdf"] for r in records]
    assert all(math.isfinite(r["logpdf"]) for r in records)

    code, out, _ = run(capsys, "abduct", path, "--trace", traces)
    assert code == 0
    us = tmp_path / "u.jsonl"
    us.write_text(out)
    code, out, _ = run(capsys, "cf", path, "--u", us)
    assert code == 0
    replayed = [json.loads(line) for line in out.splitlines()]
    assert len(replayed) == len(records)
    for rep, rec in zip(replayed, records):
        assert rep["trace"].keys() == rec["trace"].keys()
        for b, v in rec["trace"].items():
            # discrete values come back exactly; continuous ones through the
            # float inverse CDF, as in the primitive round-trip battery
            if isinstance(v, int):
                assert rep["trace"][b] == v
            else:
                assert rep["trace"][b] == pytest.approx(v, rel=1e-9, abs=1e-12)


# an expression that evaluates to inf without an evaluation error
INF = "$0 * 0.0 + 1e308 * 10.0"


@pytest.mark.parametrize("name,params,cod_space,observed", [
    ("normal", {"mu": INF, "sigma": 1.0}, {"real": 1}, 0.3),
    ("exponential", {"rate": INF}, {"real": 1}, 0.3),
    ("categorical", {"probs": [INF + " - 1e308 * 10.0", 0.5, 0.5]}, {"finite": 3}, 1),
])
@pytest.mark.parametrize("command", ["logpdf", "abduct", "sample"])
def test_nonfinite_wired_parameter_exits_4(capsys, tmp_path, name, params, cod_space,
                                           observed, command):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(family_model(name, params, cod_space)))
    traces = tmp_path / "t.jsonl"
    traces.write_text(json.dumps({"trace": {"b0": 0.1, "b1": 1, "b2": observed}}) + "\n")
    rest = ["--n", 1, "--seed", 1] if command == "sample" else ["--trace", traces]
    code, out, err = run(capsys, command, path, *rest)
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "must be finite" in err
