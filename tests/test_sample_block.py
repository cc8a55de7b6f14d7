"""sample's column pass against its row pass, and its block writer.

kernels.sample_block draws and scores a block of seeds as columns, and
falls back to kernels.sample_records when a law raises or a check fails.
Here its traces, outputs and logpdfs must be sample_records' bit for bit
(-inf included) on every model fixture and on generated models, at block
sizes on either side of the CLI's crossover; the fixtures must never fall
back; and a block that fails somewhere must raise the row pass's error,
class and message. cli._block_encoder must write each record as
_record_encoder writes it, for every float pattern and for box ids that
JSON or % formatting treat specially. sample --n 3000 whose first failure
is in its second block writes exactly the first block, and abduct refuses
an --out that is its --trace file.
"""

import importlib
import json
import math
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import jointkern.cli as cli
from jointkern import (
    NEG_INF, UNIT, Countable, DetMap, Finite, PrimitiveKernel, Product, Real, ShapeError,
    compose, evaluate, from_primitive, lift_det, model_from_dict, normal, parse_model, rng,
    sample_block, sample_records, uniform,
)
from jointkern.cli import _block_encoder, _decode_input, _record_encoder, main

from support import count_calls, generated_model, genmodels, outcome
from test_wide_models import wide_det_raw, wide_output_raw

kernels = importlib.import_module("jointkern.kernels")

MODELS = Path(__file__).parent / "models"
INPUTS = {"inputs": "1", "real2_input": "[0.5, 1]"}
R = cli._COLUMN_MIN_RECORDS
SIZES = (0, 1, R - 1, R, 1024)


def _fixture_kernels():
    out = {}
    for path in sorted(MODELS.glob("*.json")):
        try:
            m = parse_model(str(path))
            k = evaluate(m.diagram, m.interpretation)
        except Exception:  # noqa: BLE001 - the fixtures that fail to load on purpose
            continue
        out[path.stem] = k, _decode_input(m, INPUTS.get(path.stem))
    # a chain, a box reading 40 wires and 40 wires on the output leg
    for name, raw in (("chain160_1", genmodels().chain_model(160, 1)[0]),
                      ("wide_det", wide_det_raw(40)), ("wide_output", wide_output_raw(40))):
        m = model_from_dict(raw)
        out[name] = evaluate(m.diagram, m.interpretation), _decode_input(m, None)
    return out


FIXTURES = _fixture_kernels()


def by_rows(k, z, seeds):
    """sample_records' records over seeds, as sample_block's columns."""
    records = list(sample_records(k, z, seeds))
    return ({b: [t[b] for t, _, _ in records] for b in k.box_ids},
            [x for _, x, _ in records], [ld for _, _, ld in records])


def bits(block):
    # repr tells every float apart but NaN from NaN: -0.0, -inf, the last bit
    return repr(block)


def test_the_fixtures_are_loaded():
    assert {"chain", "normal", "uniform2x", "inputs", "weighted", "chain160_1"} <= set(FIXTURES)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures_match_the_rows_bit_for_bit(name, monkeypatch):
    k, z = FIXTURES[name]
    for n in SIZES:
        seeds = rng.derived_seed_keys(7, 0, n)
        want = bits(by_rows(k, z, seeds))
        with pytest.MonkeyPatch.context() as mp:
            rows = count_calls(mp, kernels, "sample_records")
            got = sample_block(k, z, seeds)
        assert rows[0] == 0, (name, n)
        assert bits(got) == want, (name, n)
        assert list(got[0]) == list(k.box_ids)
    # an int seed is its own seed key
    assert bits(sample_block(k, z, [3, -1])) == bits(by_rows(k, z, [3, -1]))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_generated_models_match_the_rows_bit_for_bit(seed):
    raw, z, _ = generated_model(seed)
    m = model_from_dict(raw)
    k = evaluate(m.diagram, m.interpretation)
    z = z if z is not None else _decode_input(m, None)
    for n in SIZES:
        seeds = rng.derived_seed_keys(seed, 0, n)
        got = outcome(lambda: sample_block(k, z, seeds))
        assert bits(got) == bits(outcome(lambda: by_rows(k, z, seeds))), (raw, n)


def _late_ln_raw(a: float) -> dict:
    """u ~ uniform(a, 1) and y = ln(u): refused where u <= 0, for a < 0."""
    return {
        "version": 1,
        "signature": {"wires": {"R": {"space": {"real": 1}}},
                      "boxes": {"draw": {"dom": [], "cod": ["R"]},
                                "log": {"dom": ["R"], "cod": ["R"]}}},
        "diagram": {"wires": {"x": "R", "y": "R"}, "boxes": {"u": "draw", "l": "log"},
                    "dom": {"u": [], "l": ["x"]}, "cod": {"u": ["x"], "l": ["y"]},
                    "inputs": [], "outputs": ["y"]},
        "interpretation": {"draw": {"primitive": "uniform", "params": {"a": a, "b": 1.0}},
                           "log": {"det": "ln($0)"}},
    }


def _model_kernel(raw):
    m = model_from_dict(raw)
    return evaluate(m.diagram, m.interpretation)


# a primitive whose density is -inf below 0.5, and one whose density is
# +inf where the value it reads is below 0.5: such records score -inf, not
# -inf + inf
HALF = PrimitiveKernel("half", UNIT, Real(1), lambda pt, m: NEG_INF if m < 0.5 else 0.25,
                       lambda u, pt: u[0])
SPIKE = PrimitiveKernel("spike", Real(1), Real(1),
                        lambda pt, m: math.inf if pt < 0.5 else 0.5, lambda u, pt: u[0])

FAILING = {
    # ln of a draw <= 0 on a few records of 1024
    "ln": (_model_kernel(_late_ln_raw(-0.01)), 0),
    # a normal whose draws past about the 54th percentile overflow to inf
    "overflowing_normal": (from_primitive(normal(1.7e308, 1e308), "g"), 0),
    # the same, with the draws hidden: the output is a point on every record
    "hidden_overflow": (compose(from_primitive(normal(1.7e308, 1e308), "g"), lift_det(DetMap(
        Real(1), Finite(2), lambda v: 0 if v < 0.0 else 1))), 0),
    # -inf on some records, then +inf on the same records
    "vanishing": (compose(from_primitive(HALF, "h"), from_primitive(SPIKE, "s")), 0),
    # an output that is no point of the codomain on some records
    "bad_output": (compose(from_primitive(uniform(0.0, 1.0), "u"), lift_det(DetMap(
        Real(1), Finite(2), lambda v: 5 if v > 0.7 else 0))), 0),
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failures_raise_what_the_rows_raise(name):
    k, z = FAILING[name]
    for n in SIZES:
        seeds = rng.derived_seed_keys(3, 0, n)
        want = outcome(lambda: by_rows(k, z, seeds))
        got = outcome(lambda: sample_block(k, z, seeds))
        assert bits(got) == bits(want), (name, n)
    # at 1024 records each fails somewhere, but -inf is no failure
    assert isinstance(want, tuple) and (type(want[0]) is type) == (name != "vanishing")
    if name == "vanishing":
        assert NEG_INF in want[2] and NEG_INF not in want[0]["h"]


def test_a_bad_input_fails_before_any_draw(monkeypatch):
    k, _ = FIXTURES["inputs"]
    draws = count_calls(monkeypatch, rng, "unit_uniforms")
    for n in (0, 1024):
        assert outcome(lambda: sample_block(k, 5, range(n))) == outcome(
            lambda: by_rows(k, 5, range(n)))
    assert draws[0] == 0


def test_sample_writes_the_blocks_before_the_first_failure(tmp_path, capsys):
    model = tmp_path / "late_ln.json"
    model.write_text(json.dumps(_late_ln_raw(-0.001)))
    # at seed 2 the first refused record is 1763, in the second block
    assert main(["sample", str(model), "--n", "3000", "--seed", "2"]) == 4
    out, err = capsys.readouterr()
    assert err.startswith("error: ln of non-positive value -0.000169")
    assert main(["sample", str(model), "--n", "1024", "--seed", "2"]) == 0
    assert out == capsys.readouterr().out and out.count("\n") == 1024
    out_file = tmp_path / "records.jsonl"
    assert main(["sample", str(model), "--n", "3000", "--seed", "2",
                 "--out", str(out_file)]) == 4
    assert out_file.read_text() == out


# ---------------------------------------------------------------------------
# the block writer

SPACES = {"a%b": Real(1), 'q"x': Finite(3), "back\\slash": Countable(), "ü中": Real(1),
          "%d%%s": Product(Real(1), Finite(2)), "r2": Real(2)}
SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 1e17, 5e-324, -5e-324, math.inf, -math.inf,
           0.1, 2.0 ** 53, 2.0 ** 53 + 2.0, 1e15 + 0.125, 123456789012345.67]

floats = st.one_of(st.integers(0, 2 ** 64 - 1).map(
    lambda w: struct.unpack("<d", struct.pack("<Q", w))[0]).filter(lambda x: x == x),
    st.sampled_from(SPECIAL))


def _rows_text(spaces, cod, traces, outputs, logpdfs):
    encode = _record_encoder(spaces, cod)
    return "".join(encode({b: c[i] for b, c in traces.items()}, x, ld) + "\n"
                   for i, (x, ld) in enumerate(zip(outputs, logpdfs)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(floats, floats, floats, st.integers(0, 2), st.integers(-2 ** 70, 2 ** 70)),
                max_size=12))
def test_block_text_is_the_records_text(rows):
    traces = {"a%b": [r[0] for r in rows], 'q"x': [r[3] for r in rows],
              "back\\slash": [r[4] for r in rows], "ü中": [r[1] for r in rows],
              "%d%%s": [(r[2], r[3] % 2) for r in rows], "r2": [(r[0], r[2]) for r in rows]}
    logpdfs, outputs = [r[2] for r in rows], [r[1] for r in rows]
    for cod, outs in ((Real(1), outputs), (Finite(3), traces['q"x']),
                      (Product(Real(1), Finite(2)), traces["%d%%s"])):
        got = outcome(lambda: _block_encoder(SPACES, cod)(traces, outs, logpdfs))
        assert got == outcome(lambda: _rows_text(SPACES, cod, traces, outs, logpdfs))


def test_each_special_float_renders_alone():
    spaces = {"x%": Real(1)}
    encode = _block_encoder(spaces, Real(1))
    for x in SPECIAL:
        text = encode({"x%": [x]}, [x], [x])
        assert text == _rows_text(spaces, Real(1), {"x%": [x]}, [x], [x]), x
        assert json.loads(text.replace("1e9999", "1e999"))["trace"] == {"x%": x}


def test_nan_raises_the_records_error():
    spaces = {"b": Real(1)}
    for traces, outputs, logpdfs in (({"b": [0.5, math.nan]}, [0.5, 0.5], [0.1, 0.1]),
                                     ({"b": [0.5]}, [math.nan], [0.1]),
                                     ({"b": [0.5]}, [0.5], [math.nan])):
        got = outcome(lambda: _block_encoder(spaces, Real(1))(traces, outputs, logpdfs))
        assert got == (ShapeError, "cannot serialize NaN")
        assert got == outcome(lambda: _rows_text(spaces, Real(1), traces, outputs, logpdfs))


# ---------------------------------------------------------------------------
# abduct --out and --trace


def test_abduct_refuses_to_overwrite_its_trace_file(tmp_path, capsys):
    chain = str(MODELS / "chain.json")
    trace = tmp_path / "t.jsonl"
    assert main(["sample", chain, "--n", "2000", "--seed", "1", "--out", str(trace)]) == 0
    before = trace.read_bytes()
    link = tmp_path / "link.jsonl"
    link.symlink_to(trace)
    for out in (trace, link):
        assert main(["abduct", chain, "--trace", str(trace), "--out", str(out)]) == 2
        _, err = capsys.readouterr()
        assert err.splitlines()[0] == "error: --out names the --trace file"
        assert trace.read_bytes() == before
    # another file is written as ever
    u = tmp_path / "u.jsonl"
    assert main(["abduct", chain, "--trace", str(trace), "--out", str(u)]) == 0
    assert u.read_text().count("\n") == 2000
